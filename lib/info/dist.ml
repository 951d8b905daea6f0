(* Finite probability distributions over an arbitrary (hashable) type,
   stored as normalised weights. *)

type 'a t = ('a, float) Hashtbl.t

let of_weighted pairs =
  let tbl = Hashtbl.create 64 in
  let total = ref 0.0 in
  List.iter
    (fun (x, w) ->
      if w < 0.0 then invalid_arg "Dist.of_weighted: negative weight";
      total := !total +. w;
      Hashtbl.replace tbl x (w +. Option.value ~default:0.0 (Hashtbl.find_opt tbl x)))
    pairs;
  if !total <= 0.0 then invalid_arg "Dist.of_weighted: total weight must be positive";
  Hashtbl.filter_map_inplace (fun _ w -> if w = 0.0 then None else Some (w /. !total)) tbl;
  tbl

let uniform xs = of_weighted (List.map (fun x -> (x, 1.0)) xs)

let prob t x = Option.value ~default:0.0 (Hashtbl.find_opt t x)

let size t = Hashtbl.length t

let fold f t init = Hashtbl.fold f t init

let map_support f t =
  of_weighted (Hashtbl.fold (fun x w acc -> (f x, w) :: acc) t [])

let total t = Hashtbl.fold (fun _ w acc -> acc +. w) t 0.0
