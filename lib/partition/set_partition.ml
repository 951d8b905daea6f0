open Bcclb_util

(* Restricted growth string (RGS): a.(0) = 0 and
   a.(i) <= 1 + max(a.(0..i-1)). Canonical: equal partitions have equal
   arrays, so structural equality and hashing just work. *)
type t = int array

let check_rgs a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Set_partition: empty ground set";
  if a.(0) <> 0 then invalid_arg "Set_partition: not a restricted growth string";
  let m = ref 0 in
  for i = 1 to n - 1 do
    if a.(i) < 0 || a.(i) > !m + 1 then invalid_arg "Set_partition: not a restricted growth string";
    if a.(i) = !m + 1 then incr m
  done

let of_rgs a =
  let a = Array.copy a in
  check_rgs a;
  a

let to_rgs t = Array.copy t

let ground_size t = Array.length t

let num_parts t = 1 + Array.fold_left max 0 t

let part_of t i = t.(i)

let same_part t i j = t.(i) = t.(j)

(* Renumber arbitrary block labels into RGS form. *)
let canonicalize labels =
  let n = Array.length labels in
  let rename = Hashtbl.create 16 in
  let next = ref 0 in
  Array.init n (fun i ->
      match Hashtbl.find_opt rename labels.(i) with
      | Some c -> c
      | None ->
        let c = !next in
        incr next;
        Hashtbl.add rename labels.(i) c;
        c)

let of_labels labels =
  if Array.length labels = 0 then invalid_arg "Set_partition.of_labels: empty ground set";
  canonicalize labels

let of_blocks ~n blocks =
  let labels = Array.make n (-1) in
  List.iteri
    (fun bi block ->
      List.iter
        (fun x ->
          if x < 0 || x >= n then invalid_arg "Set_partition.of_blocks: element out of range";
          if labels.(x) <> -1 then invalid_arg "Set_partition.of_blocks: element repeated";
          labels.(x) <- bi)
        block)
    blocks;
  Array.iteri (fun x l -> if l = -1 then invalid_arg (Printf.sprintf "Set_partition.of_blocks: element %d missing" x)) labels;
  canonicalize labels

let blocks t =
  let k = num_parts t in
  let acc = Array.make k [] in
  for i = Array.length t - 1 downto 0 do
    acc.(t.(i)) <- i :: acc.(t.(i))
  done;
  Array.to_list acc

let finest n = Array.init n Fun.id

let coarsest n =
  if n = 0 then invalid_arg "Set_partition.coarsest: empty ground set";
  Array.make n 0

let is_coarsest t = num_parts t = 1

let equal (a : t) (b : t) = a = b

(* P ∨ Q: the finest partition refined by both. Elements i, j end up
   together iff they are linked by a chain alternating between P-parts and
   Q-parts (Theorem 4.3's "reachability"); union-find computes exactly
   that closure. *)
let join a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Set_partition.join: ground sets differ";
  let uf = Bcclb_graph.Conn.create n in
  let link part =
    let first = Hashtbl.create 16 in
    for i = 0 to n - 1 do
      match Hashtbl.find_opt first (part i) with
      | None -> Hashtbl.add first (part i) i
      | Some j -> ignore (Bcclb_graph.Conn.union uf i j)
    done
  in
  link (fun i -> a.(i));
  link (fun i -> b.(i));
  canonicalize (Bcclb_graph.Conn.labels uf)

(* P ∧ Q: intersect parts pairwise. *)
let meet a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Set_partition.meet: ground sets differ";
  canonicalize (Array.init n (fun i -> (a.(i) * n) + b.(i)))

let refines a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Set_partition.refines: ground sets differ";
  (* a refines b iff every a-part lies inside one b-part: the b-label is
     constant on each a-label class. *)
  let rep = Array.make (num_parts a) (-1) in
  let rec loop i =
    if i >= n then true
    else begin
      let cls = a.(i) in
      if rep.(cls) = -1 then begin
        rep.(cls) <- b.(i);
        loop (i + 1)
      end
      else rep.(cls) = b.(i) && loop (i + 1)
    end
  in
  loop 0

let iter ~n f =
  if n <= 0 then invalid_arg "Set_partition.iter: n must be positive";
  (* Depth-first generation of all RGS of length n. *)
  let a = Array.make n 0 in
  let rec go i maxv =
    if i = n then f (Array.copy a)
    else
      for v = 0 to maxv + 1 do
        a.(i) <- v;
        go (i + 1) (max maxv v)
      done
  in
  a.(0) <- 0;
  go 1 0

let all ~n =
  let acc = ref [] in
  iter ~n (fun p -> acc := p :: !acc);
  List.rev !acc

let count ~n =
  let c = ref 0 in
  iter ~n (fun _ -> incr c);
  !c

(* Completions of an RGS prefix with current max label m and i elements to
   go: d(0, m) = 1, d(i, m) = (m+1) d(i-1, m) + d(i-1, m+1). Fits an int
   for n <= 20 (d = B_20 ~ 5.2e13 at the root). *)
let completions n =
  let d = Arrayx.init_matrix (n + 1) (n + 2) (fun _ _ -> 0) in
  for m = 0 to n + 1 do
    d.(0).(m) <- 1
  done;
  for i = 1 to n do
    for m = 0 to n do
      d.(i).(m) <- ((m + 1) * d.(i - 1).(m)) + d.(i - 1).(min (n + 1) (m + 1))
    done
  done;
  d

let unrank ~n rank =
  if n <= 0 || n > 20 then invalid_arg "Set_partition.unrank: n out of supported range [1, 20]";
  let d = completions n in
  if rank < 0 || rank >= d.(n - 1).(0) then invalid_arg "Set_partition.unrank: rank out of range";
  let a = Array.make n 0 in
  let rank = ref rank in
  let maxv = ref 0 in
  for i = 1 to n - 1 do
    (* Values 0..maxv each contribute d(n-1-i, maxv); value maxv+1
       contributes d(n-1-i, maxv+1). *)
    let per_old = d.(n - 1 - i).(!maxv) in
    let v =
      if !rank < (!maxv + 1) * per_old then begin
        let v = !rank / per_old in
        rank := !rank mod per_old;
        v
      end
      else begin
        rank := !rank - ((!maxv + 1) * per_old);
        !maxv + 1
      end
    in
    a.(i) <- v;
    if v > !maxv then maxv := v
  done;
  if !rank <> 0 then invalid_arg "Set_partition.unrank: internal rank error";
  a

let rank t =
  let n = Array.length t in
  if n > 20 then invalid_arg "Set_partition.rank: n out of supported range [1, 20]";
  let d = completions n in
  let r = ref 0 in
  let maxv = ref 0 in
  for i = 1 to n - 1 do
    let per_old = d.(n - 1 - i).(!maxv) in
    let v = t.(i) in
    if v <= !maxv then r := !r + (v * per_old)
    else r := !r + ((!maxv + 1) * per_old);
    if v > !maxv then maxv := v
  done;
  !r

let random_uniform rng ~n =
  if n <= 0 || n > 20 then invalid_arg "Set_partition.random_uniform: n out of supported range [1, 20]";
  let d = completions n in
  unrank ~n (Rng.int rng d.(n - 1).(0))

let random_crp rng ~n =
  if n <= 0 then invalid_arg "Set_partition.random_crp: n must be positive";
  let a = Array.make n 0 in
  let maxv = ref 0 in
  for i = 1 to n - 1 do
    let v = Rng.int rng (!maxv + 2) in
    a.(i) <- v;
    if v > !maxv then maxv := v
  done;
  a

let to_string t =
  let bs = blocks t in
  String.concat ""
    (List.map (fun b -> "(" ^ String.concat "," (List.map string_of_int b) ^ ")") bs)

let pp fmt t = Format.pp_print_string fmt (to_string t)
