module Json = Bcclb_harness.Json

type span = { name : string; start_ns : int; dur_ns : int; id : int; parent : int }

let of_jsonl text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
         let j = Json.of_string line in
         let int k =
           match Option.bind (Json.member k j) Json.to_int_opt with
           | Some v -> v
           | None -> failwith ("span log: missing " ^ k ^ " in " ^ line)
         in
         match Option.bind (Json.member "name" j) Json.to_str_opt with
         | Some name ->
           { name;
             start_ns = int "start_ns";
             dur_ns = int "dur_ns";
             id = int "id";
             parent = int "parent" }
         | None -> failwith ("span log: missing name in " ^ line))

(* Length of the union of [ivs], each clamped to [lo, hi). *)
let covered ~lo ~hi ivs =
  let clamped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      ivs
  in
  fst
    (List.fold_left
       (fun (acc, reach) (a, b) ->
         let a = max a reach in
         if b > a then (acc + (b - a), b) else (acc, reach))
       (0, lo) (List.sort compare clamped))

let self_seconds spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then Hashtbl.add children s.parent (s.start_ns, s.start_ns + s.dur_ns))
    spans;
  let totals = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let lo = s.start_ns and hi = s.start_ns + s.dur_ns in
      let self = s.dur_ns - covered ~lo ~hi (Hashtbl.find_all children s.id) in
      let prev = Option.value ~default:0 (Hashtbl.find_opt totals s.name) in
      Hashtbl.replace totals s.name (prev + self))
    spans;
  Hashtbl.fold (fun name ns acc -> (name, float_of_int ns *. 1e-9) :: acc) totals []
  |> List.sort compare
