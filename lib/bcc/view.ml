open Bcclb_util

type kt1_info = { all_ids : int array; neighbor_ids : Port_row.t }

type t = {
  n : int;
  id : int;
  num_ports : int;
  input_ports : int array;
  kt1 : kt1_info option;
  coins : Rng.t;
}

let n t = t.n
let id t = t.id
let num_ports t = t.num_ports

let is_input_port t p =
  if p < 0 || p >= t.num_ports then invalid_arg "View.is_input_port: port out of range";
  Arrayx.mem_sorted t.input_ports p

let input_ports t = t.input_ports

let degree t = Array.length t.input_ports

let kt1 t = t.kt1

let neighbor_id t p =
  match t.kt1 with
  | None -> invalid_arg "View.neighbor_id: not available in KT-0"
  | Some k ->
    if p < 0 || p >= t.num_ports then invalid_arg "View.neighbor_id: port out of range";
    Port_row.get k.neighbor_ids p

let all_ids t =
  match t.kt1 with
  | None -> invalid_arg "View.all_ids: not available in KT-0"
  | Some k -> Array.copy k.all_ids

let rec index_in (ids : int array) id lo hi =
  if lo >= hi then raise Not_found
  else begin
    let mid = (lo + hi) lsr 1 in
    let y = ids.(mid) in
    if y = id then mid else if y < id then index_in ids id (mid + 1) hi else index_in ids id lo mid
  end

let index_of_id t id =
  match t.kt1 with
  | None -> invalid_arg "View.index_of_id: not available in KT-0"
  | Some k -> index_in k.all_ids id 0 (Array.length k.all_ids)

let coins t = t.coins
