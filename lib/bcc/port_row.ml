type t = { cells : int array; offset : int; skip : int; ports : int }

let of_array a = { cells = a; offset = 0; skip = Array.length a; ports = Array.length a }

let window cells ~offset ~skip ~ports =
  if offset < 0 || skip < 0 || offset + ports + Bool.to_int (skip < ports) > Array.length cells then
    invalid_arg "Port_row.window: the row does not fit its array";
  { cells; offset; skip; ports }

let ports r = r.ports

(* [window] checked that every cell a port in range reads exists. *)
let get r p =
  if p < 0 || p >= r.ports then invalid_arg "Port_row.get: port out of range";
  Array.unsafe_get r.cells (r.offset + p + Bool.to_int (p >= r.skip))
