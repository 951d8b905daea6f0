type t = int array list

let canonical_cycle cyc =
  let k = Array.length cyc in
  if k < 3 then invalid_arg "Cycles.canonical_cycle: length < 3";
  let min_pos = ref 0 in
  for i = 1 to k - 1 do
    if cyc.(i) < cyc.(!min_pos) then min_pos := i
  done;
  let rotated = Bcclb_util.Arrayx.rotate_left cyc !min_pos in
  (* Pick the direction that gives the lexicographically smaller sequence;
     comparing the two neighbours of the minimum is enough. *)
  if rotated.(1) <= rotated.(k - 1) then rotated
  else begin
    let r = Array.copy rotated in
    let tail = Array.sub r 1 (k - 1) in
    Bcclb_util.Arrayx.rev_in_place tail;
    Array.blit tail 0 r 1 (k - 1);
    r
  end

let make cycles =
  let canon = List.map canonical_cycle cycles in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun c ->
      Array.iter
        (fun v ->
          if Hashtbl.mem seen v then invalid_arg "Cycles.make: cycles are not disjoint";
          Hashtbl.add seen v ())
        c)
    canon;
  List.sort (fun a b -> Int.compare a.(0) b.(0)) canon

(* What [make] guarantees, checked instead of established: each cycle
   starts at its minimum and walks toward its smaller neighbour, cycles
   are sorted by first vertex, and no vertex repeats (an int bitmask, so
   vertices must be below [Sys.int_size]). O(total length), and the
   family itself becomes the value: nothing is allocated. *)
let of_canonical cycles =
  let refuse what = invalid_arg ("Cycles.of_canonical: " ^ what) in
  let rec check seen prev = function
    | [] -> ()
    | c :: rest ->
      let k = Array.length c in
      if k < 3 then refuse "cycle of length < 3";
      if c.(0) <= prev then refuse "cycles not sorted by first vertex";
      if c.(1) >= c.(k - 1) then refuse "cycle not oriented toward the smaller neighbour";
      let seen = ref seen in
      for i = 0 to k - 1 do
        let v = c.(i) in
        if v < c.(0) then refuse "cycle does not start at its minimum";
        if v >= Sys.int_size then refuse "vertex beyond the bitmask";
        if !seen land (1 lsl v) <> 0 then refuse "cycles are not disjoint";
        seen := !seen lor (1 lsl v)
      done;
      check !seen c.(0) rest
  in
  check 0 (-1) cycles;
  cycles

let cycles t = t

let num_cycles t = List.length t

let num_vertices t = List.fold_left (fun acc c -> acc + Array.length c) 0 t

let lengths t = List.map Array.length t

let equal (a : t) (b : t) = a = b
let compare_t (a : t) (b : t) = compare a b

let to_edges t =
  List.concat_map
    (fun c ->
      let k = Array.length c in
      List.init k (fun i -> (c.(i), c.((i + 1) mod k))))
    t

let to_graph ~n t = Graph.of_edges ~n (to_edges t)

let of_graph g =
  let n = Graph.n g in
  if not (Graph.is_regular g ~k:2) then None
  else begin
    let visited = Array.make n false in
    let cycles = ref [] in
    (try
       for start = 0 to n - 1 do
         if not visited.(start) then begin
           (* Walk the cycle from [start], never going back where we came from. *)
           let acc = ref [ start ] in
           visited.(start) <- true;
           let prev = ref start in
           let cur = ref (Graph.neighbors g start).(0) in
           while !cur <> start do
             visited.(!cur) <- true;
             acc := !cur :: !acc;
             let nbrs = Graph.neighbors g !cur in
             let next = if nbrs.(0) = !prev then nbrs.(1) else nbrs.(0) in
             prev := !cur;
             cur := next
           done;
           let cyc = Array.of_list (List.rev !acc) in
           if Array.length cyc < 3 then raise Exit;
           cycles := cyc :: !cycles
         end
       done;
       Some (make !cycles)
     with Exit -> None)
  end

let pp fmt t =
  Format.fprintf fmt "@[<hov 1>{%a}@]"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt " |@ ")
       (fun fmt c ->
         Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.fprintf fmt "-")
           Format.pp_print_int fmt (Array.to_list c)))
    t
