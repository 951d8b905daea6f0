open Bcclb_util

let cycle_of_order order =
  let n = Array.length order in
  if n < 3 then invalid_arg "Gen.cycle_of_order: need at least 3 vertices";
  Graph.of_edges ~n (List.init n (fun i -> (order.(i), order.((i + 1) mod n))))

let cycle n = cycle_of_order (Array.init n Fun.id)

let random_cycle rng n = cycle_of_order (Rng.permutation rng n)

let multicycle_of_lengths rng n lengths =
  if List.exists (fun l -> l < 3) lengths then invalid_arg "Gen.multicycle_of_lengths: cycle length < 3";
  if Arrayx.sum (Array.of_list lengths) <> n then invalid_arg "Gen.multicycle_of_lengths: lengths must sum to n";
  let perm = Rng.permutation rng n in
  let edges = ref [] in
  let pos = ref 0 in
  List.iter
    (fun len ->
      let c = Array.sub perm !pos len in
      for i = 0 to len - 1 do
        edges := (c.(i), c.((i + 1) mod len)) :: !edges
      done;
      pos := !pos + len)
    lengths;
  Graph.of_edges ~n !edges

let random_two_cycles rng n =
  if n < 6 then invalid_arg "Gen.random_two_cycles: need n >= 6";
  let i = Rng.int_in_range rng ~lo:3 ~hi:(n - 3) in
  multicycle_of_lengths rng n [ i; n - i ]

let random_multicycle rng n =
  if n < 3 then invalid_arg "Gen.random_multicycle: need n >= 3";
  (* Random composition of n into parts of size >= 3. *)
  let rec split acc remaining =
    if remaining < 6 then remaining :: acc
    else begin
      (* Stop with probability 1/2, otherwise carve off a random part. *)
      if Rng.bool rng then remaining :: acc
      else begin
        let part = Rng.int_in_range rng ~lo:3 ~hi:(remaining - 3) in
        split (part :: acc) (remaining - part)
      end
    end
  in
  multicycle_of_lengths rng n (split [] n)

let gnp rng n p =
  if p < 0.0 || p > 1.0 then invalid_arg "Gen.gnp: p out of range";
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.float rng < p then edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let random_connected rng n =
  if n < 1 then invalid_arg "Gen.random_connected: need n >= 1";
  (* Random spanning tree (random attachment) plus a sprinkle of extras. *)
  let perm = Rng.permutation rng n in
  let edges = ref [] in
  for i = 1 to n - 1 do
    let j = Rng.int rng i in
    edges := (perm.(i), perm.(j)) :: !edges
  done;
  let extras = Rng.int rng (n + 1) in
  for _ = 1 to extras do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then edges := (u, v) :: !edges
  done;
  Graph.of_edges ~n !edges

let random_bounded_degree rng n d =
  if d < 0 then invalid_arg "Gen.random_bounded_degree: negative degree bound";
  let deg = Array.make n 0 in
  let present = Hashtbl.create (n * (d + 1)) in
  let edges = ref [] in
  let attempts = n * (d + 1) * 4 in
  for _ = 1 to attempts do
    let u = Rng.int rng n and v = Rng.int rng n in
    let key = (min u v, max u v) in
    if u <> v && deg.(u) < d && deg.(v) < d && not (Hashtbl.mem present key) then begin
      Hashtbl.add present key ();
      edges := key :: !edges;
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1
    end
  done;
  Graph.of_edges ~n !edges
