open Bcclb_partition

(* The 0-1 matrices of §2 and §4.1: rows and columns are indexed by set
   partitions (all of them for M^n, perfect matchings for E^n), and the
   (i, j) entry is 1 iff P_i ∨ P_j = 1 (the one-block partition). *)

(* [masks.(x)] is the block of element x as a bitmask. *)
let block_masks p =
  let n = Set_partition.ground_size p in
  let by_part = Array.make n 0 in
  for x = 0 to n - 1 do
    let b = Set_partition.part_of p x in
    by_part.(b) <- by_part.(b) lor (1 lsl x)
  done;
  Array.init n (fun x -> by_part.(Set_partition.part_of p x))

(* P ∨ Q = 1 iff the block of element 0 in P ∨ Q covers every element.
   That block is {0} closed under P's and Q's blocks (the alternating
   chains of Theorem 4.3), so grow it until a pass adds nothing. *)
let joins_to_one a b =
  let n = Array.length a in
  let full = (1 lsl n) - 1 in
  let reach = ref 1 and grown = ref true in
  while !grown && !reach <> full do
    let before = !reach in
    for x = 0 to n - 1 do
      if !reach land (1 lsl x) <> 0 then reach := !reach lor a.(x) lor b.(x)
    done;
    grown := !reach <> before
  done;
  !reach = full

let of_index index =
  let masks = Array.map block_masks index in
  let k = Array.length index in
  Bcclb_util.Arrayx.init_matrix k k (fun i j -> if joins_to_one masks.(i) masks.(j) then 1 else 0)

let m_matrix ~n =
  if n <= 0 then invalid_arg "Partition_matrix.m_matrix: n must be positive";
  of_index (Array.of_list (Set_partition.all ~n))

let e_matrix ~n =
  if n <= 0 || n land 1 = 1 then invalid_arg "Partition_matrix.e_matrix: n must be positive and even";
  of_index (Array.of_list (Two_partition.all ~n))
