open Bcclb_bignum

(* Communication lower bounds via matrix rank (Lemma 1.28 of [KN97]): a
   deterministic protocol for a problem with communication matrix M needs
   at least log2(rank(M)) bits. For Partition rank(M^n) = B_n
   (Theorem 2.3) and for TwoPartition rank(E^n) = r (Lemma 4.1), so both
   bounds are Theta(n log n) bits. *)

let partition_bits ~n = Nat.log2 (Combi.bell n)

let two_partition_bits ~n = Nat.log2 (Combi.perfect_matchings n)

(* Rank over Z_p, p = 2^31 - 1. It never exceeds the rank over Q, so
   rank = dimension certifies full rank over Q. *)
let rank_mod_p m = Bcclb_linalg.Zmod.rank (Bcclb_linalg.Zmod.create ()) m

(* Verified variant: build the actual matrix and certify full rank. *)
let verified_bits ~name ~claim m =
  let rank = rank_mod_p m in
  if rank <> Array.length m then
    failwith (Printf.sprintf "Rank_bound.%s: matrix is not full rank (contradicts %s)" name claim);
  Bcclb_util.Mathx.log2 (float_of_int rank)

let verified_partition_bits ~n =
  verified_bits ~name:"verified_partition_bits" ~claim:"Theorem 2.3"
    (Bcclb_linalg.Partition_matrix.m_matrix ~n)

let verified_two_partition_bits ~n =
  verified_bits ~name:"verified_two_partition_bits" ~claim:"Lemma 4.1"
    (Bcclb_linalg.Partition_matrix.e_matrix ~n)

(* The round lower bound the reduction of §4.3 yields: a KT-1 BCC(1)
   algorithm solving Connectivity on 4n-vertex gadgets in t rounds gives
   a 2-party Partition protocol with <= c * n * t bits (2n characters of
   2 bits from each party per round), so t >= lb_bits / (8n). *)
let kt1_round_lb ~bits_per_round lb_bits = lb_bits /. float_of_int bits_per_round
