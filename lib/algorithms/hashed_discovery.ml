open Bcclb_bcc
open Bcclb_graph
open Bcclb_util

(* A genuinely randomized Monte Carlo TwoCycle algorithm (KT-0 BCC(1)),
   the randomized subject of the Theorem 3.1 experiment: instead of full
   Theta(log n)-bit IDs, vertices broadcast k-bit public-coin HASHES of
   their IDs and run graph discovery on hash values, in 3k rounds.

   Identifying vertices by hash can only merge them, so a hashed
   one-cycle instance always looks connected (no error on YES inputs),
   while a two-cycle instance looks connected iff some cross-cycle pair
   collides — probability roughly 1 - exp(-|C1||C2| / 2^k). This is an
   eps-error Monte Carlo algorithm with 3k = O(log n + log(1/eps))
   rounds, and for k = o(log n) its error is constant: exactly the
   trade-off Theorem 3.1 proves unavoidable. *)

type state = {
  view : View.t;
  k : int;
  hash : int;  (* own k-bit hash *)
  nbrs : int array;  (* neighbour hashes, ascending; decoded once, in round k+1 *)
}

(* Public-coin universal-style hash: (a*id + b) mod p, truncated to k
   bits. All vertices draw the same (a, b) from the shared coin stream. *)
let hash_of ~coins ~k id =
  let p = 2147483647 in
  let a = 1 + Rng.int coins (p - 1) in
  let b = Rng.int coins p in
  (((a * id) + b) mod p) land ((1 lsl k) - 1)

(* The hashes heard on the input ports in rounds 1..k, ascending. *)
let decode_neighbors st inbox =
  Codec.decode_ports inbox (View.input_ports st.view) ~first:1 ~width:st.k

(* Connectivity of the hashed graph that the inbox and our own
   neighbour hashes describe. Its vertices are the hashes actually
   touched — at most 3(n-1)+3 — each held in a slot of a flat
   linear-probing table with more slots than that, and the slots are the
   union-find's elements, unioned as each edge is decoded; so the work
   never depends on 2^k. The graph is connected iff its touched hashes
   minus the merging unions is at most one. At n = 48 the table's 256
   slots still fit the minor heap. *)
let hashed_graph_connected st inbox =
  let ports = View.num_ports st.view in
  let bits = Mathx.ceil_log2 ((3 * ports) + 4) in
  let mask = (1 lsl bits) - 1 in
  let keys = Array.make (mask + 1) (-1) and uf = Conn.create (mask + 1) in
  let touched = ref 0 and merges = ref 0 in
  let rec probe hash s =
    if keys.(s) = hash then s
    else if keys.(s) < 0 then begin
      keys.(s) <- hash;
      incr touched;
      s
    end
    else probe hash ((s + 1) land mask)
  in
  (* Multiplicative hashing: the top [bits] bits of the 63-bit product. *)
  let slot hash = probe hash ((hash * 0x2545F4914F6CDD1D) lsr (63 - bits)) in
  let link h1 h2 = if Conn.union uf (slot h1) (slot h2) then incr merges in
  (* Every sender's hash with both of its neighbour hashes, plus our own. *)
  Array.iter (fun nbr -> link st.hash nbr) st.nbrs;
  for p = 0 to ports - 1 do
    let sender, ok0 = Codec.decode inbox ~port:p ~first:1 ~width:st.k in
    if ok0 then begin
      let n1, ok1 = Codec.decode inbox ~port:p ~first:(st.k + 1) ~width:st.k in
      let n2, ok2 = Codec.decode inbox ~port:p ~first:((2 * st.k) + 1) ~width:st.k in
      if ok1 then link sender n1;
      if ok2 then link sender n2
    end
  done;
  !touched - !merges <= 1

let make ~k () =
  if k < 1 || k > 20 then invalid_arg "Hashed_discovery.make: k out of range";
  let name = Printf.sprintf "hashed-discovery[k=%d]" k in
  let rounds ~n:_ = 3 * k in
  let verdict = Type.Id.make () in
  let init view =
    (* Degree exactly 2: a vertex of lower degree would pad its list with
       hash 0, linking itself to 0 in everyone's graph but its own. *)
    if View.degree view <> 2 then invalid_arg (name ^ ": needs a 2-regular input");
    { view; k; hash = hash_of ~coins:(View.coins view) ~k (View.id view); nbrs = [||] }
  in
  (* Schedule: rounds 1..k own hash; rounds k+1..3k the two neighbour
     hashes, decoded once when the last bit of phase 1 arrives. *)
  let step st ~round ~inbox =
    if round <= st.k then
      let bit = Codec.bit_of_int ~width:st.k ~pos:(round - 1) st.hash in
      (st, Codec.msg_of_bit bit)
    else begin
      let st = if round = st.k + 1 then { st with nbrs = decode_neighbors st inbox } else st in
      let r = round - st.k - 1 in
      let block = r / st.k and pos = r mod st.k in
      let value = if block < Array.length st.nbrs then st.nbrs.(block) else 0 in
      (st, Codec.msg_of_bit (Codec.bit_of_int ~width:st.k ~pos value))
    end
  in
  (* After all 3k rounds every vertex has heard every hash and neighbour
     list, its own included, so the hashed graph is common knowledge and
     one vertex decides for the run. A truncated view knows its own
     neighbours before the others have heard them, so it decides alone. *)
  let finish st ~inbox =
    let decide () = hashed_graph_connected st inbox in
    if Inbox.rounds inbox >= 3 * k then Inbox.once inbox verdict decide else decide ()
  in
  Algo.bcc1 ~name ~rounds ~init ~step ~finish

let connectivity ~k = Algo.pack (make ~k ())

(* Cross-cycle collision probability for two cycles of sizes (s, n-s):
   1 - prod over pairs is pessimistic; the union bound s(n-s)/2^k is the
   convenient analytic companion printed next to measured error. *)
let predicted_error ~n ~k =
  let s = float_of_int (n / 2) in
  let pairs = s *. (float_of_int n -. s) in
  min 1.0 (pairs /. float_of_int (1 lsl k))
