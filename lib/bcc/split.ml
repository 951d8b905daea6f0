open Bcclb_util
module Topology = Bcclb_engine.Topology

(* The constructive direction of §1.1's bandwidth translation ("a t-round
   lower bound in BCC(1) immediately translates to a t/b-round lower
   bound in BCC(b)"): any t-round BCC(b) algorithm splits into a
   t·(b + ⌈log₂(b+1)⌉)-round BCC(1) algorithm with identical outputs.

   Each inner round becomes a block of H + b outer rounds, H =
   ⌈log₂(b+1)⌉: a header broadcasting the message width (0 = silent),
   then b payload rounds of which the first [width] carry the bits.
   Because a round's message may depend on the previous round's inbox,
   blocks are strictly sequential: the inner step for round r runs at the
   first outer round of block r, when block r−1 has fully arrived. *)

let header_bits ~b = Mathx.ceil_log2 (b + 1)

let block_len ~b = header_bits ~b + b

type ('s, 'o) outer_state = {
  inner : 's;
  b : int;
  pending : Msg.t;  (* own inner message for the current block *)
  decoded : Inbox.board;  (* one port-indexed array per completed block *)
  inner_inbox : Inbox.t;  (* [decoded] through the identity row *)
}

(* The inner messages of block [j] (1-based), read from the outer inbox
   where they lie. *)
let decode_block ~b inbox j =
  let h = header_bits ~b in
  let first = (j - 1) * block_len ~b in
  Array.init (Inbox.ports inbox) (fun p ->
      let bit r =
        match Inbox.heard inbox ~round:(first + r + 1) p with
        | Msg.Silent -> false
        | Msg.Word w -> Bits.to_bool w
      in
      let width = ref 0 in
      for r = 0 to h - 1 do
        width := (!width lsl 1) lor (if bit r then 1 else 0)
      done;
      if !width = 0 then Msg.silent
      else begin
        let value = ref 0 in
        (* Payload is little-endian in round order (bit i at round h+i). *)
        for i = !width - 1 downto 0 do
          value := (!value lsl 1) lor (if bit (h + i) then 1 else 0)
        done;
        Msg.of_int ~width:(min !width b) !value
      end)

let encode_round ~b pending ~pos =
  let h = header_bits ~b in
  let width = Msg.width pending in
  if pos < h then Msg.of_bit ((width lsr (h - 1 - pos)) land 1 = 1)
  else begin
    let i = pos - h in
    match pending with
    | Msg.Silent -> Msg.zero
    | Msg.Word w -> if i < Bits.width w then Msg.of_bit (Bits.bit w i) else Msg.zero
  end

(* Post each block the outer inbox has completed and the inner board
   lacks. The inner board then follows from the outer inbox alone, so a
   [finish] may run twice, or before later steps, without posting a
   block twice. *)
let catch_up st inbox =
  let bl = block_len ~b:st.b in
  for j = Inbox.rounds st.inner_inbox + 1 to Inbox.rounds inbox / bl do
    Topology.Board.post st.decoded (decode_block ~b:st.b inbox j)
  done

let compile (Algo.Packed a) =
  let name = Printf.sprintf "bcc1-split[%s]" a.Algo.name in
  let rounds ~n = a.Algo.rounds ~n * block_len ~b:(a.Algo.bandwidth ~n) in
  let init view =
    let b = a.Algo.bandwidth ~n:(View.n view) in
    let decoded = Topology.Board.create () in
    { inner = a.Algo.init view;
      b;
      pending = Msg.silent;
      decoded;
      inner_inbox = Inbox.of_ports decoded ~ports:(View.num_ports view) }
  in
  let step st ~round ~inbox =
    let bl = block_len ~b:st.b in
    let pos = (round - 1) mod bl in
    let st =
      if pos = 0 then begin
        (* Block boundary: previous block complete (or this is round 1). *)
        catch_up st inbox;
        let inner_round = ((round - 1) / bl) + 1 in
        let inner', msg = a.Algo.step st.inner ~round:inner_round ~inbox:st.inner_inbox in
        { st with inner = inner'; pending = msg }
      end
      else st
    in
    (st, encode_round ~b:st.b st.pending ~pos)
  in
  let finish st ~inbox =
    catch_up st inbox;
    a.Algo.finish st.inner ~inbox:st.inner_inbox
  in
  (* Splitting re-encodes the inner broadcasts bit-by-bit, so the compiled
     transcripts are ID-free exactly when the inner ones are. *)
  Algo.pack
    { Algo.name;
      anonymous = a.Algo.anonymous;
      bandwidth = (fun ~n:_ -> 1);
      rounds;
      init;
      step;
      finish;
      truncates = None }
