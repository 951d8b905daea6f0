open Bcclb_bcc

(* The knowledge translation of §1.1: "if the bandwidth b = Omega(log n)
   there is essentially no distinction between the KT-0 and KT-1 versions
   since each node can send its ID to neighbours in constant rounds".
   Executable form, for any b >= 1: compile a KT-1 algorithm into a KT-0
   algorithm by prepending an ID-learning phase of ceil(L / b) rounds
   (L = id bits) in which every vertex broadcasts its ID; each vertex
   then knows the ID behind every port and hands the inner algorithm a
   synthesised KT-1 view. The cost of knowledge is an ADDITIVE
   O(log n / b) rounds — which is why the paper's KT-1 lower bounds are
   the stronger ones.

   The synthesised view keeps the instance's true (arbitrary) port
   wiring; KT-1 algorithms only ever rely on knowing the ID behind each
   port, never on the ID-sorted wiring convention, so they run unchanged. *)

type 's phase = Learning | Running of 's

type 's state = { view : View.t; l : int; chunk : int; phase : 's phase }

let compile (Algo.Packed a) =
  let name = Printf.sprintf "kt0[%s]" a.Algo.name in
  let bandwidth ~n = max 1 (a.Algo.bandwidth ~n) in
  let learn_rounds ~n =
    let l = Codec.id_width ~n in
    let b = bandwidth ~n in
    (l + b - 1) / b
  in
  let rounds ~n = learn_rounds ~n + a.Algo.rounds ~n in
  let init view =
    (match View.kt1 view with
    | Some _ -> invalid_arg (name ^ ": expects a KT-0 instance")
    | None -> ());
    let n = View.n view in
    { view; l = Codec.id_width ~n; chunk = bandwidth ~n; phase = Learning }
  in
  (* Broadcast own ID in big-endian chunks of [chunk] bits (the last
     chunk may be shorter). *)
  let id_chunk st ~round =
    let sent = (round - 1) * st.chunk in
    let width = min st.chunk (st.l - sent) in
    let value = (View.id st.view lsr (st.l - sent - width)) land ((1 lsl width) - 1) in
    Msg.of_int ~width value
  in
  let synthesize st inbox =
    (* Reassemble each port's ID from the learning-phase broadcasts,
       rounds 1..lr of the inbox (fewer if the run was cut short). *)
    let lr = min (learn_rounds ~n:(View.n st.view)) (Inbox.rounds inbox) in
    let neighbor_ids =
      Array.init (View.num_ports st.view) (fun p ->
          let id = ref 0 in
          for r = 1 to lr do
            match Inbox.heard inbox ~round:r p with
            | Msg.Silent -> ()
            | Msg.Word w -> id := (!id lsl Bcclb_util.Bits.width w) lor Bcclb_util.Bits.value w
          done;
          !id)
    in
    let all = Array.append [| View.id st.view |] neighbor_ids in
    Array.sort Int.compare all;
    { st.view with View.kt1 = Some { View.all_ids = all; neighbor_ids = Port_row.of_array neighbor_ids } }
  in
  (* The inner algorithm's round 1 is the first round after learning:
     its inbox is the outer one with the learning rounds dropped. *)
  let inner_inbox st inbox = Inbox.shift inbox ~rounds:(learn_rounds ~n:(View.n st.view)) in
  let step st ~round ~inbox =
    let lr = learn_rounds ~n:(View.n st.view) in
    match st.phase with
    | Learning ->
      if round <= lr then (* Still broadcasting ID chunks. *)
        (st, id_chunk st ~round)
      else begin
        (* First inner round: [inbox] has heard every ID chunk. *)
        let inner = a.Algo.init (synthesize st inbox) in
        let inner', msg = a.Algo.step inner ~round:1 ~inbox:(inner_inbox st inbox) in
        ({ st with phase = Running inner' }, msg)
      end
    | Running inner ->
      let inner', msg = a.Algo.step inner ~round:(round - lr) ~inbox:(inner_inbox st inbox) in
      ({ st with phase = Running inner' }, msg)
  in
  let finish st ~inbox =
    match st.phase with
    | Running inner -> a.Algo.finish inner ~inbox:(inner_inbox st inbox)
    | Learning ->
      (* Degenerate: the inner algorithm declared zero rounds. Initialise
         and finish immediately, on an inbox that has heard nothing. *)
      let inner = a.Algo.init (synthesize st inbox) in
      a.Algo.finish inner ~inbox:(Inbox.shift inbox ~rounds:(Inbox.rounds inbox))
  in
  Algo.pack
    { Algo.name; anonymous = false; bandwidth; rounds; init; step; finish; truncates = None }

let learning_rounds ~n ~bandwidth =
  let l = Codec.id_width ~n in
  (l + max 1 bandwidth - 1) / max 1 bandwidth
