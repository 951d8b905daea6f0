open Bcclb_bcc
module Board = Bcclb_engine.Topology.Board

(* The transformation sketched in §1.3: "if there were a faster BCC(1)
   Connectivity algorithm, the prover could use the transcript of the
   algorithm at each vertex v as the label at v. The verifier could then
   broadcast these transcripts and locally, at each vertex v, simulate
   the algorithm at v."

   Labels: the r-character broadcast string of the vertex, over
   {'0','1','_'} (2 bits per character, so κ = 2r). Verification: replay
   the algorithm locally — the vertex's own broadcast in each round is
   forced by its view and the labels heard on its ports, so it checks
   its own label character by character and finally checks that the
   algorithm accepts. By induction over rounds, if every vertex accepts
   then the labels ARE the real execution's transcripts and the real
   execution answers YES everywhere; soundness therefore reduces to the
   correctness of the compiled algorithm, and completeness is immediate.
   An r-round algorithm thus yields verification complexity O(r) — which
   is how a verification lower bound transfers to a round lower bound. *)

let char_ok c = c = '0' || c = '1' || c = '_'

let msg_of_char = function
  | '0' -> Msg.zero
  | '1' -> Msg.one
  | '_' -> Msg.silent
  | _ -> invalid_arg "Transcript_scheme: bad transcript character"

let of_algorithm (Algo.Packed a) =
  let name = Printf.sprintf "transcript[%s]" a.Algo.name in
  let prove inst =
    let result = Simulator.run (Algo.pack a) inst in
    (* A proof exists only for YES (connected) instances: on NO instances
       the honest algorithm makes some vertex output NO, and there is
       nothing to certify. *)
    if Problems.system_decision result.Simulator.outputs then
      Some (Array.map Transcript.sent_string result.Simulator.transcripts)
    else None
  in
  let verify view ~own ~by_port =
    let n = View.n view in
    let rounds = a.Algo.rounds ~n in
    let lengths_ok =
      String.length own = rounds
      && String.for_all char_ok own
      && Array.for_all (fun s -> String.length s = rounds && String.for_all char_ok s) by_port
    in
    if not lengths_ok then false
    else begin
      try
        let state = ref (a.Algo.init view) in
        let consistent = ref true in
        (* The labels heard, posted round by round to a port-indexed
           board: round r's step has heard rounds 1..r−1. *)
        let heard = Board.create () in
        let inbox = Inbox.of_ports heard ~ports:(Array.length by_port) in
        let post r = Board.post heard (Array.map (fun s -> msg_of_char s.[r - 1]) by_port) in
        for r = 1 to rounds do
          if r > 1 then post (r - 1);
          let state', msg = a.Algo.step !state ~round:r ~inbox in
          state := state';
          if not (Msg.equal msg (msg_of_char own.[r - 1])) then consistent := false
        done;
        if rounds > 0 then post rounds;
        !consistent && a.Algo.finish !state ~inbox
      with _ -> false
    end
  in
  { Scheme.name; label_bits = (fun ~n -> 2 * a.Algo.rounds ~n); prove; verify }
