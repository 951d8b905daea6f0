open Bcclb_bcc

(* Min-label flooding, the trivial baseline (E10): labels start as own
   IDs and repeatedly drop to the minimum over input-graph neighbours.
   Each phase broadcasts the current label over L = id_width rounds; after
   [phases] phases the label equals the minimum ID within distance
   [phases], so any [phases] >= diameter converges. A final phase
   broadcasts the converged label so that every vertex can compare all n
   labels and decide Connectivity. Θ(n log n) rounds on a cycle — the
   baseline the O(log n) discovery algorithm beats by a factor Θ(n). *)

type state = {
  view : View.t;
  l : int;
  phases : int;
  label : int;
}

(* The labels of the phase whose L bits end with the latest round the
   inbox has heard, one per port. *)
let decode_phase_labels st inbox =
  let first = Inbox.rounds inbox - st.l + 1 in
  Array.init (View.num_ports st.view) (fun p ->
      let v, ok = Codec.decode inbox ~port:p ~first ~width:st.l in
      if ok then Some v else None)

let make ~phases_of =
  let rounds ~n =
    let l = Codec.id_width ~n in
    (phases_of ~n + 1) * l
  in
  let init view =
    { view;
      l = Codec.id_width ~n:(View.n view);
      phases = phases_of ~n:(View.n view) + 1;
      label = View.id view }
  in
  let step st ~round ~inbox =
    let pos = (round - 1) mod st.l in
    (* A phase's last bit arrives one round late: in the first round of
       the next phase, decode the phase just heard and update the label. *)
    let st =
      if pos = 0 && round > 1 then begin
        let labels = decode_phase_labels st inbox in
        let lbl = ref st.label in
        Array.iter
          (fun p -> match labels.(p) with Some v -> lbl := min !lbl v | None -> ())
          (View.input_ports st.view);
        { st with label = !lbl }
      end
      else st
    in
    (st, Codec.msg_of_bit (Codec.bit_of_int ~width:st.l ~pos st.label))
  in
  (rounds, init, step)

let connectivity ?phases () =
  let phases_of ~n = match phases with Some p -> p | None -> (n / 2) + 1 in
  let name = "min-label-connectivity" in
  let rounds, init, step = make ~phases_of in
  let finish st ~inbox =
    (* The last phase broadcast everyone's converged label; all labels
       (over all ports) must equal ours for a YES. *)
    let labels = decode_phase_labels st inbox in
    Array.for_all (function Some v -> v = st.label | None -> false) labels
  in
  Algo.pack (Algo.bcc1 ~name ~rounds ~init ~step ~finish)

let components ?phases () =
  let phases_of ~n = match phases with Some p -> p | None -> (n / 2) + 1 in
  let name = "min-label-components" in
  let rounds, init, step = make ~phases_of in
  let finish st ~inbox:_ = st.label in
  Algo.pack (Algo.bcc1 ~name ~rounds ~init ~step ~finish)
