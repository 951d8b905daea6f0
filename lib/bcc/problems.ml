open Bcclb_graph

let system_decision outputs = Array.for_all Fun.id outputs

(* The TwoCycle promise (§3): a single cycle, or exactly two disjoint
   cycles, every cycle length >= 3. *)
let is_two_cycle_input g =
  match Cycles.of_graph g with
  | None -> false
  | Some s -> Cycles.num_cycles s = 1 || Cycles.num_cycles s = 2

(* The MultiCycle promise (§4): one cycle, or >= 2 cycles each of length
   >= 4 (the paper's gadget produces length >= 4; a single cycle may have
   any length >= 3). *)
let is_multicycle_input g =
  match Cycles.of_graph g with
  | None -> false
  | Some s -> Cycles.num_cycles s = 1 || List.for_all (fun l -> l >= 4) (Cycles.lengths s)

let decision_correct ~truth outputs = system_decision outputs = truth

(* ConnectedComponents correctness: every vertex outputs a label and the
   labelling must induce exactly the partition into components. Labels
   need not be canonical — only the induced partition matters. *)
let components_correct g labels =
  let truth = Graph.components g in
  let n = Graph.n g in
  if Array.length labels <> n then false
  else begin
    let seen = Hashtbl.create n in
    let ok = ref true in
    for v = 0 to n - 1 do
      match Hashtbl.find_opt seen truth.(v) with
      | None -> Hashtbl.add seen truth.(v) labels.(v)
      | Some l -> if l <> labels.(v) then ok := false
    done;
    (* Injectivity across distinct components. *)
    let used = Hashtbl.create n in
    Hashtbl.iter
      (fun _ l -> if Hashtbl.mem used l then ok := false else Hashtbl.add used l ())
      seen;
    !ok
  end

type stats = { trials : int; errors : int }

let error_rate { trials; errors } = if trials = 0 then 0.0 else float_of_int errors /. float_of_int trials

(* Empirical error of a decision algorithm over a generator of
   (instance, truth) pairs. *)
let measure_decision_error ?(seed = 0) algo ~trials gen =
  let errors = ref 0 in
  for trial = 1 to trials do
    let inst, truth = gen trial in
    if not (decision_correct ~truth (Simulator.run_outputs ~seed:(seed + trial) algo inst)) then
      incr errors
  done;
  { trials; errors = !errors }
