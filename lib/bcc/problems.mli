(** Problem specifications and verifiers for the problems the paper
    studies: Connectivity, TwoCycle, MultiCycle (decision), and
    ConnectedComponents (labelling). *)

val system_decision : bool array -> bool
(** §1.2: the system outputs YES iff {e all} vertices output YES. *)

val is_two_cycle_input : Bcclb_graph.Graph.t -> bool
(** The §3 promise: one cycle or two disjoint cycles, lengths ≥ 3. *)

val is_multicycle_input : Bcclb_graph.Graph.t -> bool
(** The §4 promise: one cycle, or ≥ 2 disjoint cycles each of length ≥ 4. *)

val components_correct : Bcclb_graph.Graph.t -> int array -> bool
(** ConnectedComponents verifier: the per-vertex labels must induce
    exactly the partition into connected components (labels themselves
    are free, per "output the label of the connected component"). *)

type stats = { trials : int; errors : int }

val error_rate : stats -> float

val measure_decision_error :
  ?seed:int -> bool Algo.packed -> trials:int -> (int -> Instance.t * bool) -> stats
(** Run [trials] executions on instances drawn from [gen] (called with the
    trial number) and count system-level decision errors. *)
