(** The hard distributions of §3 and exact distributional error.

    μ (§3.1): half the mass uniform over all one-cycle instances, half
    over all two-cycle instances. Yao's minimax theorem (Theorem 2.2)
    turns a lower bound on deterministic error under μ into a randomized
    round lower bound — experiment E3 measures that error exactly by
    running a candidate algorithm on every census instance. *)

type error_report = {
  n : int;
  algo_name : string;
  v1_total : int;
  v1_errors : int;  (** One-cycle instances answered NO. *)
  v2_total : int;
  v2_errors : int;  (** Two-cycle instances answered YES. *)
  error : Bcclb_bignum.Ratio.t;  (** Exact error mass under μ. *)
}

val error_float : error_report -> float

val exact_error : ?truncations:int list -> bool Bcclb_bcc.Algo.packed -> n:int -> error_report
(** Run on every instance of the census — {!Arena.get}'s V₁ and V₂,
    each stamped over the shared circulant wiring — once. With
    [truncations], the round bounds of the truncation family [algo]
    belongs to, every instance runs once under the family's deepest
    member and is read at each member's last round
    ({!Bcclb_bcc.Simulator.run_members}); the members' decisions, one
    bit each, are a single-flight {!Bcclb_engine.Pool.shared} batch per
    (n, deepest member, list) kept for the life of the process, so
    every member's report reads the same executions. Without it, or if
    [algo] is not a truncation, [algo] runs alone ({!Bcclb_engine.Pool.map_batch})
    and nothing is kept. Either way under span [hard.exact_error]
    (attributes n, the executed algorithm and the round counts read).
    @raise Invalid_argument for n outside {!Arena.supported}, or if [algo]'s
    round count is not among its family's members'. *)

val star_support : n:int -> Bcclb_graph.Cycles.t * Bcclb_graph.Cycles.t list
(** The Theorem 3.5 warm-up family: a fixed one-cycle instance and the
    Θ(n²) two-cycle instances obtained by crossing pairs from an
    independent set of ⌊n/3⌋ edges. @raise Invalid_argument for n < 9. *)

val star_error : bool Bcclb_bcc.Algo.packed -> n:int -> Bcclb_bignum.Ratio.t
(** Exact error under the star distribution (mass 1/2 on the YES
    instance, 1/2 uniform on its crossings). *)
