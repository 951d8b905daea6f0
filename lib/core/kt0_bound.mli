(** Experiment kernels for the KT-0 lower bound (§3): the Lemma 3.9
    census ratio (E1), the Definition 3.6/Lemma 3.8 indistinguishability
    graph statistics with the Theorem 2.1 k-matching (E2), and the
    Theorem 3.1/3.5 error-vs-rounds sweep (E3). *)

type census_row = {
  n : int;
  v1 : Bcclb_bignum.Nat.t;
  v2 : Bcclb_bignum.Nat.t;
  v1_enumerated : int option;
  v2_enumerated : int option;
  ratio : float;
  predicted : float;  (** H_{n/2} − 3/2, Lemma 3.9's Θ(log n) shape. *)
}

val census_row : ?enumerate_to:int -> n:int -> unit -> census_row
(** Closed-form |V₁|, |V₂| for any n; cross-checked against direct
    enumeration up to [enumerate_to] (default 9). *)

type indist_stats = {
  n : int;
  rounds : int;
  x : string;
  y : string;
  v1_count : int;
  v2_count : int;
  edges : int;
  isolated_v1 : int;
  min_live_degree : int;
  max_degree_v1 : int;
  hall_ok : bool;
  k : int;
  k_matching_found : bool;
}

val indist_stats :
  ?seed:int -> ?samples:int -> ?deepest:int -> 'o Bcclb_bcc.Algo.packed -> n:int -> rounds:int ->
  k:int -> Bcclb_util.Rng.t -> indist_stats
(** Build G^t for the given (pre-truncated to [rounds]) algorithm; check
    the sampled Hall condition and construct a k-matching. [deepest] as
    in {!Indist_graph.build}. *)

type orbit_row = {
  n : int;
  rounds : int;
  v1 : int;
  v2 : int;
  reps : int;
  reduction : float;  (** |V₁| / reps — ≈ n when orbits are free. *)
  edges : int;
  isolated_v1 : int;
  live_v1 : int;
  min_live_degree : int;
  max_degree_v1 : int;
  warm : bool;
}

val orbit_row :
  ?seed:int -> ?root:string -> ?deepest:int -> 'o Bcclb_bcc.Algo.packed -> n:int -> unit -> orbit_row
(** Exhaustive full-graph statistics through the streaming
    {!Quotient} — E2's frontier table past the materialisable census
    (n ≤ {!Arena.Orbit.max_n}). Same [deepest], soundness condition and
    exceptions as {!Quotient.full_stats}. *)

type error_row = {
  n : int;
  t : int;
  algo_name : string;
  mu_error : float;  (** Exact distributional error under μ. *)
  largest_active_min : int;
  pigeonhole_floor : float;  (** n/3^{2t}. *)
}

val error_row :
  ?seed:int -> n:int -> t:int -> (rounds:int -> bool Bcclb_bcc.Algo.packed) -> Bcclb_util.Rng.t ->
  error_row

val theorem_3_1_threshold : n:int -> float
(** 0.1·log₃ n: below this many rounds Theorem 3.1 forces constant error. *)

val upper_bound_rounds : n:int -> int
(** Rounds at which the repository's own KT-0 discovery algorithm solves
    TwoCycle exactly (≈ 3 log₂ n): the tightness ceiling. *)
