(** Lemma 3.4 checked by execution (E4): crossings of same-label
    independent edge pairs produce instances whose per-vertex states
    (initial knowledge + transcript) are identical to the original's —
    over genuinely rewired ports, not just at the census level. *)

type verify = [ `All | `Sampled of int | `Off ]
(** How many pairs to re-check by genuine port-rewired execution.
    [`All] executes every independent pair;
    [`Sampled k] executes the first k same-label and first k
    different-label pairs per instance (deterministic in enumeration
    order) and counts remaining same-label pairs as indistinguishable by
    Lemma 3.4; [`Off] executes none. *)

type report = {
  instances : int;
  crossable_pairs : int;
  same_label_pairs : int;
  indistinguishable : int;  (** Includes unverified same-label pairs,
                                which Lemma 3.4 guarantees. *)
  violations : int;  (** Same-label pairs that were distinguishable: the
                         lemma asserts this is always 0. *)
  distinguishable_diff_label : int;  (** Only over executed diff-label
                                        pairs under [`Sampled]. *)
  executed : int;  (** Crossed instances genuinely run; the base
                       instance is run once and memoised. *)
  verified : int;  (** Same-label pairs confirmed by execution. *)
}

val check :
  ?seed:int ->
  ?verify:verify ->
  'o Bcclb_bcc.Algo.packed ->
  n:int ->
  instances:int ->
  wiring:[ `Circulant | `Random ] ->
  Bcclb_util.Rng.t ->
  report
(** Examine every independent directed-edge pair of [instances] random
    one-cycle instances under the given algorithm. [verify] defaults to
    [`Sampled 16]. *)

val check_reps :
  ?seed:int -> ?verify:verify -> 'o Bcclb_bcc.Algo.packed -> n:int -> report
(** Exhaustive census-weighted sweep: every independent pair of every
    V₁ instance is accounted for, but enumeration and execution touch
    only one representative per rotation class — orbit members are
    counted through their representative with the orbit weight. In the
    report, pair counts are weighted, [instances] = |V₁|, and
    [executed]/[verified] remain actual execution counts (the visible
    reduction factor). Shares {!check}'s pair sweep.
    @raise Invalid_argument unless {!Arena.rotation_sound}: an
    ID-reading algorithm with rounds ≥ 1. *)
