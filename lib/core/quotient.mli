(** Streaming orbit-quotient statistics of the full indistinguishability
    graph ({!Indist_graph.build_full}'s union over label pairs) at n
    beyond the materialisable census.

    The left side streams off the orbit store ({!Arena.Orbit}); the
    right side is never materialised — distinct crossable pairs of a
    one-cycle cross to distinct two-cycle structures, so a degree is a
    count of same-label pairs, and |V₂|, |Tᵢ| come from {!Census}'s
    closed forms. Sound only for rotation-equivariant transcripts
    ({!Arena.rotation_sound}: anonymous algorithms, or rounds = 0). Peak
    memory is the store's records, 7 bytes per representative (129 MB at
    n = 13): nothing else is kept per representative, which is what
    carries the exhaustive §3 pipeline to n = 13. *)

type stats = {
  n : int;
  rounds : int;  (** The algorithm's round bound at this n. *)
  v1 : int;  (** |V₁| = (n−1)!/2 (closed form). *)
  v2 : int;  (** |V₂| = Σ|Tᵢ| (closed form). *)
  reps : int;  (** Rotation-class representatives streamed. *)
  edges : int;  (** Total edges of the full graph (weighted over reps). *)
  isolated_v1 : int;  (** V₁ instances with no same-label crossing. *)
  live_v1 : int;  (** v1 − isolated_v1. *)
  min_live_degree : int;  (** Minimum positive degree (0 if none live). *)
  max_degree_v1 : int;
  edges_by_smaller : (int * int) list;
      (** Edge count by the smaller cycle length of the right endpoint —
          the per-Tᵢ structure behind Lemma 3.9's double counting. *)
  t_i : (int * int) list;  (** Closed-form |Tᵢ| for comparison. *)
}

val full_stats :
  ?seed:int -> ?root:string -> ?deepest:int -> 'o Bcclb_bcc.Algo.packed -> n:int -> unit -> stats
(** Aggregate the full graph's left-side degree statistics by streaming
    every representative (pool-parallel over equal record ranges of the
    store).
    The stream executes the family's [deepest]-round member
    ({!Arena.code_source}; the algorithm itself by default) and yields
    partials for every truncation up to its depth; it is one
    single-flight {!Bcclb_engine.Pool.shared} batch per (n, [root],
    member, seed), so the sibling truncations of one sweep share it and
    each reads its own. Every quantity agrees exactly with the
    materialised {!Indist_graph.build_full} wherever both are feasible
    (n ≤ 10 is tested), whatever [deepest].
    @raise Invalid_argument if n < 6, n > {!Arena.Orbit.max_n}, the
    algorithm is not {!Arena.rotation_sound}, or its codes do not pack
    ({!Arena.require_codable}). *)
