(** The tightness witnesses of §1.1: deterministic O(d·log n)-round BCC(1)
    algorithms for Connectivity and ConnectedComponents on graphs of
    maximum degree ≤ d, in both KT-0 and KT-1.

    Each vertex broadcasts its ID bit-by-bit (KT-0 only; in KT-1 port
    labels already carry IDs), then its input-neighbour ID list. Since
    broadcasts reach everyone, every vertex reconstructs the whole input
    graph and answers locally. On the paper's 2-regular promise inputs
    (d = 2) this runs in Θ(log n) rounds — matching the Ω(log n) lower
    bounds of Theorems 3.1 and 4.4 and standing in for the
    constant-arboricity sketching algorithm of [MT16] that the paper
    cites for tightness (see DESIGN.md substitutions).

    KT-0 instances must use the repository's default ID space 1..n (the
    decoder needs to know the universe of IDs); KT-1 instances may use
    any IDs that fit in [Codec.id_width] bits, 0 excluded (it pads). *)

val connectivity : knowledge:Bcclb_bcc.Instance.knowledge -> max_degree:int -> bool Bcclb_bcc.Algo.packed
(** YES iff the input graph is connected. When truncated (see
    {!Bcclb_bcc.Algo.truncate}) and the transcript does not determine the
    graph, guesses YES ("optimist"); {!connectivity_truncated} also
    offers the pessimist. *)

val components : knowledge:Bcclb_bcc.Instance.knowledge -> max_degree:int -> int Bcclb_bcc.Algo.packed
(** ConnectedComponents: each vertex outputs the smallest ID in its
    component. *)

val connectivity_truncated :
  knowledge:Bcclb_bcc.Instance.knowledge ->
  max_degree:int ->
  rounds:int ->
  optimist:bool ->
  bool Bcclb_bcc.Algo.packed
(** The t-round truncation used as the adversarial subject of the KT-0
    lower-bound experiments (E3): run at most [rounds] rounds of the
    optimal algorithm, then answer exactly if the transcript determines
    the graph, else guess YES ([optimist]) or NO. *)

val connectivity_partial :
  knowledge:Bcclb_bcc.Instance.knowledge ->
  max_degree:int ->
  rounds:int ->
  optimist:bool ->
  bool Bcclb_bcc.Algo.packed
(** A stronger truncated subject for E3: answers NO with certainty when
    the partially decoded edges already close a cycle on fewer than n
    vertices (a disconnection certificate), and guesses otherwise. *)
