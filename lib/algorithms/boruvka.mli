(** Borůvka-style Connectivity/ConnectedComponents in BCC(2·⌈log₂(n+1)⌉)
    with KT-1 knowledge: O(log n) rounds on arbitrary input graphs.

    This is the repository's stand-in for the b = log n regime the paper
    contrasts against (§1: BCC(log n) admits O(log n / log log n)
    [JN17]; a t-round BCC(1) lower bound is a t/b-round BCC(b) lower
    bound). Each vertex announces its component label and its minimum
    "foreign" neighbouring label. Broadcasts are global, so the merge is
    the same at every vertex: it runs once per round for the whole run
    ({!Bcclb_bcc.Inbox.once}), and every vertex reads the one labels
    array it yields. *)

val connectivity : unit -> bool Bcclb_bcc.Algo.packed
(** YES iff all component labels coincide after convergence. *)

val components : unit -> int Bcclb_bcc.Algo.packed
(** Smallest ID of the vertex's component. *)
