(** Borůvka minimum spanning forest in BCC(2·⌈log₂(n+1)⌉) with KT-1
    knowledge, O(log n) rounds — the MST side of the paper's §1 contrast
    (MST is O(1) in CC(log n) [JN18], while even Connectivity needs
    Ω(log n/ b) in BCC(b)).

    Edge weights are the canonical injective function
    {!Bcclb_graph.Mst.weight_of_ids} of the endpoint IDs, so weights are
    distinct (the forest is unique) and never transmitted. The global
    merge is the same at every vertex, so it runs once per round for the
    whole run ({!Bcclb_bcc.Inbox.once}), and all vertices output the one
    forest it yields. *)

val forest : unit -> (int * int) list Bcclb_bcc.Algo.packed
(** The minimum spanning forest as sorted (min-ID, max-ID) edge pairs;
    identical at every vertex, equal to Kruskal's forest. *)

val total_weight : unit -> int Bcclb_bcc.Algo.packed
