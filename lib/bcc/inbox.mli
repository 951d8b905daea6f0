(** What a vertex has heard (§1.2), through its ports only.

    In BCC every vertex hears every broadcast, so a run keeps one board
    — each round's emissions array, indexed by sender — and a vertex's
    inbox is a view of it through the vertex's own port→sender row. The
    type is abstract and answers by port, never by sender, so KT-0
    algorithms still cannot learn who sits behind a port.

    A view is live: it shows every round posted to its board so far, so
    in the step of round r it has heard rounds 1..r−1 and in [finish]
    every round. Algorithms read earlier rounds here instead of keeping
    their own copies.

    What every view of a board can work out alike is computed once per
    board ({!once}): the first vertex that asks computes it through its
    own view, the others get the stored value. *)

type t

type board = Msg.t Bcclb_engine.Topology.Board.t

val view : board -> row:int array -> t
(** The inbox of a vertex whose port [p] leads to sender [row.(p)]. The
    row is shared, not copied: do not mutate it. *)

val of_ports : board -> ports:int -> t
(** A board whose arrays are already indexed by port, read through the
    identity row: the inboxes built by code rather than by the engine
    (inner rounds of {!Split}, replays, embeddings, test oracles). Each
    such board belongs to one vertex, so {!once} on it shares nothing
    across vertices. *)

val ports : t -> int

val rounds : t -> int
(** Rounds heard so far (0 in round 1). *)

val heard : t -> round:int -> int -> Msg.t
(** [heard t ~round p]: the message that arrived through port [p] in
    round [round], [1 <= round <= rounds t].
    @raise Invalid_argument on a round not heard yet. *)

val latest : t -> int -> Msg.t
(** [latest t p] = [heard t ~round:(rounds t) p]; [Silent] before
    anything was heard. *)

val bits : t -> port:int -> first:int -> width:int -> int * bool
(** [bits t ~port ~first ~width]: the 1-bit messages heard through
    [port] in rounds [first..first+width−1], read in place as a
    big-endian integer — how BCC(1) algorithms broadcast integers.
    Returns [(value, complete)]; a round outside 1..[rounds t] or a
    silent round reads as a 0 bit and makes [complete] false.
    @raise Invalid_argument on a heard word wider than 1 bit. *)

val to_array : t -> Msg.t array
(** The latest round by port, freshly allocated: what transcripts
    record. *)

val once : t -> 'a Type.Id.t -> (unit -> 'a) -> 'a
(** [once t key f]: common knowledge, computed once per board. The
    first view that asks runs [f ()]; every other view of the same board
    with the same rounds heard and the same {!shift} gets the stored
    value ({!Bcclb_engine.Topology.Board.once}). [f] is the caller's own
    per-vertex computation, read through its own view; the caller
    declares that every vertex would compute the same value — in BCC
    every broadcast reaches every vertex (§1.2), so this holds once the
    vertex has heard its algorithm's full schedule, and not before (a
    truncated view still knows its own neighbours before anyone else has
    heard them). Like [Algo.anonymous] this is a declaration that tests
    check, not something the types prove. Share only immutable values
    (a bool, an int, a labels array), never a union-find. Make [key]
    once per algorithm value ([Type.Id.make ()]). *)

val shift : t -> rounds:int -> t
(** The same view with its first [rounds] rounds dropped, so round 1 of
    the result is round [rounds + 1] of [t]: how a compiled algorithm
    hands its inner algorithm rounds numbered from its own start.
    @raise Invalid_argument if [t] has heard fewer rounds. *)
