(** The transcript of a vertex after T rounds (§1.2): everything it
    broadcast, everything it heard per port, and its initial knowledge.
    In BCC every vertex hears every broadcast, so a run's one board
    ({!Inbox.board}) holds every transcript, and a transcript is a view
    of it through the vertex's wiring: it copies no traffic, and the
    initial knowledge is read off the instance only when asked.

    Two instances are indistinguishable after T rounds of an algorithm
    iff every vertex has {!equal} transcripts in both — the relation of
    Lemma 3.4 at the heart of §3. *)

type t

val of_board : Inbox.board -> Instance.t -> int -> t
(** [of_board board inst v]: vertex [v]'s transcript of the run on
    [inst] whose broadcasts [board] holds, over the rounds posted so
    far. Shares the board and reads [v]'s senders through
    {!Instance.port_row}. *)

val rounds : t -> int

val sent : t -> int -> Msg.t
(** [sent t r]: the vertex's round-[r] broadcast, rounds numbered from
    1. @raise Invalid_argument on a round outside 1..[rounds t]. *)

val received : t -> int -> int -> Msg.t
(** [received t r p]: what port [p] delivered into the vertex's round-[r]
    step, i.e. the round-(r−1) broadcast of the sender behind [p];
    silent at r = 1, when nothing has been sent yet.
    @raise Invalid_argument on a round outside 1..[rounds t] or a bad
    port. *)

val knowledge : t -> View.t
(** The vertex's coin-free initial knowledge ({!Instance.view}), built
    on each call. *)

val sent_string : t -> string
(** BCC(1) broadcast sequence over the alphabet {'0','1','_'}, one
    {!Msg.to_char1} per round — the strings x, y that label edges in
    Definition 3.6. @raise Invalid_argument if some message is wider
    than 1 bit. *)

val equal : t -> t -> bool
(** The relation, exactly: [equal a b] holds iff
    - [a] and [b] have the same round count T and port count;
    - the vertex starts with the same knowledge in both ({!knowledge}
      equal but for the coins, compared without building it:
      {!Instance.same_knowledge});
    - [sent a r] equals [sent b r] for r = 1..T;
    - [received a r p] equals [received b r p] for r = 1..T and every
      port p.

    Messages compare by width and value, so a 0-bit word equals silence.
    The round-T broadcasts are compared only as the senders' own [sent]:
    what a vertex hears through its ports in round T reaches its
    [finish] but is no [received] entry, so two runs can be equal here
    while some vertex hears a different round-T message through a port,
    and so outputs differently. Costs O(T·ports) message compares. *)

val bits_broadcast : t -> int
(** Total bits this vertex broadcast (silence counts 0). *)
