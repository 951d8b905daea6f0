(** A vertex algorithm for the BCC(b) model.

    All n vertices run the same code; a vertex's behaviour may depend only
    on its {!View.t} (initial knowledge) and the messages it has received.
    Round semantics follow §1.2: in round r a vertex has heard the
    broadcasts of rounds 1..r−1 ([inbox], read by port), computes, and
    broadcasts a message of at most [bandwidth ~n] bits; outputs are
    produced by [finish], whose inbox has heard every round. The inbox
    is a view of the run's shared board ({!Inbox}), so an algorithm
    reads earlier rounds from it instead of keeping its own history. *)

type ('s, 'o) t = {
  name : string;
  anonymous : bool;
      (** Declared ID-obliviousness: the algorithm's broadcasts (and hence
          its transcripts) never depend on [View.id] — only on port
          structure, received messages and public coins. On the circulant
          KT-0 instances of §3 this makes transcripts exactly
          rotation-equivariant, which is what licenses the orbit-reduced
          census paths: [code_{ρS}(v+c) = code_S(v)] for every rotation
          ρ : v ↦ v+c. A declaration, not something the type system checks
          — constructors must only set it for genuinely ID-free code. *)
  bandwidth : n:int -> int;  (** b; the simulator rejects wider messages. *)
  rounds : n:int -> int;  (** Declared round bound T(n). *)
  init : View.t -> 's;
  step : 's -> round:int -> inbox:Inbox.t -> 's * Msg.t;
      (** Rounds are numbered 1..T; [Inbox.latest inbox p] is the
          message that arrived through port [p] in round r−1 (all
          [Silent] in round 1), and [Inbox.heard] reaches every earlier
          round. *)
  finish : 's -> inbox:Inbox.t -> 'o;
      (** Final output; the inbox has heard rounds 1..T. What every
          vertex computes alike once it has heard the whole schedule
          (the input graph a discovery family rebuilds) may go through
          [Inbox.once], so one vertex computes it for the run and the
          others read it; the rest stays per vertex. *)
  truncates : ('s, 'o) t option;
      (** The algorithm this one is a truncation of ({!truncate}), so
          that {!deepen} can build other members of its family; [None]
          for any other construction. *)
}

type 'o packed = Packed : ('s, 'o) t -> 'o packed
(** Existentially hides the state type so heterogeneous algorithm
    families (e.g. all truncations of an optimal algorithm) can share a
    list. *)

val pack : ('s, 'o) t -> 'o packed

val name : 'o packed -> string

val anonymous : 'o packed -> bool
(** The declared {!field-anonymous} flag; gates the orbit-reduced census
    paths. *)

val bandwidth : 'o packed -> n:int -> int
val rounds : 'o packed -> n:int -> int

val bcc1 :
  name:string ->
  rounds:(n:int -> int) ->
  init:(View.t -> 's) ->
  step:('s -> round:int -> inbox:Inbox.t -> 's * Msg.t) ->
  finish:('s -> inbox:Inbox.t -> 'o) ->
  ('s, 'o) t
(** Convenience constructor with bandwidth fixed to 1 bit and
    [anonymous = false] (the safe declaration). *)

val declare_anonymous : ('s, 'o) t -> ('s, 'o) t
(** Assert ID-obliviousness (see {!field-anonymous}) — the caller's
    obligation, not something the type system verifies. *)

val map_output : ('o -> 'p) -> ('s, 'o) t -> ('s, 'p) t

val truncate : rounds:int -> ('s, 'o) t -> ('s, 'o) t
(** Run only the first [rounds] rounds, then decide from the truncated
    state — the family of t-round algorithms the lower-bound experiments
    quantify over. Only the name and the round bound change, and the
    untruncated algorithm is kept ({!field-truncates}). *)

val deepen : rounds:int -> 'o packed -> 'o packed option
(** [deepen ~rounds a] is [Some] of the [rounds]-round member of the
    family [a] truncates — [truncate ~rounds] of the same untruncated
    algorithm, with the same name that construction gives — or [None]
    if [a] is not a truncation. Members agree on every round both run:
    a vertex's broadcasts in rounds 1..t are the same under every member
    with at least t rounds (the prefix property the §3 census reads
    codes by). *)
