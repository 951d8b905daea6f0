(** Message-exchange topologies for {!Engine.run}: from one round's
    emissions (indexed by vertex) to the next round's inboxes. *)

type ('emit, 'inbox) t = round:int -> prev:'inbox array -> 'emit array -> 'inbox array
(** [exchange ~round ~prev emits] builds the inboxes consumed in round
    [round + 1]; [prev] is the inboxes consumed in round [round] (the
    cumulative topology and the board need it). *)

(** A run's broadcast history: one array per round, stored as posted,
    and a memo of the values computed from it. *)
module Board : sig
  type memo
  (** Values stored by {!once}, with their hit and miss counts. *)

  type 'msg t = private { mutable posts : 'msg array array; mutable rounds : int; memo : memo }
  (** [posts.(r - 1)] is the array posted for round [r], for [r] up to
      [rounds]; later slots are unused. Readable in place, so views read
      it without a call per message; only {!post} writes it. *)

  val create : unit -> 'msg t
  (** An empty board with an empty memo. *)

  val post : 'msg t -> 'msg array -> unit
  (** Append the next round's array. The board keeps the array itself,
      not a copy: the poster must not mutate it afterwards. *)

  val once : 'msg t -> 'a Type.Id.t -> shift:int -> (unit -> 'a) -> 'a
  (** [once t key ~shift f]: the value stored under [key] at the
      board's current round count and [shift], computed by [f ()] and
      stored on the first request (a miss) and returned as stored to
      every later one (a hit). Nothing is stored if [f] raises. A board
      belongs to one run on one domain, so there is no lock. *)

  val shared : 'msg t -> int * int
  (** [(misses, hits)] of {!once} on this board so far. *)
end

val board : 'msg Board.t -> ('msg, 'inbox) t
(** The BCC model (§1.2) on one shared board: every emission reaches
    every other vertex, so a round's emissions array (indexed by sender)
    is posted once and the inboxes stay what they were — views that read
    the board through each vertex's port→sender map. *)

val broadcast : n:int -> peer:(int -> int -> int) -> ('msg, 'msg array) t
(** The BCC model as per-vertex copies: [inbox.(v).(p)] is the broadcast
    of [peer v p], n×(n−1) slots per round. No simulator uses it; it is
    the subject of the [engine.round_loop] and [engine.exchange*]
    benchmark kernels. *)

val unicast : n:int -> peer:(int -> int -> int) -> port_to:(int -> int -> int) -> ('msg array, 'msg array) t
(** The RCC / per-port model: each vertex emits one message per port;
    vertex [u] hears on port [q] what [peer u q] sent through its port
    toward [u] ([port_to v u]). *)

val two_party : ('msg, 'msg list) t
(** Two parties with simultaneous exchange and cumulative inboxes: each
    party's inbox is the reversed history of the other party's messages
    (newest first). @raise Invalid_argument unless exactly 2 parties. *)
