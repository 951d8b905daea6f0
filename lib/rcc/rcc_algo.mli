(** Vertex algorithms for the range-parameterised congested clique
    RCC(b, r) of Becker et al. [Bec+16] (paper §1.3): at most [range]
    distinct non-silent messages per round, each of at most [bandwidth]
    bits. range = 1 is BCC(b); range = n−1 is CC(b). *)

type ('s, 'o) t = {
  name : string;
  bandwidth : n:int -> int;
  range : n:int -> int;
  rounds : n:int -> int;
  init : Bcclb_bcc.View.t -> 's;
  step : 's -> round:int -> inbox:Bcclb_bcc.Msg.t array -> 's * Bcclb_bcc.Msg.t array;
      (** One message per port (index = own port); the simulator rejects
          more than [range ~n] distinct non-silent values. *)
  finish : 's -> inbox:Bcclb_bcc.Msg.t array -> 'o;
}

type 'o packed = Packed : ('s, 'o) t -> 'o packed

val pack : ('s, 'o) t -> 'o packed

val distinct_messages : Bcclb_bcc.Msg.t array -> int
(** Number of distinct non-silent values (the quantity the range bounds). *)

val of_broadcast : 'o Bcclb_bcc.Algo.packed -> 'o packed
(** Embed a BCC(b) algorithm as a range-1 RCC algorithm. *)
