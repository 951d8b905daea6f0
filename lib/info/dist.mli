(** Finite probability distributions (normalised weight tables) — the μ
    of Yao's minimax arguments and of the Theorem 4.5 hard distribution. *)

type 'a t

val of_weighted : ('a * float) list -> 'a t
(** Normalise; repeated atoms accumulate.
    @raise Invalid_argument on negative weights or zero total. *)

val uniform : 'a list -> 'a t
(** Uniform over the multiset (duplicates accumulate). *)

val prob : 'a t -> 'a -> float
(** 0 outside the support. *)

val size : 'a t -> int

val fold : ('a -> float -> 'b -> 'b) -> 'a t -> 'b -> 'b

val map_support : ('a -> 'b) -> 'a t -> 'b t
(** Pushforward distribution (non-injective maps accumulate mass). *)

val total : 'a t -> float
(** 1.0 up to rounding; exposed for tests. *)
