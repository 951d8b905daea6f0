(** A single round's broadcast in the BCC(b) model: either silence (⊥) or
    a word of at most b bits. In BCC(1) the per-round alphabet is exactly
    the paper's {0, 1, ⊥}. *)

type t = Silent | Word of Bcclb_util.Bits.t

val silent : t

val zero : t
(** 1-bit 0. *)

val one : t
(** 1-bit 1. *)

val of_bit : bool -> t
(** {!zero} or {!one} themselves: allocates nothing. *)

val of_int : width:int -> int -> t

val width : t -> int
(** 0 for silence. *)

val is_silent : t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int

val to_char1 : t -> char
(** ['0'], ['1'], or ['_'] for a BCC(1) message.
    @raise Invalid_argument on wider words. *)

val code1 : t -> int
(** Packed 2-bit code of a BCC(1) message: 0 = ⊥, 2 = "0", 3 = "1"
    (bit 0 = spoke, bit 1 = value). The unit of the packed broadcast
    sequences. @raise Invalid_argument on wider words. *)

val char_of_code1 : int -> char
(** ['_'], ['0'], ['1'] for a 2-bit code — [to_char1] without the
    intermediate message. @raise Invalid_argument on invalid codes. *)

val to_string : t -> string
