(** Fixed-width bit words of at most 62 bits.

    These are the payloads of BCC(b) broadcasts: a round's message is
    either silence or a word of at most [b] bits. Width is part of the
    value, so a 2-bit "01" differs from a 1-bit "1" — transcripts compare
    exactly. *)

type t

val max_width : int
(** 62: words live in a native [int]. *)

val make : width:int -> value:int -> t
(** @raise Invalid_argument if width is out of range or value does not fit. *)

val width : t -> int
val value : t -> int

val bit : t -> int -> bool
(** [bit t i] is bit [i], least significant first.
    @raise Invalid_argument out of range. *)

val of_bool : bool -> t
(** 1-bit word. *)

val to_bool : t -> bool
(** @raise Invalid_argument if width ≠ 1. *)

val of_int : width:int -> int -> t

val append : t -> t -> t
(** [append a b] concatenates, [a] in the low bits.
    @raise Invalid_argument if the result exceeds {!max_width}. *)

val slice : t -> pos:int -> len:int -> t
(** Sub-word starting at bit [pos]. @raise Invalid_argument out of range. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val to_string : t -> string
(** Most significant bit first, e.g. ["0110"]. *)

val of_string : string -> t
(** Inverse of {!to_string}. @raise Invalid_argument on other characters. *)

(** Growable packed bit sequences of unbounded length — the backing store
    of BCC transcripts. Bytes-backed, LSB-first within bytes, amortised
    O(1) append; [equal]/[compare]/[hash] run bytewise over the packed
    words, never per-bit, so comparing two T-round transcripts costs
    O(T/8) instead of O(T) character compares. *)
module Seq : sig
  type seq

  val create : ?capacity:int -> unit -> seq
  (** Fresh empty sequence; [capacity] is a bit-count growth hint. *)

  val length : seq -> int
  val copy : seq -> seq

  val append_bit : seq -> bool -> unit

  val append : seq -> t -> unit
  (** Append a fixed word, its low bit first. *)

  val append_word : seq -> width:int -> value:int -> unit
  (** [append] without constructing the word.
      @raise Invalid_argument as {!make}. *)

  val get : seq -> int -> bool
  (** Bit [i], lowest (earliest appended) first. @raise Invalid_argument. *)

  val word : seq -> pos:int -> len:int -> t
  (** Read back [len] ≤ 62 bits starting at [pos] as a fixed word.
      @raise Invalid_argument out of range. *)

  val slice : seq -> pos:int -> len:int -> seq

  val equal : seq -> seq -> bool
  val compare : seq -> seq -> int

  val hash : seq -> int
  (** FNV-1a over the packed bytes; equal sequences hash equally. *)

  val to_packed_string : seq -> string
  (** The used bytes verbatim (LSB-first packing, zero-padded tail bit).
      Equal-length sequences are equal iff their packed strings are, so
      fixed-layout packed keys (e.g. variable-width census keys) can use
      the result directly as a hash-table key. *)

  val of_packed_string : len:int -> string -> seq
  (** Inverse of {!to_packed_string} given the bit length.
      @raise Invalid_argument if the byte count does not match [len] or
      bits beyond [len] are set. *)

  val to_string : seq -> string
  (** Most significant (last appended) bit first, matching {!Bits.to_string}. *)

  val of_string : string -> seq

  val of_bits : t -> seq
end
