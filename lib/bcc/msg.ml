open Bcclb_util

type t = Silent | Word of Bits.t

let silent = Silent

let zero = Word (Bits.of_bool false)
let one = Word (Bits.of_bool true)

(* Every 1-bit emission is one of these two values: no allocation. *)
let of_bit b = if b then one else zero

let of_int ~width v = Word (Bits.of_int ~width v)

let width = function Silent -> 0 | Word b -> Bits.width b

let is_silent = function Silent -> true | Word _ -> false

let equal a b =
  match (a, b) with
  | Silent, Silent -> true
  | Word x, Word y -> Bits.equal x y
  | Silent, Word _ | Word _, Silent -> false

let compare a b =
  match (a, b) with
  | Silent, Silent -> 0
  | Silent, Word _ -> -1
  | Word _, Silent -> 1
  | Word x, Word y -> Bits.compare x y

(* Stable textual key; used to label edges with broadcast sequences when
   building the indistinguishability graph. "_" is the silent character,
   matching the paper's alphabet {0, 1, ⊥}. *)
let to_char1 = function
  | Silent -> '_'
  | Word b ->
    if Bits.width b <> 1 then invalid_arg "Msg.to_char1: message is not 1-bit";
    if Bits.to_bool b then '1' else '0'

(* Packed 2-bit code for the BCC(1) alphabet {0, 1, ⊥}: bit 0 is the
   "spoke" flag, bit 1 the value. 0b00 = silent, 0b10 = broadcast 0,
   0b11 = broadcast 1. Transcripts and edge labels pack these codes into
   machine words / Bits.Seq instead of building strings. *)
let code1 = function
  | Silent -> 0
  | Word b ->
    if Bits.width b <> 1 then invalid_arg "Msg.code1: message is not 1-bit";
    if Bits.to_bool b then 3 else 2

let char_of_code1 = function
  | 0 -> '_'
  | 2 -> '0'
  | 3 -> '1'
  | c -> invalid_arg (Printf.sprintf "Msg.char_of_code1: invalid code %d" c)

let to_string = function Silent -> "_" | Word b -> Bits.to_string b
