(** Reflected IEEE-802.3 CRC-32 (zlib/PNG polynomial), 32-bit values in
    native ints. Shared by the dist wire frames and the arena orbit
    store's file — one checksum implementation for every on-disk and
    on-socket byte boundary in the repository. *)

val string : string -> int
val string_sub : string -> int -> int -> int
(** [string_sub s pos len]. @raise Invalid_argument out of range. *)
