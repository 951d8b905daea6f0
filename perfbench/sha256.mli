(** SHA-256 (FIPS 180-4), for pinning the digests of run outputs. *)

val hex : string -> string
(** Lower-case hex digest of the whole string. *)
