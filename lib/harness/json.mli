(** Minimal JSON for the harness: a deterministic printer (JSONL rows,
    the run manifest, bench reports — stable key order is the caller's,
    floats round-trip) plus a small strict parser, used by the
    [experiments stats] subcommand to read manifests back and by tests
    to round-trip the Chrome trace output. The cache itself still uses
    checksummed [Marshal] payloads, not JSON. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Compact by default; [~pretty:true] indents with two spaces (used for
    the run manifest so it is grep-able line by line). Non-finite floats
    print as [null]. *)

val write_file : ?pretty:bool -> string -> t -> unit
(** Atomic write of [to_string] plus a trailing newline. *)

val of_string : string -> t
(** Strict recursive-descent parse of one JSON value (surrounding
    whitespace allowed, nothing after it). Numbers without [.]/[e] that
    fit an [int] parse as [Int], all others as [Float]; [\uXXXX] escapes
    decode to UTF-8.
    @raise Failure with a position-annotated message on malformed
    input. *)

(** Accessors for walking parsed documents; [None] on shape mismatch. *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the value bound to [k]. *)

val to_list_opt : t -> t list option
val to_float_opt : t -> float option
(** [Int]s widen to float. *)

val to_int_opt : t -> int option
val to_str_opt : t -> string option
