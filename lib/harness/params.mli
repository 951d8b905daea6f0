(** Canonicalised experiment-cell parameters.

    A parameter set is a sorted, duplicate-free association of scalar
    values; {!canonical} is an injective textual encoding of it (type
    tags, hex floats), which is what the {!Cache} hashes — so a cache key
    depends only on the experiment id + version, the parameter values,
    and nothing else (in particular not on [BCCLB_NUM_DOMAINS] or cell
    scheduling). *)

type value = Int of int | Float of float | Bool of bool | Str of string

type t = private (string * value) list
(** Sorted by key; construct with {!v}. *)

val v : (string * value) list -> t
(** Sorts the bindings by key.
    @raise Invalid_argument on duplicate keys or a key containing ['='],
    [';'] or a newline (they would break the canonical encoding). *)

val find_opt : t -> string -> value option

val int : t -> string -> int
(** @raise Invalid_argument when missing or not an [Int]; same pattern
    for {!float} and {!str}. *)

val float : t -> string -> float
val str : t -> string -> string

val value_to_display : value -> string
(** Human rendering: plain decimal floats, unquoted strings. *)

val canonical : t -> string
(** ["algo=s:3:opt;n=i:7;t=f:0x1p-1"]-style injective encoding: keys in
    sorted order, every value tagged with its type, floats in lossless
    hexadecimal. Equal parameter sets encode equally; distinct ones
    differ. *)

val to_json_fields : t -> (string * Json.t) list

val equal : t -> t -> bool
