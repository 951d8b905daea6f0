(** Broadcast-sequence labels of vertices and directed edges under a
    deterministic BCC(1) algorithm (§3.1): the raw material of the
    indistinguishability graph. Labels are strings over {'0','1','_'}
    ({!Bcclb_bcc.Transcript.sent_string}). *)

val sent_codes : ?seed:int -> 'o Bcclb_bcc.Algo.packed -> n:int -> Bcclb_graph.Cycles.t -> int array
(** Per-vertex packed broadcast codes (2 bits per round, LSB-first,
    {!Bcclb_bcc.Msg.code1} alphabet) — the machine-word labels the fast
    indistinguishability paths compare. Requires a codable algorithm
    ({!Arena.codable}). *)

val string_of_code : rounds:int -> int -> string
(** Decode a packed code to the {'0','1','_'} presentation string. *)

val code_of_string : string -> int
(** Inverse of {!string_of_code}. @raise Invalid_argument off-alphabet. *)

val sent_strings : ?seed:int -> 'o Bcclb_bcc.Algo.packed -> n:int -> Bcclb_graph.Cycles.t -> string array
(** Per-vertex broadcast strings after running the algorithm on the
    structure's canonical instance. A thin decoded view of
    {!sent_codes} when the algorithm is codable; transcript-derived
    otherwise. *)

val sent_strings_legacy :
  ?seed:int -> 'o Bcclb_bcc.Algo.packed -> n:int -> Bcclb_graph.Cycles.t -> string array
(** Always the full-simulation path: per-port traffic capture and
    transcript construction, as the pre-arena implementation did it.
    The reference {!Indist_graph} builders use this, so parity tests
    and bench comparisons measure genuine pre-refactor behaviour. *)

val edge_labels :
  string array -> Bcclb_graph.Cycles.t -> ((int * int) * (string * string)) list
(** Directed edges along each cycle's stored orientation with their
    (head-string, tail-string) labels. *)

val most_frequent_label : (string * string, int) Hashtbl.t -> string * string
(** Ties broken lexicographically. @raise Invalid_argument if empty. *)

val largest_active_set : ?seed:int -> 'o Bcclb_bcc.Algo.packed -> n:int -> Bcclb_graph.Cycles.t -> int
(** Size of the largest same-label edge class in one instance; the
    pigeonhole lower bound of §3 says ≥ n/3^{2t} after t rounds. *)
