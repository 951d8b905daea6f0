(** Broadcast-sequence labels of vertices and directed edges under a
    deterministic BCC(1) algorithm (§3.1): the raw material of the
    indistinguishability graph. Labels are strings over {'0','1','_'}
    ({!Bcclb_bcc.Transcript.sent_string}). *)

val string_of_code : rounds:int -> int -> string
(** Decode a packed code to the {'0','1','_'} presentation string. *)

val code_of_string : string -> int
(** Inverse of {!string_of_code}. @raise Invalid_argument off-alphabet. *)

val sent_strings : ?seed:int -> 'o Bcclb_bcc.Algo.packed -> n:int -> Bcclb_graph.Cycles.t -> string array
(** Per-vertex broadcast strings after running the algorithm on the
    structure's canonical instance: a decoded view of the packed codes
    {!Indist_graph} compares.
    @raise Invalid_argument, naming the limit, for an algorithm that
    {!Arena.require_codable} refuses. *)

val edge_labels :
  string array -> Bcclb_graph.Cycles.t -> ((int * int) * (string * string)) list
(** Directed edges along each cycle's stored orientation with their
    (head-string, tail-string) labels. *)

val largest_active_set : ?seed:int -> 'o Bcclb_bcc.Algo.packed -> n:int -> Bcclb_graph.Cycles.t -> int
(** Size of the largest same-label edge class in one instance; the
    pigeonhole lower bound of §3 says ≥ n/3^{2t} after t rounds. *)
