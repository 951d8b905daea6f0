(** Worker-facing endpoint addresses.

    The coordinator prints one of these into each worker's command line
    ([unix:/tmp/....sock] or [tcp:127.0.0.1:PORT]) — or, in roster mode,
    parses the ones the operator passed to [--workers] and dials out.
    Unix-domain sockets are the default transport — no ports to collide,
    file permissions for free; TCP is what crosses machines. IPv6
    literals are written bracketed, [tcp:\[::1\]:7501], so the host part
    of the printed form never contains a bare colon; {!of_string}
    rejects unbracketed multi-colon hosts with a message that names the
    bracket syntax. *)

type t = Unix_socket of string | Tcp of string * int

val to_string : t -> string
(** ["unix:<path>"] / ["tcp:<host>:<port>"], with the host bracketed
    when it is an IPv6 literal: ["tcp:[::1]:7501"]. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; [Error] explains the malformation.
    Accepts ["tcp:[::1]:7501"] bracket syntax; an unbracketed host
    containing more than one colon is refused rather than mis-split. *)

val roster_to_string : t list -> string
val roster_of_string : string -> (t list, string) result
(** Comma-separated address lists — the [--workers tcp:h:p,…] roster
    syntax. Blank items are skipped; an empty roster is an error. *)

val sockaddr : t -> Unix.sockaddr
(** @raise Failure when a TCP host does not resolve. *)

val domain : t -> Unix.socket_domain
(** [PF_UNIX] / [PF_INET], or [PF_INET6] for IPv6-literal hosts. *)
