(** Endpoint addresses: [unix:PATH] or [tcp:HOST:PORT].

    The coordinator prints its worker socket ([unix:/tmp/....sock]) into
    each spawned worker's command line, and [--metrics-addr] /
    [stats --follow] take either form, TCP being what a Prometheus
    scraper on another machine can reach. IPv6 literals are written
    bracketed, [tcp:\[::1\]:7501], so the host part of the printed form
    never contains a bare colon; {!of_string} rejects unbracketed
    multi-colon hosts with a message that names the bracket syntax. *)

type t = Unix_socket of string | Tcp of string * int

val to_string : t -> string
(** ["unix:<path>"] / ["tcp:<host>:<port>"], with the host bracketed
    when it is an IPv6 literal: ["tcp:[::1]:7501"]. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; [Error] explains the malformation.
    Accepts ["tcp:[::1]:7501"] bracket syntax; an unbracketed host
    containing more than one colon is refused rather than mis-split. *)

val sockaddr : t -> Unix.sockaddr
(** @raise Failure when a TCP host does not resolve. *)

val domain : t -> Unix.socket_domain
(** [PF_UNIX] / [PF_INET], or [PF_INET6] for IPv6-literal hosts. *)
