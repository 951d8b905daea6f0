type t = Unix_socket of string | Tcp of string * int

(* IPv6 literals are bracketed on the way out so that the printed form
   always parses back: the host part of "tcp:HOST:PORT" may not contain
   a bare ':'. *)
let to_string = function
  | Unix_socket path -> "unix:" ^ path
  | Tcp (host, port) ->
    if String.contains host ':' then Printf.sprintf "tcp:[%s]:%d" host port
    else Printf.sprintf "tcp:%s:%d" host port

let parse_port s what =
  match int_of_string_opt s with
  | Some port when port > 0 && port < 65536 -> Ok port
  | _ -> Error (Printf.sprintf "tcp address %S has a bad port" what)

(* "[v6]:port" — the only form in which a host may contain colons. *)
let parse_bracketed rest s =
  match String.index_opt rest ']' with
  | None -> Error (Printf.sprintf "tcp address %S has an unterminated '['" s)
  | Some j ->
    let host = String.sub rest 1 (j - 1) in
    let after = String.sub rest (j + 1) (String.length rest - j - 1) in
    if host = "" then Error (Printf.sprintf "tcp address %S has an empty host" s)
    else if String.length after < 2 || after.[0] <> ':' then
      Error (Printf.sprintf "tcp address %S has no port after the bracketed host" s)
    else
      Result.map
        (fun port -> Tcp (host, port))
        (parse_port (String.sub after 1 (String.length after - 1)) s)

let parse_plain rest s =
  match String.rindex_opt rest ':' with
  | None -> Error (Printf.sprintf "tcp address %S has no port" s)
  | Some j ->
    let host = String.sub rest 0 j in
    if String.contains host ':' then
      Error
        (Printf.sprintf
           "tcp address %S has a multi-colon host — bracket IPv6 literals as tcp:[%s]:PORT" s
           host)
    else
      Result.map
        (fun port -> Tcp (host, port))
        (parse_port (String.sub rest (j + 1) (String.length rest - j - 1)) s)

let of_string s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "address %S has no transport prefix" s)
  | Some i -> (
    let scheme = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match scheme with
    | "unix" -> if rest = "" then Error "empty unix socket path" else Ok (Unix_socket rest)
    | "tcp" ->
      if rest <> "" && rest.[0] = '[' then parse_bracketed rest s else parse_plain rest s
    | _ -> Error (Printf.sprintf "unknown transport %S (want unix: or tcp:)" scheme))

let is_ipv6_literal host = String.contains host ':'

let sockaddr = function
  | Unix_socket path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
    let ip =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
        | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ -> ip
        | _ -> failwith ("Addr: cannot resolve host " ^ host))
    in
    Unix.ADDR_INET (ip, port)

let domain = function
  | Unix_socket _ -> Unix.PF_UNIX
  | Tcp (host, _) -> if is_ipv6_literal host then Unix.PF_INET6 else Unix.PF_INET
