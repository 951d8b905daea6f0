module H = Bcclb_harness

(* The stall deadline is env-overridable so CI fault smokes can shorten
   it without new CLI surface; a typo must fail, not wait ten minutes. *)
let cell_timeout_env = "BCCLB_DIST_CELL_TIMEOUT"

let cell_timeout_of_env default =
  match Option.map String.trim (Sys.getenv_opt cell_timeout_env) with
  | None | Some "" -> Ok default
  | Some s -> (
    match float_of_string_opt s with
    | Some f when Float.is_finite f && f > 0.0 -> Ok f
    | _ ->
      Error (Printf.sprintf "%s=%S is not a positive number of seconds" cell_timeout_env s))

let spawn_argv argv () =
  let ours, theirs = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* Workers inherit stderr but must never write to the coordinator's
     stdout — that stream is the byte-identical report — so their stdout
     is pointed at stderr. *)
  match Unix.create_process argv.(0) argv theirs Unix.stderr Unix.stderr with
  | pid ->
    Unix.close theirs;
    (pid, ours)
  | exception e ->
    Unix.close theirs;
    Unix.close ours;
    raise e

let install ?(cell_timeout = 600.0) ~spawn () =
  Result.map
    (fun cell_timeout ->
      H.Runner.set_procs_runner (fun ~workers ~cache ~cells ->
          Coordinator.run { Coordinator.workers; cell_timeout; spawn } ~cache ~cells))
    (cell_timeout_of_env cell_timeout)
