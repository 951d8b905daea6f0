module H = Bcclb_harness

(* Timeout knobs are env-overridable so CI fault smokes can shorten the
   stall deadline without new CLI surface. *)
let env_float var default =
  match Sys.getenv_opt var with
  | None -> default
  | Some s -> ( match float_of_string_opt (String.trim s) with Some f when f > 0.0 -> f | _ -> default)

let cell_timeout_env = "BCCLB_DIST_CELL_TIMEOUT"
let heartbeat_timeout_env = "BCCLB_DIST_HEARTBEAT_TIMEOUT"

let spawn_argv argv_of_address ~address =
  let argv = argv_of_address address in
  (* Workers inherit stderr but must never write to the coordinator's
     stdout — that stream is the byte-identical report — so their stdout
     is pointed at stderr. *)
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close devnull)
    (fun () -> Unix.create_process argv.(0) argv devnull Unix.stderr Unix.stderr)

let install ?transport ?heartbeat_interval ?heartbeat_timeout ?cell_timeout ?max_retries
    ?lease_target_seconds ~spawn () =
  let heartbeat_timeout =
    Some (env_float heartbeat_timeout_env (Option.value heartbeat_timeout ~default:30.0))
  in
  let cell_timeout =
    Some (env_float cell_timeout_env (Option.value cell_timeout ~default:600.0))
  in
  H.Runner.set_procs_runner (fun ~roster ~cache ~cells ->
      let c =
        match roster with
        | `Local workers ->
          Coordinator.config ?transport ?heartbeat_interval ?heartbeat_timeout ?cell_timeout
            ?max_retries ?lease_target_seconds ~spawn ~workers ()
        | `Remote entries ->
          let remotes =
            List.map
              (fun s ->
                match Addr.of_string s with
                | Ok a -> a
                | Error e -> failwith ("dist: --workers roster: " ^ e))
              entries
          in
          Coordinator.config ?transport ?heartbeat_interval ?heartbeat_timeout ?cell_timeout
            ?max_retries ?lease_target_seconds ~remotes ~spawn
            ~workers:(List.length remotes) ()
      in
      Coordinator.run c ~cache ~cells)
