module Mclock = Bcclb_obs.Mclock

type outcome = { status : int; wall_s : float; cpu_s : float; peak_rss_kib : int }

external wait4 : int -> int * int * float * int = "perfbench_wait4"
external set_subreaper : unit -> unit = "perfbench_set_subreaper"

(* Kill the process group [pid] leads and reap every member; returns
   the CPU seconds and largest RSS of the reaped members. *)
let kill_and_reap pid =
  (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
  let rec reap cpu rss =
    match wait4 (-pid) with
    | 0, _, _, _ -> (cpu, rss)
    | _, _, c, r -> reap (cpu +. c) (max rss r)
  in
  reap 0.0 0

(* The child being waited for, 0 when none. *)
let running = ref 0

let init () =
  set_subreaper ();
  (* A bench stopped from outside takes its child and the child's
     workers with it. *)
  List.iter
    (fun signal ->
      Sys.set_signal signal
        (Sys.Signal_handle
           (fun _ ->
             if !running > 0 then ignore (kill_and_reap !running);
             exit 2)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ]

let run ~cwd ~env ~timeout_s ~stdout ~stderr prog args =
  flush_all ();
  let t0 = Mclock.now_ns () in
  let pid =
    match Unix.fork () with
    | 0 -> (
      try
        ignore (Unix.setsid ());
        Unix.chdir cwd;
        List.iter
          (fun (path, fd) ->
            let f = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
            Unix.dup2 f fd;
            Unix.close f)
          [ (stdout, Unix.stdout); (stderr, Unix.stderr) ];
        (* alarm(2) survives exec: the child's own deadline. *)
        ignore (Unix.alarm timeout_s);
        Unix.execve prog (Array.of_list (prog :: args)) env
      with _ -> Unix._exit 127)
    | pid -> pid
  in
  running := pid;
  let _, status, cpu_s, peak_rss_kib = wait4 pid in
  let wall_s = Mclock.ns_to_s (Mclock.now_ns () - t0) in
  (* The child led its own process group; whatever it left behind dies
     here and is reaped (re-parented to us by [init]). *)
  let left_cpu, left_rss = kill_and_reap pid in
  running := 0;
  { status; wall_s; cpu_s = cpu_s +. left_cpu; peak_rss_kib = max peak_rss_kib left_rss }
