(* Span tracer. Completed spans append to one mutex-guarded in-memory
   buffer (tracing-on runs are diagnostic, not benchmarked); the
   disabled path is a single ref read. Timestamps come from Mclock so
   spans, Observer.round_timer and the pool histograms all share one
   clock.

   Spans form a tree: every span gets a process-unique id and records
   the id of the innermost span open on its domain (its parent). The
   tree extends across processes: a [context] — trace id plus parent
   span id — travels over the dist wire, remote children buffer in
   [collect] mode with raw monotonic timestamps, and the coordinator
   {!ingest}s the shipped events onto its own timeline. Its workers are
   processes it spawned on the same host, so both read the one
   system-wide CLOCK_MONOTONIC (Mclock) and a raw worker timestamp
   needs no offset. Each process keeps its own pid lane in the merged
   Perfetto timeline. *)

type event = {
  name : string;
  attrs : (string * string) list;
  pid : int;  (* 0 while buffered locally; stamped by drain/export *)
  tid : int;  (* domain id *)
  id : int;  (* process-unique span id, see [fresh_id] *)
  parent : int;  (* id of the enclosing span, 0 for roots *)
  start_ns : int;  (* relative to trace start ([collect] mode: raw monotonic) *)
  dur_ns : int;
  depth : int;  (* per-domain nesting depth at entry *)
}

type context = { trace_id : string; parent_span : int }

type sink = File of string | Buffer_only

type state = {
  sink : sink;
  trace_id : string;
  t0 : int;
  mutable events : event list;
  mutable count : int;
  lock : Mutex.t;
}

let current : state option ref = ref None

(* Stack of open span ids on this domain; depth is its length. *)
let stack_key = Domain.DLS.new_key (fun () -> [])

(* Span ids must stay unique after cross-process merge, so the pid is
   baked into the high bits (Linux pids fit 2^22; OCaml ints hold 63
   bits, so pid lsl 32 is safe) and a process-wide counter fills the
   low 32. 0 is reserved for "no parent". *)
let seq = Atomic.make 0

let fresh_id () = (Unix.getpid () lsl 32) lor ((Atomic.fetch_and_add seq 1 + 1) land 0xFFFFFFFF)

let enabled () = Option.is_some !current

let event_count () = match !current with None -> 0 | Some st -> st.count

let gen_trace_id () =
  Printf.sprintf "%06x%010x" (Unix.getpid () land 0xFFFFFF)
    (Mclock.now_ns () land 0xFFFFFFFFFF)

let start ?trace_id ~file () =
  let trace_id = match trace_id with Some id -> id | None -> gen_trace_id () in
  current :=
    Some
      { sink = File file;
        trace_id;
        t0 = Mclock.now_ns ();
        events = [];
        count = 0;
        lock = Mutex.create () }

let start_collect ~trace_id () =
  current :=
    Some
      { sink = Buffer_only; trace_id; t0 = 0; events = []; count = 0; lock = Mutex.create () }

let trace_id () = Option.map (fun st -> st.trace_id) !current

let context () =
  match !current with
  | None -> None
  | Some st ->
    let parent_span = match Domain.DLS.get stack_key with [] -> 0 | id :: _ -> id in
    Some { trace_id = st.trace_id; parent_span }

let record st ev =
  Mutex.lock st.lock;
  st.events <- ev :: st.events;
  st.count <- st.count + 1;
  Mutex.unlock st.lock

let span ?parent ?(attrs = []) name f =
  match !current with
  | None -> f ()
  | Some st ->
    let stack = Domain.DLS.get stack_key in
    let parent_id, attrs =
      match parent with
      | Some ctx -> (ctx.parent_span, ("trace_id", ctx.trace_id) :: attrs)
      | None -> ( (match stack with [] -> 0 | id :: _ -> id), attrs)
    in
    let id = fresh_id () in
    let d = List.length stack in
    Domain.DLS.set stack_key (id :: stack);
    let t_start = Mclock.now_ns () in
    let finish () =
      let dur_ns = Mclock.now_ns () - t_start in
      Domain.DLS.set stack_key stack;
      record st
        { name;
          attrs;
          pid = 0;
          tid = (Domain.self () :> int);
          id;
          parent = parent_id;
          start_ns = t_start - st.t0;
          dur_ns;
          depth = d }
    in
    Fun.protect ~finally:finish f

(* ---- cross-process merge ---- *)

let drain () =
  match !current with
  | None -> []
  | Some st ->
    Mutex.lock st.lock;
    let events = st.events in
    st.events <- [];
    st.count <- 0;
    Mutex.unlock st.lock;
    let pid = Unix.getpid () in
    List.rev_map (fun ev -> if ev.pid = 0 then { ev with pid } else ev) events

let ingest events =
  match !current with
  | None -> ()
  | Some st ->
    let shifted =
      List.map (fun ev -> { ev with start_ns = max 0 (ev.start_ns - st.t0) }) events
    in
    Mutex.lock st.lock;
    st.events <- List.rev_append shifted st.events;
    st.count <- st.count + List.length shifted;
    Mutex.unlock st.lock

(* ---- exporters ---- *)

let jsonl_path file =
  if Filename.check_suffix file ".json" then Filename.chop_suffix file ".json" ^ ".jsonl"
  else file ^ ".jsonl"

(* Minimal JSON string escaping (obs sits below the harness, so it
   cannot use Bcclb_harness.Json). *)
let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_str buf s =
  Buffer.add_char buf '"';
  escape buf s;
  Buffer.add_char buf '"'

let add_attrs buf attrs =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      add_str buf k;
      Buffer.add_char buf ':';
      add_str buf v)
    attrs;
  Buffer.add_char buf '}'

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)

(* Chrome trace_event JSON: complete ("ph":"X") events, ts/dur in
   microseconds. Perfetto infers nesting from overlapping X events on
   the same (pid, tid) track; ingested remote spans keep their own pid
   and so render as one lane per worker. *)
let chrome_json events =
  let self = Unix.getpid () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char buf ',';
      let pid = if ev.pid = 0 then self else ev.pid in
      Buffer.add_string buf "\n{\"name\":";
      add_str buf ev.name;
      Buffer.add_string buf ",\"cat\":\"bcclb\",\"ph\":\"X\",\"ts\":";
      Buffer.add_string buf (Printf.sprintf "%.3f" (float_of_int ev.start_ns /. 1e3));
      Buffer.add_string buf ",\"dur\":";
      Buffer.add_string buf (Printf.sprintf "%.3f" (float_of_int ev.dur_ns /. 1e3));
      Buffer.add_string buf (Printf.sprintf ",\"pid\":%d,\"tid\":%d,\"args\":" pid ev.tid);
      add_attrs buf ev.attrs;
      Buffer.add_char buf '}')
    events;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let jsonl events =
  let self = Unix.getpid () in
  let buf = Buffer.create 4096 in
  List.iter
    (fun ev ->
      let pid = if ev.pid = 0 then self else ev.pid in
      Buffer.add_string buf "{\"name\":";
      add_str buf ev.name;
      Buffer.add_string buf
        (Printf.sprintf
           ",\"start_ns\":%d,\"dur_ns\":%d,\"pid\":%d,\"tid\":%d,\"id\":%d,\"parent\":%d,\"depth\":%d,\"attrs\":"
           ev.start_ns ev.dur_ns pid ev.tid ev.id ev.parent ev.depth);
      add_attrs buf ev.attrs;
      Buffer.add_string buf "}\n")
    events;
  Buffer.contents buf

let sorted_events st =
  (* Start-time order, ties broken by pid, then domain, then
     deeper-first so a parent precedes the children it started at the
     same tick. *)
  List.sort
    (fun a b ->
      match compare a.start_ns b.start_ns with
      | 0 -> (
        match compare a.pid b.pid with
        | 0 -> ( match compare a.tid b.tid with 0 -> compare a.depth b.depth | c -> c)
        | c -> c)
      | c -> c)
    st.events

let stop () =
  match !current with
  | None -> ()
  | Some st -> (
    current := None;
    match st.sink with
    | Buffer_only -> ()
    | File file ->
      let events = sorted_events st in
      write_file file (chrome_json events);
      write_file (jsonl_path file) (jsonl events))
