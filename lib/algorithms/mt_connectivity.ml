open Bcclb_bcc
open Bcclb_graph
open Bcclb_sketch
open Bcclb_detsketch

(* Deterministic connectivity via syndrome sketches (Montealegre–Todinca
   style): see the .mli for the protocol story. The implementation keeps
   the public knowledge — an edge-status table over the coordinate
   universe plus a Conn structure over the known edges — in every
   vertex's state and advances it with the IDENTICAL replayed decode at
   each phase boundary, so all vertices stay in lockstep without any
   extra communication. *)

type params = { s0 : int; phases : int; bandwidth : int }

let field ~n = Gfp.for_universe ~universe:(Edge_coding.universe ~n)
let element_bits ~n = Gfp.element_bits (field ~n)
let default_params ~n = { s0 = 4; phases = 2; bandwidth = element_bits ~n }

let check_params params =
  if params.s0 < 1 then invalid_arg "Mt_connectivity: s0 must be positive";
  if params.phases < 1 then invalid_arg "Mt_connectivity: need at least one phase";
  Chunked.check_bandwidth "Mt_connectivity" params.bandwidth

let sparsity params k = params.s0 lsl k
let elements_of params k = Syndrome.elements_for ~s:(sparsity params k)
let payload_bits ~n params k = elements_of params k * element_bits ~n

let rounds_of_phase ~n params k =
  Chunked.rounds ~bits:(payload_bits ~n params k) ~bandwidth:params.bandwidth

let sum_over_phases params f =
  let acc = ref 0 in
  for k = 0 to params.phases - 1 do
    acc := !acc + f k
  done;
  !acc

let syndrome_bits ~n params = sum_over_phases params (payload_bits ~n params)
let total_rounds ~n params = sum_over_phases params (rounds_of_phase ~n params)

let index_of_id all_ids id =
  let rec go lo hi =
    if lo >= hi then invalid_arg "Mt_connectivity: unknown id"
    else begin
      let mid = (lo + hi) / 2 in
      if all_ids.(mid) = id then mid else if all_ids.(mid) < id then go (mid + 1) hi else go lo mid
    end
  in
  go 0 (Array.length all_ids)

(* Public edge status, replayed identically everywhere. *)
let unknown = '\000'
let edge = '\001'
let nonedge = '\002'

type state = {
  view : View.t;
  params : params;
  field : Gfp.t;
  me : int;
  incident : bool array;  (* my private incidence, by vertex index *)
  status : Bytes.t;  (* public, by edge coordinate *)
  conn : Conn.t;  (* public components of the known-edge graph *)
  heard : Buffer.t array;  (* current phase's bits, per port *)
  mutable phase : int;
  mutable phase_start : int;  (* rounds before the current phase *)
  mutable own_bits : string;  (* current phase's payload *)
}

(* My residual syndrome: incident edges whose status is still publicly
   unknown. The min endpoint of an edge carries weight +1, the max −1 —
   the signing that makes component sums cancel internal edges. *)
let build_payload st =
  let n = View.n st.view in
  let t = Syndrome.create ~field:st.field ~r:(elements_of st.params st.phase) in
  Array.iteri
    (fun u inc ->
      if inc then begin
        let coord = Edge_coding.encode ~n st.me u in
        if Bytes.get st.status coord = unknown then
          Syndrome.add t ~coord ~weight:(if st.me < u then 1 else -1)
      end)
    st.incident;
  Syndrome.to_bits t

(* The replayed public decode of one phase, given everyone's residual
   syndromes. Learning an edge subtracts it from both endpoints' working
   syndromes (they counted it as residual at phase start), which can
   unlock decodes that were over budget — the peeling cascade. *)
let process_phase st syn =
  let n = View.n st.view in
  let s_k = sparsity st.params st.phase in
  let changed = ref false in
  let learn_edge coord =
    if Bytes.get st.status coord = unknown then begin
      Bytes.set st.status coord edge;
      let u, v = Edge_coding.decode ~n coord in
      ignore (Conn.union st.conn u v);
      Syndrome.add syn.(u) ~coord ~weight:(-1);
      Syndrome.add syn.(v) ~coord ~weight:1;
      changed := true
    end
  in
  let learn_nonedge coord =
    if Bytes.get st.status coord = unknown then begin
      Bytes.set st.status coord nonedge;
      changed := true
    end
  in
  (* Decode a syndrome against its candidate coordinates; on a verified
     decode, every candidate's status becomes public (in the support →
     edge, absent → non-edge). [expected_sign] guards the ±1 coefficient
     pattern of incidence sums; any deviation voids the whole decode. *)
  let attempt t candidates expected_sign =
    if Array.length candidates > 0 then
      match Syndrome.decode t ~s:s_k ~candidates with
      | None -> ()
      | Some support ->
        if Array.for_all (fun (coord, w) -> w = expected_sign coord) support then begin
          let in_support = Hashtbl.create (Array.length support) in
          Array.iter (fun (coord, _) -> Hashtbl.replace in_support coord ()) support;
          Array.iter
            (fun coord ->
              if Hashtbl.mem in_support coord then learn_edge coord else learn_nonedge coord)
            candidates
        end
  in
  let pass () =
    changed := false;
    (* Per-vertex recovery: v's residual support is exactly its unknown
       incident edges, so a success also certifies all its other unknown
       pairs as non-edges. *)
    for v = 0 to n - 1 do
      let candidates = ref [] in
      for u = n - 1 downto 0 do
        if u <> v then begin
          let coord = Edge_coding.encode ~n u v in
          if Bytes.get st.status coord = unknown then candidates := coord :: !candidates
        end
      done;
      let candidates = Array.of_list !candidates in
      attempt syn.(v) candidates (fun coord ->
          let u, _ = Edge_coding.decode ~n coord in
          if u = v then 1 else -1)
    done;
    (* Component-cut recovery (sketch-Borůvka): summing a component's
       residual syndromes cancels its internal edges, leaving exactly the
       unknown outgoing cut. *)
    let members = Hashtbl.create 16 in
    for v = 0 to n - 1 do
      let root = Conn.find st.conn v in
      Hashtbl.replace members root (v :: Option.value ~default:[] (Hashtbl.find_opt members root))
    done;
    if Hashtbl.length members > 1 then
      Hashtbl.iter
        (fun _root vs ->
          let in_c = Array.make n false in
          List.iter (fun v -> in_c.(v) <- true) vs;
          let merged = Syndrome.create ~field:st.field ~r:(elements_of st.params st.phase) in
          List.iter (fun v -> Syndrome.merge_into ~into:merged syn.(v)) vs;
          let candidates = ref [] in
          List.iter
            (fun v ->
              for u = 0 to n - 1 do
                if not in_c.(u) then begin
                  let coord = Edge_coding.encode ~n u v in
                  if Bytes.get st.status coord = unknown then candidates := coord :: !candidates
                end
              done)
            vs;
          attempt merged (Array.of_list !candidates) (fun coord ->
              let u, _ = Edge_coding.decode ~n coord in
              if in_c.(u) then 1 else -1))
        members
  in
  pass ();
  while !changed do
    pass ()
  done

(* Everyone's syndromes for the phase just completed: ours from the
   payload we broadcast, each peer's from the heard bits. *)
let phase_syndromes st =
  let n = View.n st.view in
  let r = elements_of st.params st.phase in
  let all = View.all_ids st.view in
  let syn = Array.make n (Syndrome.create ~field:st.field ~r:1) in
  syn.(st.me) <- Syndrome.of_bits ~field:st.field ~r st.own_bits;
  for p = 0 to View.num_ports st.view - 1 do
    let sender = index_of_id all (View.neighbor_id st.view p) in
    syn.(sender) <- Syndrome.of_bits ~field:st.field ~r (Buffer.contents st.heard.(p))
  done;
  syn

let finish_phase st =
  process_phase st (phase_syndromes st)

let make ~name ?params ~finish_of_uf () =
  let params_for ~n = match params with Some p -> p | None -> default_params ~n in
  let bandwidth ~n = (params_for ~n).bandwidth in
  let rounds ~n = total_rounds ~n (params_for ~n) in
  let init view =
    match View.kt1 view with
    | None -> invalid_arg (name ^ ": needs a KT-1 instance")
    | Some _ ->
      let n = View.n view in
      let params = params_for ~n in
      check_params params;
      let all = View.all_ids view in
      let me = index_of_id all (View.id view) in
      let incident = Array.make n false in
      Array.iter
        (fun p -> incident.(index_of_id all (View.neighbor_id view p)) <- true)
        (View.input_ports view);
      let st =
        { view;
          params;
          field = field ~n;
          me;
          incident;
          status = Bytes.make (Edge_coding.universe ~n) unknown;
          conn = Conn.create n;
          heard = Array.init (View.num_ports view) (fun _ -> Buffer.create 64);
          phase = 0;
          phase_start = 0;
          own_bits = "" }
      in
      st.own_bits <- build_payload st;
      st
  in
  let step st ~round ~inbox =
    if round >= 2 then Chunked.absorb ~into:st.heard inbox;
    let n = View.n st.view in
    if round > st.phase_start + rounds_of_phase ~n st.params st.phase then begin
      (* First round of the next phase: the inbox we just absorbed
         completed the previous phase's payloads. Replay the public
         decode, then sketch what is still unknown. *)
      finish_phase st;
      st.phase_start <- st.phase_start + rounds_of_phase ~n st.params st.phase;
      st.phase <- st.phase + 1;
      st.own_bits <- build_payload st;
      Array.iter Buffer.clear st.heard
    end;
    ( st,
      Chunked.emit ~bits:st.own_bits ~bandwidth:st.params.bandwidth
        ~chunk:(round - st.phase_start - 1) )
  in
  let finish st ~inbox =
    Chunked.absorb ~into:st.heard inbox;
    finish_phase st;
    finish_of_uf st st.conn
  in
  { Algo.name; anonymous = false; bandwidth; rounds; init; step; finish; truncates = None }

let connectivity ?params () =
  Algo.pack
    (make ~name:"mt-syndrome-connectivity" ?params
       ~finish_of_uf:(fun _st uf -> Conn.components uf = 1)
       ())

let components ?params () =
  Algo.pack
    (make ~name:"mt-syndrome-components" ?params
       ~finish_of_uf:(fun st uf ->
         let all = View.all_ids st.view in
         let labels = Conn.labels uf in
         all.(labels.(st.me)))
       ())
