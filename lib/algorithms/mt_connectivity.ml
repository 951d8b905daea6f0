open Bcclb_bcc
open Bcclb_graph
open Bcclb_sketch
open Bcclb_detsketch

(* Deterministic connectivity via syndrome sketches (Montealegre–Todinca
   style): see the .mli for the protocol story. Every broadcast reaches
   every vertex, so a phase's decode is the same at every vertex: it runs
   once per run, when the phase's last round has been heard
   (Inbox.once), and yields an immutable public state — the edge-status
   table and the component labels. A vertex keeps its view, its own
   incidence, the public state its phase started from and its payload. *)

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

(* Public edge status, by edge coordinate. *)
let unknown = '\000'
let edge = '\001'
let nonedge = '\002'

(* What the phases decoded so far made public. *)
type public = {
  status : string;
  learned : int array;
      (* The edges learned, as coordinates in the order learned: their
         unions, replayed in that order, rebuild the union-find whose
         representatives order the component-cut decodes. *)
  labels : int array;  (* smallest member ID of each vertex's component *)
}

type state = {
  view : View.t;
  params : params;
  field : Gfp.t;
  starts : int array;  (* rounds before phase k; the last entry is the total *)
  me : int;
  nbrs : int array;  (* my neighbours' indices *)
  known : public option;  (* after the phases before mine; [None] in phase 0 *)
  own_bits : string;  (* my payload in the current phase *)
}

(* The phase that round [r] belongs to (phase 0 before any round). *)
let phase_of st r =
  let k = ref 0 in
  while !k < st.params.phases - 1 && r > st.starts.(!k + 1) do
    incr k
  done;
  !k

(* My residual syndrome in phase [k]: incident edges whose status is
   still publicly unknown. The min endpoint of an edge carries weight +1,
   the max −1 — the signing that makes component sums cancel internal
   edges. *)
let build_payload st k =
  let n = View.n st.view in
  let t = Syndrome.create ~field:st.field ~r:(elements_of st.params k) in
  Array.iter
    (fun u ->
      let coord = Edge_coding.encode ~n st.me u in
      let residual = match st.known with None -> true | Some p -> p.status.[coord] = unknown in
      if residual then Syndrome.add t ~coord ~weight:(if st.me < u then 1 else -1))
    st.nbrs;
  Syndrome.to_bits t

(* The public decode of phase [k], from the public state it started from
   ([st.known]) and everyone's residual syndromes. Learning an edge subtracts it from
   both endpoints' working syndromes (they counted it as residual at
   phase start), which can unlock decodes that were over budget — the
   peeling cascade. *)
let decode_phase st k syn =
  let n = View.n st.view in
  let s_k = sparsity st.params k in
  let status, before =
    match st.known with
    | Some p -> (Bytes.of_string p.status, p.learned)
    | None -> (Bytes.make (Edge_coding.universe ~n) unknown, [||])
  in
  let conn = Conn.create n in
  Array.iter
    (fun coord ->
      let u, v = Edge_coding.decode ~n coord in
      ignore (Conn.union conn u v))
    before;
  let learned = ref [] in
  let changed = ref false in
  let learn_edge coord =
    if Bytes.get status coord = unknown then begin
      Bytes.set status coord edge;
      learned := coord :: !learned;
      let u, v = Edge_coding.decode ~n coord in
      ignore (Conn.union conn u v);
      Syndrome.add syn.(u) ~coord ~weight:(-1);
      Syndrome.add syn.(v) ~coord ~weight:1;
      changed := true
    end
  in
  let learn_nonedge coord =
    if Bytes.get status coord = unknown then begin
      Bytes.set status coord nonedge;
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
          if Bytes.get status coord = unknown then candidates := coord :: !candidates
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
      let root = Conn.find conn v in
      Hashtbl.replace members root (v :: Option.value ~default:[] (Hashtbl.find_opt members root))
    done;
    if Hashtbl.length members > 1 then
      Hashtbl.iter
        (fun _root vs ->
          let in_c = Array.make n false in
          List.iter (fun v -> in_c.(v) <- true) vs;
          let merged = Syndrome.create ~field:st.field ~r:(elements_of st.params k) in
          List.iter (fun v -> Syndrome.merge_into ~into:merged syn.(v)) vs;
          let candidates = ref [] in
          List.iter
            (fun v ->
              for u = 0 to n - 1 do
                if not in_c.(u) then begin
                  let coord = Edge_coding.encode ~n u v in
                  if Bytes.get status coord = unknown then candidates := coord :: !candidates
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
  done;
  let ids = View.all_ids st.view in
  { status = Bytes.unsafe_to_string status;
    learned = Array.append before (Array.of_list (List.rev !learned));
    labels = Array.map (fun l -> ids.(l)) (Conn.labels conn) }

(* The public state after phase [k], once the inbox has heard its last
   round: everyone's syndromes — mine from my payload, each peer's from
   its port over the phase's rounds — through the phase decode. A phase
   cut short fails to decode (Syndrome.of_bits refuses a partial
   payload). *)
let advance st inbox k =
  let n = View.n st.view in
  let r = elements_of st.params k in
  let phase = Inbox.shift inbox ~rounds:st.starts.(k) in
  let syn = Array.make n (Syndrome.create ~field:st.field ~r:1) in
  syn.(st.me) <- Syndrome.of_bits ~field:st.field ~r st.own_bits;
  for p = 0 to View.num_ports st.view - 1 do
    let sender = View.index_of_id st.view (View.neighbor_id st.view p) in
    syn.(sender) <- Syndrome.of_bits ~field:st.field ~r (Chunked.payload phase ~port:p)
  done;
  decode_phase st k syn

let make ~name ?params ~answer () =
  let params_for ~n = match params with Some p -> p | None -> default_params ~n in
  let bandwidth ~n = (params_for ~n).bandwidth in
  let rounds ~n = total_rounds ~n (params_for ~n) in
  let decoded = Type.Id.make () in
  let init view =
    match View.kt1 view with
    | None -> invalid_arg (name ^ ": needs a KT-1 instance")
    | Some _ ->
      let n = View.n view in
      let params = params_for ~n in
      check_params params;
      let starts = Array.make (params.phases + 1) 0 in
      for k = 0 to params.phases - 1 do
        starts.(k + 1) <- starts.(k) + rounds_of_phase ~n params k
      done;
      let index = View.index_of_id view in
      let nbrs = Array.map (fun p -> index (View.neighbor_id view p)) (View.input_ports view) in
      let st =
        { view;
          params;
          field = field ~n;
          starts;
          me = index (View.id view);
          nbrs;
          known = None;
          own_bits = "" }
      in
      { st with own_bits = build_payload st 0 }
  in
  (* The public state after phase [k], whose last round the inbox has
     just heard: the same at every vertex, so decoded once per run. *)
  let public st inbox k = Inbox.once inbox decoded (fun () -> advance st inbox k) in
  let step st ~round ~inbox =
    let k = phase_of st round in
    let st =
      if k > 0 && round = st.starts.(k) + 1 then begin
        (* First round of phase k: sketch what is still unknown. *)
        let st = { st with known = Some (public st inbox (k - 1)) } in
        { st with own_bits = build_payload st k }
      end
      else st
    in
    ( st,
      Chunked.emit ~bits:st.own_bits ~bandwidth:st.params.bandwidth
        ~chunk:(round - st.starts.(k) - 1) )
  in
  let finish st ~inbox = answer st (public st inbox (phase_of st (Inbox.rounds inbox))) in
  { Algo.name; anonymous = false; bandwidth; rounds; init; step; finish; truncates = None }

let connectivity ?params () =
  Algo.pack
    (make ~name:"mt-syndrome-connectivity" ?params
       ~answer:(fun _st p -> Array.for_all (Int.equal p.labels.(0)) p.labels)
       ())

let components ?params () =
  Algo.pack
    (make ~name:"mt-syndrome-components" ?params ~answer:(fun st p -> p.labels.(st.me)) ())
