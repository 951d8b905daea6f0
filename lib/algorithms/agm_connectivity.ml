open Bcclb_bcc
open Bcclb_graph
open Bcclb_sketch

(* Connectivity for ARBITRARY graphs in BCC(1) in O(log^3 n) rounds, via
   public-coin AGM linear sketches: the "CONNECTIVITY can be solved in
   BCC(b) for any b >= 1 in just O(poly(log n)) rounds" regime that the
   paper's introduction situates its Omega(log n) lower bounds against.

   Structure: every vertex builds, from the SHARED coin stream, the same
   family of GF(2) l0-samplers (one per Boruvka phase and boosting copy)
   over the edge-id universe, toggles its incident edges into its own
   copies, and broadcasts their serialisation bit by bit. Broadcasts
   reach everyone, so after O(phases * copies * log^2 n) = O(log^3 n)
   rounds every vertex holds every vertex's sketches and the SAME local
   Boruvka follows, so the first vertex to finish runs it for the run:
   per phase, a component's sketch is the XOR of its members' (internal
   edges cancel), and sampling it yields an outgoing edge. Monte Carlo:
   sampling can fail (extra phases retry with fresh randomness) and
   checksum collisions can fabricate edges (mitigated by check bits and
   an endpoint sanity test); errors are rare and measured in the tests
   and experiment E14. *)

type params = { copies : int; check_bits : int; phases : int }

let default_params ~n =
  { copies = 3;
    check_bits = min 20 (Edge_coding.bits ~n + 4);
    phases = Bcclb_util.Mathx.ceil_log2 (max 2 n) + 2 }

type state = {
  view : View.t;
  params : params;
  specs : L0_sampler.hash_spec array;  (* phases * copies, row-major *)
  own_bits : string;  (* serialisation of our samplers *)
}

let index_of_id all_ids id =
  let rec go lo hi =
    if lo >= hi then invalid_arg "Agm_connectivity: unknown id"
    else begin
      let mid = (lo + hi) / 2 in
      if all_ids.(mid) = id then mid else if all_ids.(mid) < id then go (mid + 1) hi else go lo mid
    end
  in
  go 0 (Array.length all_ids)

let build_own_samplers view params specs =
  let n = View.n view in
  let universe = Edge_coding.universe ~n in
  let all = View.all_ids view in
  let me = index_of_id all (View.id view) in
  Array.map
    (fun spec ->
      let s = L0_sampler.create ~universe ~check_bits:params.check_bits spec in
      List.iter
        (fun p ->
          let nbr = index_of_id all (View.neighbor_id view p) in
          L0_sampler.toggle s (Edge_coding.encode ~n me nbr))
        (View.input_ports view);
      s)
    specs

let sampler_bits ~n ~check_bits =
  let universe = Edge_coding.universe ~n in
  L0_sampler.levels_for ~universe * L0_sampler.bits_per_level ~universe ~check_bits

let payload_bits ~n params = params.phases * params.copies * sampler_bits ~n ~check_bits:params.check_bits

let total_rounds ?(bandwidth = 1) ~n params =
  Chunked.rounds ~bits:(payload_bits ~n params) ~bandwidth

(* The local Boruvka every vertex would run identically once it has all
   n sketch families. samplers.(v).(k): vertex v's k-th sampler. *)
let local_components ~n params samplers =
  let uf = Conn.create n in
  for phase = 0 to params.phases - 1 do
    (* Component roots and their member lists. *)
    let members = Hashtbl.create 16 in
    for v = 0 to n - 1 do
      let root = Conn.find uf v in
      Hashtbl.replace members root (v :: Option.value ~default:[] (Hashtbl.find_opt members root))
    done;
    if Hashtbl.length members > 1 then
      Hashtbl.iter
        (fun _root vs ->
          (* Try the copies of this phase until one samples a boundary
             edge. *)
          let rec attempt c =
            if c < params.copies then begin
              let k = (phase * params.copies) + c in
              match vs with
              | [] -> ()
              | v0 :: rest ->
                let merged = L0_sampler.copy samplers.(v0).(k) in
                List.iter (fun v -> L0_sampler.merge_into ~into:merged samplers.(v).(k)) rest;
                (match L0_sampler.sample merged with
                | Some e ->
                  let u, v = Edge_coding.decode ~n e in
                  (* Sanity: a genuine boundary edge has exactly one
                     endpoint inside this component. *)
                  let inside w = Conn.same uf w (List.hd vs) in
                  if inside u <> inside v then ignore (Conn.union uf u v) else attempt (c + 1)
                | None -> attempt (c + 1))
            end
          in
          attempt 0)
        members
  done;
  uf

let make ~name ?(bandwidth = 1) ~answer () =
  Chunked.check_bandwidth name bandwidth;
  let rounds ~n = total_rounds ~bandwidth ~n (default_params ~n) in
  let labels = Type.Id.make () in
  let init view =
    match View.kt1 view with
    | None -> invalid_arg (name ^ ": needs a KT-1 instance")
    | Some _ ->
      let n = View.n view in
      let params = default_params ~n in
      (* Public coins: every vertex draws the same spec sequence. *)
      let coins = View.coins view in
      let specs = Array.init (params.phases * params.copies) (fun _ -> L0_sampler.fresh_spec coins) in
      let own = build_own_samplers view params specs in
      let own_bits = String.concat "" (Array.to_list (Array.map L0_sampler.to_bits own)) in
      { view; params; specs; own_bits }
  in
  let step st ~round ~inbox:_ = (st, Chunked.emit ~bits:st.own_bits ~bandwidth ~chunk:(round - 1)) in
  (* Every vertex's sketches, decoded from our own bits and from each
     port's bits on the board, and the local Borůvka over them: the same
     at every vertex once the whole payload has been heard. *)
  let decode st inbox =
    let n = View.n st.view in
    let universe = Edge_coding.universe ~n in
    let all = View.all_ids st.view in
    let me = index_of_id all (View.id st.view) in
    let k_total = st.params.phases * st.params.copies in
    let sb = sampler_bits ~n ~check_bits:st.params.check_bits in
    let decode_family bits =
      Array.init k_total (fun k ->
          L0_sampler.of_bits ~universe ~check_bits:st.params.check_bits st.specs.(k)
            (String.sub bits (k * sb) sb))
    in
    let samplers = Array.make n [||] in
    samplers.(me) <- decode_family st.own_bits;
    for p = 0 to View.num_ports st.view - 1 do
      let sender = index_of_id all (View.neighbor_id st.view p) in
      samplers.(sender) <- decode_family (Chunked.payload inbox ~port:p)
    done;
    let uf = local_components ~n st.params samplers in
    (Conn.components uf, Conn.labels uf)
  in
  (* Shared once the payload is complete; a truncated view decodes alone. *)
  let finish st ~inbox =
    let components =
      if Inbox.rounds inbox >= rounds ~n:(View.n st.view) then
        Inbox.once inbox labels (fun () -> decode st inbox)
      else decode st inbox
    in
    answer st components
  in
  { Algo.name;
    anonymous = false;
    bandwidth = (fun ~n:_ -> bandwidth);
    rounds;
    init;
    step;
    finish;
    truncates = None }

let connectivity ?bandwidth () =
  Algo.pack
    (make ~name:"agm-sketch-connectivity" ?bandwidth
       ~answer:(fun _st (components, _) -> components = 1)
       ())

let components ?bandwidth () =
  Algo.pack
    (make ~name:"agm-sketch-components" ?bandwidth
       ~answer:(fun st (_, labels) ->
         (* Label: the smallest member ID of our component. *)
         let all = View.all_ids st.view in
         all.(labels.(index_of_id all (View.id st.view))))
       ())
