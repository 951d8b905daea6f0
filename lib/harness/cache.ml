type t = { root : string }

module Obs = Bcclb_obs

(* Cache health series: [cache.corrupt_recomputes] counts entries that
   existed on disk but failed the magic/checksum/key check — each one is
   a cell the runner silently recomputed. *)
let hits_metric = Obs.Metrics.Counter.v "cache.hits"
let misses_metric = Obs.Metrics.Counter.v "cache.misses"
let corrupt_metric = Obs.Metrics.Counter.v "cache.corrupt_recomputes"
let stores_metric = Obs.Metrics.Counter.v "cache.stores"
let load_seconds = Obs.Metrics.Histogram.v "cache.load_seconds"
let store_seconds = Obs.Metrics.Histogram.v "cache.store_seconds"

let create ~root =
  Fsutil.mkdir_p root;
  { root }

let root t = t.root

type key = { exp_id : string; spec : string; hash : string }

let key ~exp_id ~version ~params =
  let spec = Printf.sprintf "%s|v%d|%s" exp_id version (Params.canonical params) in
  { exp_id; spec; hash = Digest.to_hex (Digest.string spec) }

let key_hash k = k.hash

let path t k = Filename.concat (Filename.concat t.root k.exp_id) (k.hash ^ ".entry")

(* Entry layout: a magic line, a hex checksum line, then the marshalled
   (canonical key, rows) payload the checksum covers. The checksum is
   verified before unmarshalling, so a torn write can never feed garbage
   to [Marshal]. The epoch is part of the magic: bumping it invalidates
   every existing entry, and the dist handshake refuses workers built
   against a different epoch before they can checkpoint into a shared
   cache root. *)
let format_epoch = 1
let magic = Printf.sprintf "BCCLB-CACHE-%d" format_epoch

let store t k (rows : Experiment.row list) =
  let stop = Obs.Mclock.counter () in
  let payload = Marshal.to_string (k.spec, rows) [] in
  let sum = Digest.to_hex (Digest.string payload) in
  Fsutil.write_file_atomic (path t k) (magic ^ "\n" ^ sum ^ "\n" ^ payload);
  Obs.Metrics.Counter.incr stores_metric;
  Obs.Metrics.Histogram.observe store_seconds (stop ())

let remove t k = try Sys.remove (path t k) with Sys_error _ -> ()

let decode k content =
  let nl1 = String.index content '\n' in
  let nl2 = String.index_from content (nl1 + 1) '\n' in
  if String.sub content 0 nl1 <> magic then None
  else
    let sum = String.sub content (nl1 + 1) (nl2 - nl1 - 1) in
    let payload = String.sub content (nl2 + 1) (String.length content - nl2 - 1) in
    if Digest.to_hex (Digest.string payload) <> sum then None
    else
      let spec, (rows : Experiment.row list) = Marshal.from_string payload 0 in
      if String.equal spec k.spec then Some rows else None

let find t k =
  let stop = Obs.Mclock.counter () in
  let result =
    let p = path t k in
    if not (Sys.file_exists p) then None
    else
      match decode k (Fsutil.read_file p) with
      | Some rows -> Some rows
      | None | (exception _) ->
        (* Entry existed but failed validation: the caller will
           recompute the cell. *)
        Obs.Metrics.Counter.incr corrupt_metric;
        remove t k;
        None
  in
  Obs.Metrics.Counter.incr (if Option.is_some result then hits_metric else misses_metric);
  Obs.Metrics.Histogram.observe load_seconds (stop ());
  result
