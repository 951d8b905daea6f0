(* Sharded metrics. One global registry assigns each metric a slot id;
   each domain lazily materialises a shard (plain arrays indexed by slot
   id) it alone writes, registered in a global list so totals survive
   the writing domain's death (pool workers are short-lived). The hot
   path — Counter.add, Histogram.observe — touches only the caller's
   own shard: no locks, no atomics, no allocation. *)

type kind = Counter_k | Hist_k of float array

type def = { id : int; name : string; kind : kind }

let lock = Mutex.create ()
let by_name : (string, def) Hashtbl.t = Hashtbl.create 64
let defs : def list ref = ref []  (* newest first *)
let n_defs = ref 0

type shard = {
  mutable ints : int array;  (* counter totals, by slot id *)
  mutable floats : float array;  (* histogram sums, by slot id *)
  mutable buckets : int array array;  (* histogram bucket counts, [||] until first observe *)
}

let shards : shard list ref = ref []

(* Shard creation runs in the owning domain (DLS default), under the
   registry lock only for the list append. *)
let new_shard () =
  Mutex.lock lock;
  let cap = max 16 !n_defs in
  let s = { ints = Array.make cap 0; floats = Array.make cap 0.0; buckets = Array.make cap [||] } in
  shards := s :: !shards;
  Mutex.unlock lock;
  s

let shard_key = Domain.DLS.new_key new_shard

(* Growth happens only in the owning domain; a concurrent snapshot sees
   either the old or the new array, both valid prefixes. *)
let ensure s id =
  if id >= Array.length s.ints then begin
    let cap = max (id + 1) (2 * Array.length s.ints) in
    let ints = Array.make cap 0 and floats = Array.make cap 0.0 and buckets = Array.make cap [||] in
    Array.blit s.ints 0 ints 0 (Array.length s.ints);
    Array.blit s.floats 0 floats 0 (Array.length s.floats);
    Array.blit s.buckets 0 buckets 0 (Array.length s.buckets);
    s.ints <- ints;
    s.floats <- floats;
    s.buckets <- buckets
  end

let my_shard id =
  let s = Domain.DLS.get shard_key in
  ensure s id;
  s

let same_kind a b =
  match (a, b) with
  | Counter_k, Counter_k -> true
  | Hist_k x, Hist_k y -> x = y
  | _ -> false

let register name kind =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      match Hashtbl.find_opt by_name name with
      | Some d ->
        if not (same_kind d.kind kind) then
          invalid_arg ("Metrics: " ^ name ^ " re-registered with a different kind");
        d
      | None ->
        let d = { id = !n_defs; name; kind } in
        incr n_defs;
        Hashtbl.add by_name name d;
        defs := d :: !defs;
        d)

module Counter = struct
  type t = def

  let v name = register name Counter_k

  let add t k =
    if k < 0 then invalid_arg "Metrics.Counter.add: negative increment";
    let s = my_shard t.id in
    s.ints.(t.id) <- s.ints.(t.id) + k

  let incr t = add t 1

  let total t =
    Mutex.lock lock;
    let ss = !shards in
    Mutex.unlock lock;
    List.fold_left (fun acc s -> if t.id < Array.length s.ints then acc + s.ints.(t.id) else acc) 0 ss

  let local t = (my_shard t.id).ints.(t.id)
end

module Histogram = struct
  type t = { def : def; bounds : float array }

  let default_time_buckets = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0; 100.0 |]

  let v ?(buckets = default_time_buckets) name =
    let ok = ref (Array.length buckets > 0) in
    Array.iteri
      (fun i b ->
        if not (Float.is_finite b) then ok := false;
        if i > 0 && b <= buckets.(i - 1) then ok := false)
      buckets;
    if not !ok then invalid_arg "Metrics.Histogram.v: buckets must be strictly increasing and finite";
    { def = register name (Hist_k (Array.copy buckets)); bounds = Array.copy buckets }

  let observe t x =
    let id = t.def.id in
    let s = my_shard id in
    let b =
      let b = s.buckets.(id) in
      if Array.length b > 0 then b
      else begin
        let b = Array.make (Array.length t.bounds + 1) 0 in
        s.buckets.(id) <- b;
        b
      end
    in
    let k = Array.length t.bounds in
    let i = ref 0 in
    while !i < k && x > t.bounds.(!i) do
      incr i
    done;
    b.(!i) <- b.(!i) + 1;
    s.floats.(id) <- s.floats.(id) +. x
end

(* ---- snapshots ---- *)

type hist = { le : float array; counts : int array; sum : float; count : int }

type value = Counter of int | Histogram of hist

let quantile h q =
  (* Total on degenerate input: no observations, or a bucket layout
     with no finite bounds (e.g. absorbed from a foreign registry),
     must yield 0.0 rather than NaN or an index error — the manifest
     (where Json writes a NaN as null) and bench reports interpolate
     over whatever is here. *)
  if h.count = 0 || Array.length h.le = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = q *. float_of_int h.count in
    let nb = Array.length h.counts in
    let rec go i cum =
      if i >= nb then h.le.(Array.length h.le - 1)
      else
        let cum' = cum +. float_of_int h.counts.(i) in
        if cum' >= target && h.counts.(i) > 0 then
          if i >= Array.length h.le then h.le.(Array.length h.le - 1)  (* overflow bucket *)
          else
            let lo = if i = 0 then 0.0 else h.le.(i - 1) in
            let hi = h.le.(i) in
            lo +. ((hi -. lo) *. ((target -. cum) /. float_of_int h.counts.(i)))
        else go (i + 1) cum'
    in
    go 0 0.0
  end

let hist_mean h = if h.count = 0 then 0.0 else h.sum /. float_of_int h.count

let snapshot () =
  Mutex.lock lock;
  let ds = List.rev !defs and ss = !shards in
  Mutex.unlock lock;
  let value (d : def) =
    match d.kind with
    | Counter_k ->
      Counter
        (List.fold_left
           (fun acc s -> if d.id < Array.length s.ints then acc + s.ints.(d.id) else acc)
           0 ss)
    | Hist_k bounds ->
      let counts = Array.make (Array.length bounds + 1) 0 in
      let sum = ref 0.0 in
      List.iter
        (fun s ->
          if d.id < Array.length s.buckets then begin
            let b = s.buckets.(d.id) in
            Array.iteri (fun i c -> if i < Array.length counts then counts.(i) <- counts.(i) + c) b;
            if Array.length b > 0 then sum := !sum +. s.floats.(d.id)
          end)
        ss;
      Histogram
        { le = Array.copy bounds; counts; sum = !sum; count = Array.fold_left ( + ) 0 counts }
  in
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (List.map (fun d -> (d.name, value d)) ds)

(* Merging a remote snapshot: each value is folded into the calling
   domain's own shard through the ordinary write path semantics —
   counters add, histogram buckets and sums add — so an absorbed
   snapshot is indistinguishable from the same work having run locally,
   and [snapshot]/[total] after an absorb merge it like any other shard.
   Registration is by name, exactly as [Counter.v] etc. would have done
   it in this process. *)
let absorb entries =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter n ->
        let d = register name Counter_k in
        if n < 0 then invalid_arg ("Metrics.absorb: negative counter " ^ name);
        let s = my_shard d.id in
        s.ints.(d.id) <- s.ints.(d.id) + n
      | Histogram h ->
        if Array.length h.counts <> Array.length h.le + 1 then
          invalid_arg ("Metrics.absorb: malformed histogram " ^ name);
        let d = register name (Hist_k (Array.copy h.le)) in
        let s = my_shard d.id in
        let b =
          let b = s.buckets.(d.id) in
          if Array.length b > 0 then b
          else begin
            let b = Array.make (Array.length h.le + 1) 0 in
            s.buckets.(d.id) <- b;
            b
          end
        in
        Array.iteri (fun i c -> b.(i) <- b.(i) + c) h.counts;
        s.floats.(d.id) <- s.floats.(d.id) +. h.sum)
    entries

(* The inverse direction: [delta ~baseline current] is the snapshot of
   everything that happened between the two, shaped so that absorbing
   the deltas of a partition of a timeline equals absorbing its final
   snapshot once — counters and histogram buckets subtract. Series that
   did not move are dropped, which keeps streamed deltas small on chatty
   registries. *)
let delta ~baseline current =
  List.filter_map
    (fun (name, v) ->
      match (v, List.assoc_opt name baseline) with
      | Counter c, Some (Counter b) ->
        let d = c - b in
        if d = 0 then None
        else if d < 0 then invalid_arg ("Metrics.delta: counter went backwards: " ^ name)
        else Some (name, Counter d)
      | Counter c, _ -> if c = 0 then None else Some (name, Counter c)
      | Histogram h, Some (Histogram b) when h.le = b.le ->
        let counts = Array.mapi (fun i c -> c - b.counts.(i)) h.counts in
        let count = Array.fold_left ( + ) 0 counts in
        if Array.exists (fun c -> c < 0) counts then
          invalid_arg ("Metrics.delta: histogram went backwards: " ^ name)
        else if count = 0 then None
        else Some (name, Histogram { le = h.le; counts; sum = h.sum -. b.sum; count })
      | Histogram h, _ -> if h.count = 0 then None else Some (name, v))
    current

let reset () =
  Mutex.lock lock;
  List.iter
    (fun s ->
      Array.fill s.ints 0 (Array.length s.ints) 0;
      Array.fill s.floats 0 (Array.length s.floats) 0.0;
      Array.iter (fun b -> Array.fill b 0 (Array.length b) 0) s.buckets)
    !shards;
  Mutex.unlock lock
