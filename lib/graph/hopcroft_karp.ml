(* Hopcroft–Karp maximum bipartite matching, O(E sqrt(V)).

   Left vertices 0..nl-1, right vertices 0..nr-1, adjacency from the left.
   [inf] marks unreached vertices in the layered BFS. *)

let inf = max_int

type result = { size : int; pair_left : int array; pair_right : int array }

let check_adjacency who ~nl ~nr adj =
  if Array.length adj <> nl then invalid_arg ("Hopcroft_karp." ^ who ^ ": adjacency size mismatch");
  Array.iter
    (Array.iter (fun v ->
         if v < 0 || v >= nr then invalid_arg ("Hopcroft_karp." ^ who ^ ": right vertex out of range")))
    adj

let maximum ~nl ~nr ~adj =
  let pair_left = Array.make nl (-1) in
  let pair_right = Array.make nr (-1) in
  let dist = Array.make nl inf in
  let queue = Queue.create () in
  let bfs () =
    Queue.clear queue;
    let found = ref false in
    for u = 0 to nl - 1 do
      if pair_left.(u) = -1 then begin
        dist.(u) <- 0;
        Queue.add u queue
      end
      else dist.(u) <- inf
    done;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      Array.iter
        (fun v ->
          match pair_right.(v) with
          | -1 -> found := true
          | u' ->
            if dist.(u') = inf then begin
              dist.(u') <- dist.(u) + 1;
              Queue.add u' queue
            end)
        adj.(u)
    done;
    !found
  in
  let rec dfs u =
    let row = adj.(u) in
    let rec try_from i =
      if i >= Array.length row then begin
        dist.(u) <- inf;
        false
      end
      else begin
        let v = row.(i) in
        let ok =
          match pair_right.(v) with
          | -1 -> true
          | u' -> dist.(u') = dist.(u) + 1 && dfs u'
        in
        if ok then begin
          pair_left.(u) <- v;
          pair_right.(v) <- u;
          true
        end
        else try_from (i + 1)
      end
    in
    try_from 0
  in
  let size = ref 0 in
  while bfs () do
    for u = 0 to nl - 1 do
      if pair_left.(u) = -1 && dfs u then incr size
    done
  done;
  { size = !size; pair_left; pair_right }

let max_matching ~nl ~nr ~adj =
  check_adjacency "max_matching" ~nl ~nr adj;
  maximum ~nl ~nr ~adj

(* A k-matching (§2, Polygamous Hall) assigns k distinct, globally disjoint
   right-neighbours to each matched left vertex. Realised as a maximum
   matching in the graph with k copies of each left vertex — unless
   counting already refutes it: the k·nl copies need k·nl distinct right
   vertices. *)
let k_matching ~k ~nl ~nr ~adj =
  if k <= 0 then invalid_arg "Hopcroft_karp.k_matching: k must be positive";
  check_adjacency "k_matching" ~nl ~nr adj;
  if k * nl > nr then None
  else begin
    let adj' = Array.init (nl * k) (fun i -> adj.(i / k)) in
    let { size; pair_left; pair_right = _ } = maximum ~nl:(nl * k) ~nr ~adj:adj' in
    if size < nl * k then None
    else Some (Array.init nl (fun u -> Array.init k (fun c -> pair_left.((u * k) + c))))
  end
