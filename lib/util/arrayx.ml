let swap a i j =
  let tmp = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- tmp

let init_matrix rows cols f = Array.init rows (fun i -> Array.init cols (fun j -> f i j))

let matrix_copy m = Array.map Array.copy m

let find_index p a =
  let n = Array.length a in
  let rec loop i = if i >= n then None else if p a.(i) then Some i else loop (i + 1) in
  loop 0

let count p a = Array.fold_left (fun acc x -> if p x then acc + 1 else acc) 0 a

let min_by f a =
  if Array.length a = 0 then invalid_arg "Arrayx.min_by: empty array";
  let best = ref a.(0) in
  let best_key = ref (f a.(0)) in
  for i = 1 to Array.length a - 1 do
    let k = f a.(i) in
    if k < !best_key then begin
      best := a.(i);
      best_key := k
    end
  done;
  !best

let sum a = Array.fold_left ( + ) 0 a

let sum_float a = Array.fold_left ( +. ) 0.0 a

let for_all2 p a b =
  if Array.length a <> Array.length b then invalid_arg "Arrayx.for_all2: length mismatch";
  let n = Array.length a in
  let rec loop i = i >= n || (p a.(i) b.(i) && loop (i + 1)) in
  loop 0

let rev_in_place a =
  let n = Array.length a in
  for i = 0 to (n / 2) - 1 do
    swap a i (n - 1 - i)
  done

(* Insertion sort: no allocation, and linear on rows that arrive sorted. *)
let sort_uniq_prefix (a : int array) len =
  for i = 1 to len - 1 do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done;
  let d = ref (Int.min len 1) in
  for i = 1 to len - 1 do
    if a.(i) <> a.(!d - 1) then begin
      a.(!d) <- a.(i);
      incr d
    end
  done;
  !d

let rotate_left a k =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let k = ((k mod n) + n) mod n in
    Array.init n (fun i -> a.((i + k) mod n))
  end

let take n l =
  let rec loop acc n l =
    if n <= 0 then List.rev acc
    else match l with [] -> List.rev acc | x :: tl -> loop (x :: acc) (n - 1) tl
  in
  loop [] n l

let range lo hi =
  let rec loop acc i = if i < lo then acc else loop (i :: acc) (i - 1) in
  loop [] (hi - 1)

let group_by_key pairs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (k, v) ->
      let cur = try Hashtbl.find tbl k with Not_found -> [] in
      Hashtbl.replace tbl k (v :: cur))
    pairs;
  Hashtbl.fold (fun k vs acc -> (k, List.rev vs) :: acc) tbl []
