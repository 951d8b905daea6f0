let swap a i j =
  let tmp = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- tmp

let init_matrix rows cols f = Array.init rows (fun i -> Array.init cols (fun j -> f i j))

let find_index p a =
  let n = Array.length a in
  let rec loop i = if i >= n then None else if p a.(i) then Some i else loop (i + 1) in
  loop 0

(* A top-level recursion: a local closure over [a] and [x] would
   allocate on every call, and the per-round port tests must not. *)
let rec mem_sorted_in (a : int array) x lo hi =
  lo < hi
  &&
  let mid = (lo + hi) lsr 1 in
  let y = a.(mid) in
  y = x || if y < x then mem_sorted_in a x (mid + 1) hi else mem_sorted_in a x lo mid

let mem_sorted a x = mem_sorted_in a x 0 (Array.length a)

let sum a = Array.fold_left ( + ) 0 a

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
