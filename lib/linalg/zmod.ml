(* Arithmetic modulo a prime that fits in 31 bits, so products fit a native
   int without overflow. Default prime: 2^31 - 1 (Mersenne). *)

let default_prime = 2147483647

let is_probable_prime p =
  (* Deterministic trial division is fine at this size for test helpers. *)
  if p < 2 then false
  else begin
    let rec loop d = d * d > p || (p mod d <> 0 && loop (d + 1)) in
    loop 2
  end

type t = { p : int }

let create ?(p = default_prime) () =
  if p < 2 || p > (1 lsl 31) - 1 then invalid_arg "Zmod.create: prime out of range";
  { p }

let prime t = t.p

let normalize t x =
  let r = x mod t.p in
  if r < 0 then r + t.p else r

let add t a b = (a + b) mod t.p
let sub t a b = normalize t (a - b)
let mul t a b = a * b mod t.p

let pow t a k =
  let rec loop acc a k =
    if k = 0 then acc
    else if k land 1 = 1 then loop (mul t acc a) (mul t a a) (k asr 1)
    else loop acc (mul t a a) (k asr 1)
  in
  loop 1 (normalize t a) k

(* Fermat inverse: p is prime. *)
let inv t a =
  let a = normalize t a in
  if a = 0 then raise Division_by_zero;
  pow t a (t.p - 2)

(* Rank by Gaussian elimination over Z_p. Destroys its (copied) input.
   Row r becomes r + neg·pivot_row with neg = p − factor, so every entry
   stays in [0, p) with one [mod] per step: entries and neg are below
   p < 2^31, so r + neg·x < 2^62 fits a native int. *)
let rank t m =
  let p = t.p in
  let rows = Array.length m in
  if rows = 0 then 0
  else begin
    let cols = Array.length m.(0) in
    let m = Array.map (fun row -> Array.map (normalize t) row) m in
    let rank = ref 0 in
    let col = ref 0 in
    while !rank < rows && !col < cols do
      let c = !col in
      let pivot = ref !rank in
      while !pivot < rows && m.(!pivot).(c) = 0 do
        incr pivot
      done;
      if !pivot < rows then begin
        let top = m.(!pivot) in
        m.(!pivot) <- m.(!rank);
        m.(!rank) <- top;
        let inv_pivot = inv t top.(c) in
        for r = !rank + 1 to rows - 1 do
          let row = m.(r) in
          if row.(c) <> 0 then begin
            let neg = p - mul t row.(c) inv_pivot in
            for j = c to cols - 1 do
              row.(j) <- (row.(j) + (neg * top.(j))) mod p
            done
          end
        done;
        incr rank
      end;
      incr col
    done;
    !rank
  end
