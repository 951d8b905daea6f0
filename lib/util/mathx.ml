let ilog2 n =
  if n <= 0 then invalid_arg "Mathx.ilog2: argument must be positive";
  let rec loop acc n = if n <= 1 then acc else loop (acc + 1) (n lsr 1) in
  loop 0 n

let ceil_log2 n =
  if n <= 0 then invalid_arg "Mathx.ceil_log2: argument must be positive";
  let l = ilog2 n in
  if 1 lsl l = n then l else l + 1

let pow base exp =
  if exp < 0 then invalid_arg "Mathx.pow: negative exponent";
  let rec loop acc base exp =
    if exp = 0 then acc
    else if exp land 1 = 1 then loop (acc * base) (base * base) (exp asr 1)
    else loop acc (base * base) (exp asr 1)
  in
  loop 1 base exp

let isqrt n =
  if n < 0 then invalid_arg "Mathx.isqrt: negative argument";
  if n < 2 then n
  else begin
    let x = ref (int_of_float (sqrt (float_of_int n))) in
    while !x * !x > n do decr x done;
    while (!x + 1) * (!x + 1) <= n do incr x done;
    !x
  end

let harmonic n =
  let rec loop acc i = if i > n then acc else loop (acc +. (1.0 /. float_of_int i)) (i + 1) in
  loop 0.0 1

let binomial n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let rec loop acc i =
      if i > k then acc
      else begin
        let acc = acc * (n - k + i) in
        if acc < 0 then invalid_arg "Mathx.binomial: overflow";
        loop (acc / i) (i + 1)
      end
    in
    loop 1 1
  end

let log2 x = log x /. log 2.0

let float_eq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))
