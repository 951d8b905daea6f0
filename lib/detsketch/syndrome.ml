type t = { field : Gfp.t; s : int array }

let elements_for ~s =
  if s < 0 then invalid_arg "Syndrome.elements_for: negative sparsity";
  (2 * s) + 3

let max_sparsity ~r = (r - 3) / 2

let create ~field ~r =
  if r < 1 then invalid_arg "Syndrome.create: need at least one element";
  { field; s = Array.make r 0 }

let add t ~coord ~weight =
  let f = t.field in
  let alpha = coord + 1 in
  if coord < 0 || alpha >= Gfp.prime f then invalid_arg "Syndrome.add: coordinate out of field";
  let w = Gfp.normalize f weight in
  if w <> 0 then begin
    (* S_j += w·α^j, accumulating the power incrementally. *)
    let p = ref w in
    for j = 0 to Array.length t.s - 1 do
      t.s.(j) <- Gfp.add f t.s.(j) !p;
      p := Gfp.mul f !p alpha
    done
  end

let merge_into ~into t =
  if (not (Gfp.equal into.field t.field)) || Array.length into.s <> Array.length t.s then
    invalid_arg "Syndrome.merge_into: incompatible syndromes";
  for j = 0 to Array.length t.s - 1 do
    into.s.(j) <- Gfp.add into.field into.s.(j) t.s.(j)
  done

let is_zero t = Array.for_all (fun x -> x = 0) t.s
let equal a b = Gfp.equal a.field b.field && a.s = b.s

let decode t ~s ~candidates =
  let f = t.field in
  let r = Array.length t.s in
  if s > max_sparsity ~r then invalid_arg "Syndrome.decode: sparsity exceeds syndrome length";
  if is_zero t then Some [||]
  else begin
    let l, c = Poly.berlekamp_massey f t.s in
    if l = 0 || l > s then None
    else begin
      (* Locator roots among the permitted coordinates. Overshoot past l
         roots is impossible (a degree-l polynomial has ≤ l roots), so a
         plain filter suffices. *)
      let coords = Array.of_seq (Seq.filter (fun e -> Poly.eval_rev f c (e + 1) = 0) (Array.to_seq candidates)) in
      if Array.length coords <> l then None
      else begin
        let roots = Array.map (fun e -> e + 1) coords in
        match Poly.solve_vandermonde f ~roots ~rhs:(Array.sub t.s 0 l) with
        | None -> None
        | Some weights ->
          if Array.exists (fun w -> w = 0) weights then None
          else begin
            (* Re-verify every element, not just the l the solver used:
               the hardening that turns near-budget misdecodes into
               loud failures. *)
            let ok = ref true in
            let pows = Array.map (fun _ -> 1) roots in
            for j = 0 to r - 1 do
              let acc = ref 0 in
              for i = 0 to l - 1 do
                acc := Gfp.add f !acc (Gfp.mul f weights.(i) pows.(i));
                pows.(i) <- Gfp.mul f pows.(i) roots.(i)
              done;
              if !acc <> t.s.(j) then ok := false
            done;
            if not !ok then None
            else begin
              let out = Array.init l (fun i -> (coords.(i), Gfp.signed f weights.(i))) in
              Array.sort (fun (a, _) (b, _) -> compare a b) out;
              Some out
            end
          end
      end
    end
  end

let serialized_bits t = Array.length t.s * Gfp.element_bits t.field

let to_bits t =
  let eb = Gfp.element_bits t.field in
  let buf = Buffer.create (serialized_bits t) in
  Array.iter
    (fun x ->
      for i = eb - 1 downto 0 do
        Buffer.add_char buf (if (x lsr i) land 1 = 1 then '1' else '0')
      done)
    t.s;
  Buffer.contents buf

let of_bits ~field ~r s =
  let t = create ~field ~r in
  let eb = Gfp.element_bits field in
  if String.length s <> r * eb then invalid_arg "Syndrome.of_bits: length mismatch";
  for j = 0 to r - 1 do
    let x = ref 0 in
    for i = 0 to eb - 1 do
      x := (!x lsl 1) lor (if s.[(j * eb) + i] = '1' then 1 else 0)
    done;
    if !x >= Gfp.prime field then invalid_arg "Syndrome.of_bits: element out of field";
    t.s.(j) <- !x
  done;
  t
