(* Two-party deterministic protocols with simultaneous exchange: in each
   round Alice and Bob both emit a bit string computed from their own
   input and everything received so far, then both receive. This subsumes
   alternating protocols (send "" when it is not your turn) and models the
   §4.3 BCC simulation directly (both parties send every round). The
   round loop is the engine's, over the two-party topology: party 0 is
   Alice, party 1 is Bob, and an inbox is the reversed history of the
   other party's messages. *)

module Engine = Bcclb_engine.Engine
module Topology = Bcclb_engine.Topology

type ('ia, 'ib, 'oa, 'ob) spec = {
  name : string;
  rounds : int;
  alice : 'ia -> round:int -> received:string list -> string;
  bob : 'ib -> round:int -> received:string list -> string;
  output_a : 'ia -> received:string list -> 'oa;
  output_b : 'ib -> received:string list -> 'ob;
}

type ('oa, 'ob) result = {
  out_a : 'oa;
  out_b : 'ob;
  transcript : (string * string) list;  (* (alice_msg, bob_msg) per round *)
  bits_a : int;
  bits_b : int;
}

let check_bits name s =
  String.iter
    (fun c ->
      if c <> '0' && c <> '1' then
        invalid_arg (Printf.sprintf "Protocol %s: message contains non-bit character %c" name c))
    s

(* Each message is checked as it leaves its party. The final inboxes
   are the whole conversation: party 0's holds Bob's messages and party
   1's Alice's, newest first, so the transcript and the bill are read
   off them after the last round. *)
let run spec ia ib =
  let outcome =
    Engine.run
      { Engine.n = 2;
        rounds = spec.rounds;
        step =
          (fun () ~round ~vertex ~inbox ->
            let received = List.rev inbox in
            let msg =
              if vertex = 0 then spec.alice ia ~round ~received else spec.bob ib ~round ~received
            in
            check_bits spec.name msg;
            ((), msg));
        exchange = Topology.two_party }
      ~init_state:(fun _ -> ())
      ~init_inbox:(fun _ -> [])
  in
  let from_bob = List.rev outcome.Engine.final_inbox.(0)
  and from_alice = List.rev outcome.Engine.final_inbox.(1) in
  let bits = List.fold_left (fun acc m -> acc + String.length m) 0 in
  { out_a = spec.output_a ia ~received:from_bob;
    out_b = spec.output_b ib ~received:from_alice;
    transcript = List.combine from_alice from_bob;
    bits_a = bits from_alice;
    bits_b = bits from_bob }

let total_bits r = r.bits_a + r.bits_b

let transcript_string r =
  String.concat "|" (List.map (fun (a, b) -> a ^ ";" ^ b) r.transcript)

(* Fixed-width big-endian integer codecs for building messages. *)
let encode_int ~width v =
  if v < 0 || (width < 62 && v lsr width <> 0) then invalid_arg "Protocol.encode_int: value does not fit";
  String.init width (fun i -> if (v lsr (width - 1 - i)) land 1 = 1 then '1' else '0')

let decode_int s =
  String.fold_left
    (fun acc c ->
      match c with
      | '0' -> acc * 2
      | '1' -> (acc * 2) + 1
      | _ -> invalid_arg "Protocol.decode_int: non-bit character")
    0 s

let encode_ints ~width vs = String.concat "" (List.map (encode_int ~width) vs)

let decode_ints ~width s =
  let len = String.length s in
  if len mod width <> 0 then invalid_arg "Protocol.decode_ints: length not a multiple of width";
  List.init (len / width) (fun i -> decode_int (String.sub s (i * width) width))
