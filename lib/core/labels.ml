open Bcclb_bcc
open Bcclb_graph

(* Broadcast-sequence labels (§3.1): running a deterministic algorithm for
   t rounds on an instance assigns every vertex the string of characters
   it broadcast, and every directed input edge (v, u) the label
   (sent v, sent u). Edges with equal labels are interchangeable by
   crossings (Lemma 3.4). *)

(* Packed integer codes: 2 bits per round, LSB-first, Msg.code1 alphabet
   (0 = silent, 2 = '0', 3 = '1'). Vertices of a BCC(1) run compare as
   ints; strings remain the presentation layer. *)

let sent_codes ?(seed = 0) algo ~n structure =
  Simulator.run_sent_codes ~seed algo (Census.to_instance structure ~n)

let string_of_code ~rounds code =
  String.init rounds (fun i -> Bcclb_bcc.Msg.char_of_code1 ((code lsr (2 * i)) land 3))

let code_of_string s =
  let code = ref 0 in
  String.iteri
    (fun i c ->
      let v =
        match c with
        | '_' -> 0
        | '0' -> 2
        | '1' -> 3
        | _ -> invalid_arg "Labels.code_of_string: alphabet is {'0','1','_'}"
      in
      code := !code lor (v lsl (2 * i)))
    s;
  !code

(* The pre-arena path: a full simulator run with per-port traffic
   capture and transcript construction per instance. Kept as the cost
   and semantics model of the seed implementation — the reference
   Indist_graph builders use it, so parity tests and the bench smoke
   compare the packed path against genuine pre-PR behaviour — and as
   the fallback for algorithms whose broadcasts do not pack. *)
let sent_strings_legacy ?(seed = 0) algo ~n structure =
  let inst = Census.to_instance structure ~n in
  let result = Simulator.run ~seed algo inst in
  Array.map Transcript.sent_string result.Simulator.transcripts

let sent_strings ?(seed = 0) algo ~n structure =
  if Arena.codable algo ~n then begin
    let rounds = Algo.rounds algo ~n in
    Array.map (fun c -> string_of_code ~rounds c) (sent_codes ~seed algo ~n structure)
  end
  else sent_strings_legacy ~seed algo ~n structure

(* Directed edges along each cycle's stored orientation, with labels. *)
let edge_labels sent structure =
  List.concat_map
    (fun cyc ->
      let k = Array.length cyc in
      List.init k (fun i ->
          let v = cyc.(i) and u = cyc.((i + 1) mod k) in
          ((v, u), (sent.(v), sent.(u)))))
    (Cycles.cycles structure)

let most_frequent_label histogram =
  let best = ref None in
  Hashtbl.iter
    (fun lbl count ->
      match !best with
      | None -> best := Some (lbl, count)
      | Some (lbl', count') -> if count > count' || (count = count' && lbl < lbl') then best := Some (lbl, count))
    histogram;
  match !best with
  | None -> invalid_arg "Labels.most_frequent_label: empty histogram"
  | Some (lbl, _) -> lbl

(* Largest class of positions with the same (head, tail) label within one
   instance — the pigeonhole quantity of Theorems 3.1/3.5: at least
   n/3^{2t} of the n cycle edges share a label. *)
let largest_active_set ?(seed = 0) algo ~n structure =
  let sent = sent_strings ~seed algo ~n structure in
  let counts = Hashtbl.create 64 in
  List.iter
    (fun (_, lbl) -> Hashtbl.replace counts lbl (1 + Option.value ~default:0 (Hashtbl.find_opt counts lbl)))
    (edge_labels sent structure);
  Hashtbl.fold (fun _ c acc -> max c acc) counts 0
