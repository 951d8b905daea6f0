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

let sent_codes algo ~n structure = Simulator.run_sent_codes algo (Census.to_instance structure ~n)

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

let sent_strings algo ~n structure =
  Arena.require_codable "Labels.sent_strings" algo ~n;
  let rounds = Algo.rounds algo ~n in
  Array.map (fun c -> string_of_code ~rounds c) (sent_codes algo ~n structure)

(* Directed edges along each cycle's stored orientation, with labels. *)
let edge_labels sent structure =
  List.concat_map
    (fun cyc ->
      let k = Array.length cyc in
      List.init k (fun i ->
          let v = cyc.(i) and u = cyc.((i + 1) mod k) in
          ((v, u), (sent.(v), sent.(u)))))
    (Cycles.cycles structure)

(* Largest class of positions with the same (head, tail) label within one
   instance — the pigeonhole quantity of Theorems 3.1/3.5: at least
   n/3^{2t} of the n cycle edges share a label. *)
let largest_active_set algo ~n structure =
  let sent = sent_strings algo ~n structure in
  let counts = Hashtbl.create 64 in
  List.iter
    (fun (_, lbl) -> Hashtbl.replace counts lbl (1 + Option.value ~default:0 (Hashtbl.find_opt counts lbl)))
    (edge_labels sent structure);
  Hashtbl.fold (fun _ c acc -> max c acc) counts 0
