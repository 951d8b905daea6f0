(* The string-label reference for Indist_graph, the oracle its two
   builders are tested against. Labels are the strings of full simulator
   transcripts, crossing successors come from Census.cross_one_cycle
   looked up by structure, and rows are deduplicated and transposed here
   rather than by the library. Slow by design: one full execution per
   instance, lists and string comparisons throughout. *)

open Bcclb_core
module Cycles = Bcclb_graph.Cycles
module Simulator = Bcclb_bcc.Simulator
module Transcript = Bcclb_bcc.Transcript

let sent_strings ?(seed = 0) algo ~n structure =
  let result = Simulator.run ~seed algo (Census.to_instance structure ~n) in
  Array.map Transcript.sent_string result.Simulator.transcripts

let active_positions sent cyc ~x ~y =
  let k = Array.length cyc in
  List.filter (fun i -> sent.(cyc.(i)) = x && sent.(cyc.((i + 1) mod k)) = y) (List.init k Fun.id)

(* Ties break lexicographically on the string pair. *)
let most_frequent_label histogram =
  let best = ref None in
  Hashtbl.iter
    (fun lbl count ->
      match !best with
      | None -> best := Some (lbl, count)
      | Some (lbl', count') ->
        if count > count' || (count = count' && lbl < lbl') then best := Some (lbl, count))
    histogram;
  match !best with None -> invalid_arg "most_frequent_label: empty histogram" | Some (lbl, _) -> lbl

let finish ~n ~x ~y ~v1 ~v2 rows =
  let adj = Array.map (fun row -> Array.of_list (List.sort_uniq Int.compare row)) rows in
  let radj = Array.make (Array.length v2) [] in
  for i1 = Array.length adj - 1 downto 0 do
    Array.iter (fun i2 -> radj.(i2) <- i1 :: radj.(i2)) adj.(i1)
  done;
  { Indist_graph.n; x; y; v1; v2; adj; radj = Array.map Array.of_list radj }

let census ~n =
  let v1 = Census.one_cycles ~n and v2 = Census.two_cycles ~n in
  let index = Hashtbl.create (Array.length v2) in
  Array.iteri (fun i s -> Hashtbl.add index s i) v2;
  (v1, v2, fun cyc i j -> Hashtbl.find index (Census.cross_one_cycle cyc i j))

let crossable k i j = i < j && j - i >= 3 && k - (j - i) >= 3

let build ?(seed = 0) algo ~n () =
  let v1, v2, cross = census ~n in
  let sent1 = Array.map (fun s -> sent_strings ~seed algo ~n s) v1 in
  let x, y =
    let tbl = Hashtbl.create 256 in
    Array.iteri
      (fun idx s ->
        List.iter
          (fun (_, lbl) -> Hashtbl.replace tbl lbl (1 + Option.value ~default:0 (Hashtbl.find_opt tbl lbl)))
          (Labels.edge_labels sent1.(idx) s))
      v1;
    most_frequent_label tbl
  in
  let rows =
    Array.mapi
      (fun i1 s ->
        let cyc = List.hd (Cycles.cycles s) in
        let actives = active_positions sent1.(i1) cyc ~x ~y in
        List.concat_map
          (fun i ->
            List.filter_map
              (fun j -> if crossable (Array.length cyc) i j then Some (cross cyc i j) else None)
              actives)
          actives)
      v1
  in
  finish ~n ~x ~y ~v1 ~v2 rows

let build_full ?(seed = 0) algo ~n () =
  let v1, v2, cross = census ~n in
  let rows =
    Array.map
      (fun s ->
        let sent = sent_strings ~seed algo ~n s in
        let cyc = List.hd (Cycles.cycles s) in
        let k = Array.length cyc in
        let row = ref [] in
        for i = 0 to k - 1 do
          for j = i + 1 to k - 1 do
            let vi = cyc.(i) and ui = cyc.((i + 1) mod k) in
            let vj = cyc.(j) and uj = cyc.((j + 1) mod k) in
            if crossable k i j && sent.(vi) = sent.(vj) && sent.(ui) = sent.(uj) then
              row := cross cyc i j :: !row
          done
        done;
        !row)
      v1
  in
  finish ~n ~x:"*" ~y:"*" ~v1 ~v2 rows
