open Bcclb_bcc

(* Big-endian bit schedules for multi-round broadcasts in BCC(1). *)

let bit_of_int ~width ~pos v =
  if pos < 0 || pos >= width then invalid_arg "Codec.bit_of_int: position out of range";
  (v lsr (width - 1 - pos)) land 1 = 1

let msg_of_bit b = Msg.of_bit b

(* Element r-1 is the inbox carrying the round-r broadcasts, indexed by
   port: senders' sequences are read where they lie, never copied out
   per port. *)
type history = Msg.t array array

let history inboxes = Array.of_list (List.rev inboxes)

(* Decode big-endian bits broadcast during rounds [first..first+width-1]
   by the sender behind [port]. Missing and silent rounds decode as 0
   and are reported, so truncated executions can be detected. *)
let decode h ~port ~first ~width =
  let complete = ref true in
  let v = ref 0 in
  for r = first to first + width - 1 do
    let bit =
      if r > Array.length h then begin
        complete := false;
        0
      end
      else begin
        match h.(r - 1).(port) with
        | Msg.Silent ->
          complete := false;
          0
        | Msg.Word b -> if Bcclb_util.Bits.to_bool b then 1 else 0
      end
    in
    v := (!v lsl 1) lor bit
  done;
  (!v, !complete)

let id_width ~n = Bcclb_util.Mathx.ceil_log2 (n + 1)
