open Bcclb_bcc

(* Big-endian bit schedules for multi-round broadcasts in BCC(1). *)

let bit_of_int ~width ~pos v =
  if pos < 0 || pos >= width then invalid_arg "Codec.bit_of_int: position out of range";
  (v lsr (width - 1 - pos)) land 1 = 1

let msg_of_bit b = Msg.of_bit b

(* The receiving side of the schedule: the sender's bits are read off
   the board through the inbox, in place. *)
let decode = Inbox.bits

let decode_ports inbox ports ~first ~width =
  let heard = Array.make (Array.length ports) 0 and c = ref 0 in
  Array.iter
    (fun port ->
      let v, complete = decode inbox ~port ~first ~width in
      if complete then begin
        heard.(!c) <- v;
        incr c
      end)
    ports;
  let heard = if !c = Array.length heard then heard else Array.sub heard 0 !c in
  Array.sort Int.compare heard;
  heard

let id_width ~n = Bcclb_util.Mathx.ceil_log2 (n + 1)
