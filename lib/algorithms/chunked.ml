open Bcclb_bcc

let check_bandwidth name b =
  if b < 1 || b > Bcclb_util.Bits.max_width then
    invalid_arg
      (Printf.sprintf "%s: bandwidth %d outside [1, %d]" name b Bcclb_util.Bits.max_width)

let rounds ~bits ~bandwidth = (bits + bandwidth - 1) / bandwidth

let emit ~bits ~bandwidth ~chunk =
  let lo = chunk * bandwidth in
  let width = min bandwidth (String.length bits - lo) in
  let v = ref 0 in
  for i = 0 to width - 1 do
    v := (!v lsl 1) lor (if bits.[lo + i] = '1' then 1 else 0)
  done;
  Msg.of_int ~width !v

let add_word buf = function
  | Msg.Word w ->
    let width = Bcclb_util.Bits.width w and v = Bcclb_util.Bits.value w in
    for i = width - 1 downto 0 do
      Buffer.add_char buf (if (v lsr i) land 1 = 1 then '1' else '0')
    done
  | Msg.Silent -> ()

let absorb ~into inbox =
  for p = 0 to Inbox.ports inbox - 1 do
    add_word into.(p) (Inbox.latest inbox p)
  done

let payload inbox ~port =
  let buf = Buffer.create (Inbox.rounds inbox) in
  for round = 1 to Inbox.rounds inbox do
    add_word buf (Inbox.heard inbox ~round port)
  done;
  Buffer.contents buf
