(* Reflected IEEE-802.3 CRC-32 (the zlib/PNG polynomial), on native ints
   masked to 32 bits. One table, process-wide: both the dist wire frames
   and the arena orbit store's file checksum through here, so a
   corruption test written against one layer exercises the same
   arithmetic as the other. The table is built at start-up, not lazily:
   dist workers and orbit stores opened from pool domains checksum
   concurrently, and two domains forcing one lazy at once raise
   [CamlinternalLazy.Undefined]. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let string_sub s pos len =
  if pos < 0 || len < 0 || pos + len > String.length s then invalid_arg "Crc32.string_sub: out of range";
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code (String.unsafe_get s i)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let string s = string_sub s 0 (String.length s)
