external now_ns : unit -> int = "caml_bcclb_mclock_ns" [@@noalloc]
external peak_rss_bytes : unit -> int = "caml_bcclb_peak_rss_bytes" [@@noalloc]

let ns_to_s ns = float_of_int ns *. 1e-9

let counter () =
  let t0 = now_ns () in
  fun () -> ns_to_s (now_ns () - t0)
