module Json = Bcclb_harness.Json
module Fsutil = Bcclb_harness.Fsutil

type expect = { sha256 : string; cells : int }

let load_golden path =
  let fail msg = failwith (Printf.sprintf "%s: %s" path msg) in
  match Json.of_string (String.trim (Fsutil.read_file path)) with
  | exception Sys_error e -> failwith e
  | Json.Obj entries ->
    List.map
      (fun (key, v) ->
        match
          ( Option.bind (Json.member "sha256" v) Json.to_str_opt,
            Option.bind (Json.member "cells" v) Json.to_int_opt )
        with
        | Some sha256, Some cells -> (key, { sha256; cells })
        | _ -> fail (key ^ ": expected {\"sha256\": ..., \"cells\": ...}"))
      entries
  | _ -> fail "expected a JSON object"

let results_digest dir =
  let ids =
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun f ->
           if Filename.check_suffix f ".jsonl" then Some (Filename.chop_suffix f ".jsonl")
           else None)
    |> List.sort String.compare
  in
  let buf = Buffer.create 65536 in
  List.iter
    (fun id -> Buffer.add_string buf (Fsutil.read_file (Filename.concat dir (id ^ ".jsonl"))))
    ids;
  Sha256.hex (Buffer.contents buf)

let verdict expect ~status ~results =
  let manifest = Filename.concat results "manifest.json" in
  if status < 0 then Error (Printf.sprintf "killed by signal %d" (-status))
  else if status > 0 then Error (Printf.sprintf "exit %d" status)
  else if not (Sys.file_exists manifest) then Error "missing manifest"
  else
    match Json.of_string (String.trim (Fsutil.read_file manifest)) with
    | exception Failure e -> Error ("unreadable manifest: " ^ e)
    | m -> (
      let digest = results_digest results in
      match Option.bind (Json.member "cells_total" m) Json.to_int_opt with
      | _ when digest <> expect.sha256 -> Error ("digest mismatch: " ^ digest)
      | Some c when c = expect.cells -> Ok m
      | Some c -> Error (Printf.sprintf "wrong cell count: %d, expected %d" c expect.cells)
      | None -> Error "manifest has no cells_total")
