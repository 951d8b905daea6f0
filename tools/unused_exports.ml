(* Unused exports: every [val] in a [lib/**/*.mli] that no other
   compilation unit references.

   Usage: unused_exports BUILD_DIR (e.g. _build/default, after
   [dune build @check]). Exports come from the [.cmti] files under
   BUILD_DIR/lib, references from the [.cmt] files under lib, bin, test,
   perfbench and examples. Prints one [file:line: name] per finding and
   exits 1 if there is any.

   Names are resolved, not grepped. Typedtree paths already see through
   [open]; a dune-wrapped [Lib__M] and [Lib.M] flatten to one name; and
   [module X = P] aliases are followed — local ones by identifier,
   exported ones (such as [Exp_common.E]) by qualified name. A use
   inside the value's own unit goes through a local identifier and does
   not count. A module used whole (an [include], a functor argument, a
   packed module) counts as a use of every value under it. *)

open Typedtree

(* "Bcclb_dist__Transport" -> ["Bcclb_dist"; "Transport"]. *)
let rec flatten name =
  let n = String.length name in
  let rec sep i =
    if i + 1 >= n then None else if name.[i] = '_' && name.[i + 1] = '_' then Some i else sep (i + 1)
  in
  match sep 0 with
  | None -> if name = "" then [] else [ name ]
  | Some i ->
    (if i = 0 then [] else [ String.sub name 0 i ]) @ flatten (String.sub name (i + 2) (n - i - 2))

let rec files dir suffix acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
    Array.fold_left
      (fun acc e ->
        let p = Filename.concat dir e in
        if Sys.is_directory p then files p suffix acc
        else if Filename.check_suffix p suffix then p :: acc
        else acc)
      acc entries

(* Exported aliases by qualified name, value references, and modules
   used whole — gathered from every implementation first, resolved once
   all aliases are known. *)
let aliases : (string list, string list) Hashtbl.t = Hashtbl.create 512
let refs = ref []
let wholes = ref []

let rec alias_target me =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some p
  | Tmod_constraint (me, _, _, _) -> alias_target me
  | _ -> None

let scan_impl (cmt : Cmt_format.cmt_infos) str =
  let unit_name = flatten cmt.cmt_modname in
  let locals = Hashtbl.create 64 in
  let rec comps = function
    | Path.Pident id when Ident.global id -> Some (flatten (Ident.name id))
    | Path.Pident id -> Hashtbl.find_opt locals (Ident.unique_name id)
    | Path.Pdot (p, s) -> Option.map (fun l -> l @ [ s ]) (comps p)
    | Path.Papply _ | Path.Pextra_ty _ -> None
  in
  let prefix = ref [] in
  let bind id p ~exported =
    Option.iter
      (fun target ->
        Hashtbl.replace locals (Ident.unique_name id) target;
        Option.iter (fun name -> Hashtbl.replace aliases (unit_name @ !prefix @ [ name ]) target)
          exported)
      (comps p)
  in
  let default = Tast_iterator.default_iterator in
  let it =
    {
      default with
      expr =
        (fun it e ->
          match e.exp_desc with
          | Texp_ident (p, _, _) -> Option.iter (fun l -> refs := l :: !refs) (comps p)
          | Texp_letmodule (Some id, _, _, me, body) -> (
            match alias_target me with
            | Some p ->
              bind id p ~exported:None;
              it.expr it body
            | None -> default.expr it e)
          | _ -> default.expr it e);
      module_binding =
        (fun it mb ->
          match (alias_target mb.mb_expr, mb.mb_id) with
          | Some p, Some id -> bind id p ~exported:mb.mb_name.txt
          | _ ->
            let saved = !prefix in
            prefix := saved @ [ Option.value mb.mb_name.txt ~default:"_" ];
            default.module_binding it mb;
            prefix := saved);
      module_expr =
        (fun it me ->
          (match me.mod_desc with
          | Tmod_ident (p, _) -> Option.iter (fun l -> wholes := l :: !wholes) (comps p)
          | _ -> ());
          default.module_expr it me);
      (* [open M] names a module without using any of it. *)
      open_declaration =
        (fun it od ->
          match od.open_expr.mod_desc with Tmod_ident _ -> () | _ -> default.open_declaration it od);
    }
  in
  it.structure it str

let exports = ref []

let scan_intf (cmt : Cmt_format.cmt_infos) sg =
  let file = Option.value cmt.cmt_sourcefile ~default:cmt.cmt_modname in
  let rec walk prefix sg =
    List.iter
      (fun item ->
        match item.sig_desc with
        | Tsig_value vd ->
          exports := (prefix @ [ vd.val_name.txt ], file, vd.val_loc.loc_start.pos_lnum) :: !exports
        | Tsig_module
            { md_name = { txt = Some name; _ }; md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
          walk (prefix @ [ name ]) sg
        | _ -> ())
      sg.sig_items
  in
  walk (flatten cmt.cmt_modname) sg

(* Rewrite the longest aliased prefix until none applies. *)
let rec resolve fuel l =
  let rec try_prefix k =
    if k < 1 || fuel = 0 then l
    else
      let pre = List.filteri (fun i _ -> i < k) l in
      match Hashtbl.find_opt aliases pre with
      | Some target when target <> pre ->
        resolve (fuel - 1) (target @ List.filteri (fun i _ -> i >= k) l)
      | _ -> try_prefix (k - 1)
  in
  try_prefix (List.length l)

let rec is_prefix p l =
  match (p, l) with [], _ -> true | x :: p, y :: l -> x = y && is_prefix p l | _ -> false

let () =
  let build =
    match Sys.argv with
    | [| _; dir |] -> dir
    | _ ->
      prerr_endline "usage: unused_exports BUILD_DIR";
      exit 2
  in
  let read f file =
    let cmt = Cmt_format.read_cmt file in
    f cmt cmt.Cmt_format.cmt_annots
  in
  List.iter
    (fun root ->
      List.iter
        (read (fun cmt -> function Cmt_format.Implementation s -> scan_impl cmt s | _ -> ()))
        (files (Filename.concat build root) ".cmt" []))
    [ "lib"; "bin"; "test"; "perfbench"; "examples" ];
  List.iter
    (read (fun cmt -> function Cmt_format.Interface s -> scan_intf cmt s | _ -> ()))
    (files (Filename.concat build "lib") ".cmti" []);
  let used = Hashtbl.create 4096 in
  List.iter (fun l -> Hashtbl.replace used (resolve 16 l) ()) !refs;
  let wholes = List.map (resolve 16) !wholes in
  let unused =
    List.filter
      (fun (key, _, _) ->
        not (Hashtbl.mem used key || List.exists (fun w -> is_prefix w key) wholes))
      !exports
  in
  List.iter
    (fun (key, file, line) -> Printf.printf "%s:%d: %s\n" file line (String.concat "." key))
    (List.sort (fun (_, f1, l1) (_, f2, l2) -> compare (f1, l1) (f2, l2)) unused);
  if unused <> [] then begin
    Printf.printf "%d unused exports: delete the definition, or drop the val from its .mli\n"
      (List.length unused);
    exit 1
  end
