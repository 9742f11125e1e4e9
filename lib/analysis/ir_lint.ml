(* Lint layer 1: IR protection-completeness.

   After [Pass.apply] the module must be *fully* hardened for the active
   scheme: no indirect-transfer site may be left unannotated, every
   allowlist global (vtable, GFPT entry) must live in a keyed read-only
   section, and every annotation must name a key the module actually
   backs with a keyed section.  These are exactly the invariants the
   hardening passes establish by construction — this layer re-derives
   them independently so a pass regression is caught before the program
   reaches the simulated hardware. *)

module Ir = Roload_ir.Ir
module Pass = Roload_passes.Pass
module Keys = Roload_passes.Keys
module Ext = Roload_isa.Roload_ext
module D = Diagnostic

let keyed_section name = String.starts_with ~prefix:".rodata.key." name
let is_gfpt name = String.starts_with ~prefix:"__gfpt$" name

let iter_instrs (m : Ir.modul) ~f =
  List.iter
    (fun fn ->
      List.iter
        (fun b ->
          let site = Printf.sprintf "%s/%s" fn.Ir.f_name b.Ir.b_label in
          List.iter (fun i -> f ~site i) b.Ir.b_instrs)
        fn.Ir.f_blocks)
    m.Ir.m_funcs

(* keys referenced by annotations anywhere in the module *)
let annotation_keys (m : Ir.modul) =
  let keys = ref [] in
  let remember k = if not (List.mem k !keys) then keys := k :: !keys in
  iter_instrs m ~f:(fun ~site:_ i ->
      match i with
      | Ir.Load { md = { Ir.roload_key = Some k; _ }; _ } -> remember k
      | Ir.Call_indirect { md = { Ir.ic_roload_key = Some k; _ }; _ } -> remember k
      | Ir.Vcall { md = { Ir.vc_roload_key = Some k; _ }; _ } -> remember k
      | Ir.Bin _ | Ir.Load _ | Ir.Store _ | Ir.Lea_frame _ | Ir.Call _
      | Ir.Call_indirect _ | Ir.Vcall _ ->
        ());
  List.rev !keys

let has_func_addr_operand i =
  let is_fa = function Ir.Func_addr _ -> true | Ir.Temp _ | Ir.Const _ | Ir.Global _ -> false in
  match i with
  | Ir.Bin (_, _, a, b) -> is_fa a || is_fa b
  | Ir.Load { addr; _ } -> is_fa addr
  | Ir.Store { src; addr; _ } -> is_fa src || is_fa addr
  | Ir.Lea_frame _ -> false
  | Ir.Call { args; _ } -> List.exists is_fa args
  | Ir.Call_indirect { callee; args; _ } -> is_fa callee || List.exists is_fa args
  | Ir.Vcall { obj; args; _ } -> is_fa obj || List.exists is_fa args

let run ~scheme (m : Ir.modul) =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let diag ~code ~site fmt = Printf.ksprintf (fun msg -> add (D.make D.Ir_completeness ~code ~site "%s" msg)) fmt in
  let vt_symbols = List.map (fun vt -> vt.Ir.vt_symbol) m.Ir.m_vtables in
  (* key-range and section-name sanity, independent of scheme *)
  iter_instrs m ~f:(fun ~site i ->
      let check_key what = function
        | Some k when not (Ext.key_in_range k) ->
          diag ~code:"key-out-of-range" ~site "%s annotated with key %d (valid: 0..%d)" what
            k Ext.max_key
        | Some _ | None -> ()
      in
      let check_elided what ~elided key =
        if elided && key = None then
          diag ~code:"elided-without-key" ~site
            "%s marked elided but carries no roload key to elide" what
      in
      match i with
      | Ir.Load { md; _ } ->
        check_key "load" md.Ir.roload_key;
        check_elided "load" ~elided:md.Ir.ro_elided md.Ir.roload_key
      | Ir.Call_indirect { md; _ } ->
        check_key "indirect call" md.Ir.ic_roload_key;
        check_elided "indirect call" ~elided:md.Ir.ic_elided md.Ir.ic_roload_key
      | Ir.Vcall { md; _ } -> check_key "virtual call" md.Ir.vc_roload_key
      | Ir.Bin _ | Ir.Store _ | Ir.Lea_frame _ | Ir.Call _ -> ());
  List.iter
    (fun (g : Ir.global) ->
      if
        keyed_section g.Ir.g_section
        && (try ignore (Roload_obj.Section.attrs_of_name g.Ir.g_section); false
            with Invalid_argument _ -> true)
      then
        diag ~code:"bad-keyed-section" ~site:("global " ^ g.Ir.g_name)
          "section name %s does not parse as .rodata.key.<0..%d>" g.Ir.g_section Ext.max_key)
    m.Ir.m_globals;
  (* scheme-specific completeness *)
  (match scheme with
  | Pass.Unprotected ->
    iter_instrs m ~f:(fun ~site i ->
        match i with
        | Ir.Load { md = { Ir.roload_key = Some k; _ }; _ }
        | Ir.Call_indirect { md = { Ir.ic_roload_key = Some k; _ }; _ }
        | Ir.Vcall { md = { Ir.vc_roload_key = Some k; _ }; _ } ->
          diag ~code:"unexpected-annotation" ~site
            "roload key %d present under the unprotected scheme" k
        | Ir.Bin _ | Ir.Load _ | Ir.Store _ | Ir.Lea_frame _ | Ir.Call _
        | Ir.Call_indirect _ | Ir.Vcall _ ->
          ())
  | Pass.Vcall ->
    iter_instrs m ~f:(fun ~site i ->
        match i with
        | Ir.Vcall { md = { Ir.vc_roload_key = None; _ }; class_name; _ } ->
          diag ~code:"unannotated-vcall" ~site
            "virtual call on class %s carries no roload key under VCall" class_name
        | Ir.Bin _ | Ir.Load _ | Ir.Store _ | Ir.Lea_frame _ | Ir.Call _
        | Ir.Call_indirect _ | Ir.Vcall _ ->
          ());
    List.iter
      (fun sym ->
        match Ir.find_global m sym with
        | Some g when not (keyed_section g.Ir.g_section) ->
          diag ~code:"vtable-not-keyed" ~site:("global " ^ sym)
            "vtable left in section %s, expected a .rodata.key.<N> section" g.Ir.g_section
        | Some _ | None -> ())
      vt_symbols
  | Pass.Icall ->
    iter_instrs m ~f:(fun ~site i ->
        match i with
        | Ir.Call_indirect { md = { Ir.ic_roload_key = None; _ }; sig_id; _ } ->
          diag ~code:"unannotated-icall" ~site
            "indirect call [%s] carries no roload key under ICall" sig_id
        | Ir.Vcall { md = { Ir.vc_roload_key = None; _ }; class_name; _ } ->
          diag ~code:"unannotated-vcall" ~site
            "virtual call on class %s carries no roload key under ICall" class_name
        | Ir.Bin _ | Ir.Load _ | Ir.Store _ | Ir.Lea_frame _ | Ir.Call _
        | Ir.Call_indirect _ | Ir.Vcall _ ->
          ());
    iter_instrs m ~f:(fun ~site i ->
        if has_func_addr_operand i then
          diag ~code:"raw-func-addr" ~site
            "raw function address survives ICall rewriting: %s" (Ir.instr_to_string i));
    let unified = Keys.keyed_rodata_section Ext.key_vtable_unified in
    List.iter
      (fun sym ->
        match Ir.find_global m sym with
        | Some g when g.Ir.g_section <> unified ->
          diag ~code:"vtable-not-unified" ~site:("global " ^ sym)
            "vtable in section %s, expected the unified vtable section %s" g.Ir.g_section
            unified
        | Some _ | None -> ())
      vt_symbols;
    List.iter
      (fun (g : Ir.global) ->
        if is_gfpt g.Ir.g_name && not (keyed_section g.Ir.g_section) then
          diag ~code:"gfpt-not-keyed" ~site:("global " ^ g.Ir.g_name)
            "GFPT entry in section %s, expected a .rodata.key.<N> section" g.Ir.g_section;
        if
          (not (is_gfpt g.Ir.g_name))
          && (not (List.mem g.Ir.g_name vt_symbols))
          && List.exists (function Ir.G_func _ -> true | Ir.G_int _ | Ir.G_global _ -> false)
               g.Ir.g_init
        then
          diag ~code:"raw-func-addr" ~site:("global " ^ g.Ir.g_name)
            "raw function address in initializer survives ICall rewriting")
      m.Ir.m_globals
  | Pass.Retcall -> (
    match m.Ir.m_ret_key with
    | None ->
      diag ~code:"missing-ret-key" ~site:("module " ^ m.Ir.m_name)
        "Retcall scheme active but no module return-site key is set"
    | Some k when k <> Ext.key_return_sites ->
      diag ~code:"unexpected-ret-key" ~site:("module " ^ m.Ir.m_name)
        "return-site key is %d, expected the reserved key %d" k Ext.key_return_sites
    | Some _ -> ())
  | Pass.Vtint_baseline ->
    iter_instrs m ~f:(fun ~site i ->
        match i with
        | Ir.Vcall { md = { Ir.vc_vtint = false; _ }; class_name; _ } ->
          diag ~code:"unchecked-vcall" ~site
            "virtual call on class %s carries no VTint range check" class_name
        | Ir.Bin _ | Ir.Load _ | Ir.Store _ | Ir.Lea_frame _ | Ir.Call _
        | Ir.Call_indirect _ | Ir.Vcall _ ->
          ())
  | Pass.Cfi_baseline ->
    iter_instrs m ~f:(fun ~site i ->
        match i with
        | Ir.Call_indirect { md = { Ir.ic_cfi_label = None; _ }; sig_id; _ } ->
          diag ~code:"unlabelled-icall" ~site
            "indirect call [%s] carries no CFI label under label-CFI" sig_id
        | Ir.Vcall { md = { Ir.vc_cfi_label = None; _ }; class_name; _ } ->
          diag ~code:"unlabelled-vcall" ~site
            "virtual call on class %s carries no CFI label under label-CFI" class_name
        | Ir.Bin _ | Ir.Load _ | Ir.Store _ | Ir.Lea_frame _ | Ir.Call _
        | Ir.Call_indirect _ | Ir.Vcall _ ->
          ()));
  (* every annotated key must be backed by a keyed section in the module *)
  List.iter
    (fun k ->
      let section = Keys.keyed_rodata_section k in
      if
        Ext.key_in_range k
        && not (List.exists (fun (g : Ir.global) -> g.Ir.g_section = section) m.Ir.m_globals)
      then
        diag ~code:"key-without-section" ~site:("module " ^ m.Ir.m_name)
          "key %d is used by annotations but no global lives in %s" k section)
    (annotation_keys m);
  List.rev !ds
