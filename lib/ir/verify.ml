(* IR well-formedness checks, run after lowering and after each pass in
   tests: every branch target exists, temps are within bounds, frame slots
   are declared, vtable symbols exist. *)

(* Each name's occurrence count, and every occurrence of each name that
   occurs more than once, in order: a duplicate check in one pass. *)
let repeated names =
  let count = Hashtbl.create (List.length names) in
  List.iter
    (fun n -> Hashtbl.replace count n (1 + Option.value ~default:0 (Hashtbl.find_opt count n)))
    names;
  (List.filter (fun n -> Hashtbl.find count n > 1) names, count)

let check_func (f : Ir.func) =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  if f.Ir.f_blocks = [] then err "%s: no blocks" f.Ir.f_name;
  let dup, labels = repeated (List.map (fun b -> b.Ir.b_label) f.Ir.f_blocks) in
  if dup <> [] then err "%s: duplicate labels %s" f.Ir.f_name (String.concat "," dup);
  let check_temp t =
    if t < 0 || t >= f.Ir.f_ntemps then err "%s: temp %%t%d out of range" f.Ir.f_name t
  in
  let slots = Hashtbl.create (List.length f.Ir.f_frame_slots) in
  List.iter (fun fs -> Hashtbl.replace slots fs.Ir.slot_id ()) f.Ir.f_frame_slots;
  let check_slot s =
    if not (Hashtbl.mem slots s) then err "%s: unknown frame slot %d" f.Ir.f_name s
  in
  List.iter check_temp f.Ir.f_params;
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          List.iter check_temp (Ir.instr_defs i);
          List.iter check_temp (Ir.instr_uses i);
          match i with
          | Ir.Lea_frame (_, s) -> check_slot s
          | Ir.Call { args; _ } ->
            if List.length args > 8 then err "%s: more than 8 call arguments" f.Ir.f_name
          | Ir.Bin _ | Ir.Load _ | Ir.Store _ | Ir.Call_indirect _ | Ir.Vcall _ -> ())
        b.Ir.b_instrs;
      List.iter check_temp (Ir.term_uses b.Ir.b_term);
      List.iter
        (fun l ->
          if not (Hashtbl.mem labels l) then
            err "%s: branch to unknown label %s" f.Ir.f_name l)
        (Ir.successors b.Ir.b_term))
    f.Ir.f_blocks;
  !errors

let check_module (m : Ir.modul) =
  let errors = ref (List.concat_map check_func m.Ir.m_funcs) in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let fdups, fnames = repeated (List.map (fun f -> f.Ir.f_name) m.Ir.m_funcs) in
  let gdups, gnames = repeated (List.map (fun g -> g.Ir.g_name) m.Ir.m_globals) in
  List.iter (fun n -> err "duplicate function name %s" n) (List.sort_uniq compare fdups);
  List.iter (fun n -> err "duplicate global name %s" n) (List.sort_uniq compare gdups);
  List.iter
    (fun (g : Ir.global) ->
      List.iter
        (function
          | Ir.G_func f ->
            if not (Hashtbl.mem fnames f) then
              err "global %s references unknown function %s" g.Ir.g_name f
          | Ir.G_global gg ->
            if not (Hashtbl.mem gnames gg) then
              err "global %s references unknown global %s" g.Ir.g_name gg
          | Ir.G_int _ -> ())
        g.Ir.g_init)
    m.Ir.m_globals;
  List.iter
    (fun (vt : Ir.vtable_info) ->
      if not (Hashtbl.mem gnames vt.Ir.vt_symbol) then
        err "vtable %s: missing global %s" vt.Ir.vt_class vt.Ir.vt_symbol;
      List.iter
        (fun mth ->
          if not (Hashtbl.mem fnames mth) then
            err "vtable %s: missing method %s" vt.Ir.vt_class mth)
        vt.Ir.vt_methods)
    m.Ir.m_vtables;
  List.rev !errors

let check_module_exn m =
  match check_module m with
  | [] -> ()
  | errs -> failwith ("IR verification failed:\n  " ^ String.concat "\n  " errs)
