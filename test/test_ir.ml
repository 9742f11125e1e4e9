(* IR-level tests: construction helpers, the verifier's error detection,
   printing, and signature identity. *)

module Ir = Roload_ir.Ir
module Verify = Roload_ir.Verify

let empty_func name =
  { Ir.f_name = name; f_sig = { Ir.params = []; ret = Ir.I64 }; f_params = [];
    f_blocks = []; f_ntemps = 0; f_frame_slots = []; f_cfi_id = None }

let empty_module () =
  { Ir.m_name = "t"; m_funcs = []; m_globals = []; m_vtables = []; m_ret_key = None }

let ret_block ?(label = "entry") v =
  { Ir.b_label = label; b_instrs = []; b_term = Ir.Ret (Some v) }

let test_temps_and_slots () =
  let f = empty_func "f" in
  let t0 = Ir.new_temp f in
  let t1 = Ir.new_temp f in
  Alcotest.(check bool) "temps distinct" true (t0 <> t1);
  Alcotest.(check int) "count" 2 f.Ir.f_ntemps;
  let s0 = Ir.new_frame_slot f ~size:64 in
  let s1 = Ir.new_frame_slot f ~size:8 in
  Alcotest.(check bool) "slots distinct" true (s0 <> s1);
  Alcotest.(check int) "slot count" 2 (List.length f.Ir.f_frame_slots)

let test_signature_id_stability () =
  let s1 = { Ir.params = [ Ir.I64; Ir.Ptr Ir.I8 ]; ret = Ir.I64 } in
  let s2 = { Ir.params = [ Ir.I64; Ir.Ptr Ir.I8 ]; ret = Ir.I64 } in
  let s3 = { Ir.params = [ Ir.I64 ]; ret = Ir.I64 } in
  Alcotest.(check string) "equal sigs share ids" (Ir.signature_id s1) (Ir.signature_id s2);
  Alcotest.(check bool) "different sigs differ" true
    (Ir.signature_id s1 <> Ir.signature_id s3)

let test_verify_accepts_valid () =
  let m = empty_module () in
  let f = empty_func "f" in
  let t = Ir.new_temp f in
  f.Ir.f_blocks <-
    [ { Ir.b_label = "entry";
        b_instrs = [ Ir.Bin (Ir.Add, t, Ir.Const 1L, Ir.Const 2L) ];
        b_term = Ir.Ret (Some (Ir.Temp t)) } ];
  m.Ir.m_funcs <- [ f ];
  Alcotest.(check (list string)) "no errors" [] (Verify.check_module m)

let test_verify_rejects_bad_branch () =
  let m = empty_module () in
  let f = empty_func "f" in
  f.Ir.f_blocks <- [ { Ir.b_label = "entry"; b_instrs = []; b_term = Ir.Br "nowhere" } ];
  m.Ir.m_funcs <- [ f ];
  Alcotest.(check bool) "error reported" true (Verify.check_module m <> [])

let test_verify_rejects_bad_temp () =
  let m = empty_module () in
  let f = empty_func "f" in
  f.Ir.f_blocks <- [ ret_block (Ir.Temp 7) ] (* temp 7 never allocated *);
  m.Ir.m_funcs <- [ f ];
  Alcotest.(check bool) "error reported" true (Verify.check_module m <> [])

let test_verify_rejects_bad_slot () =
  let m = empty_module () in
  let f = empty_func "f" in
  let t = Ir.new_temp f in
  f.Ir.f_blocks <-
    [ { Ir.b_label = "entry"; b_instrs = [ Ir.Lea_frame (t, 3) ];
        b_term = Ir.Ret None } ];
  m.Ir.m_funcs <- [ f ];
  Alcotest.(check bool) "error reported" true (Verify.check_module m <> [])

let test_verify_rejects_dangling_global_ref () =
  let m = empty_module () in
  m.Ir.m_globals <-
    [ { Ir.g_name = "g"; g_section = ".data"; g_init = [ Ir.G_func "missing" ];
        g_bytes = None; g_zero = 0 } ];
  Alcotest.(check bool) "error reported" true (Verify.check_module m <> [])

let test_verify_rejects_duplicate_labels () =
  let m = empty_module () in
  let f = empty_func "f" in
  f.Ir.f_blocks <- [ ret_block (Ir.Const 0L); ret_block (Ir.Const 1L) ];
  m.Ir.m_funcs <- [ f ];
  Alcotest.(check bool) "error reported" true (Verify.check_module m <> [])

let has_error_mentioning needle errors =
  List.exists
    (fun e ->
      let re = Str.regexp_string needle in
      try ignore (Str.search_forward re e 0); true with Not_found -> false)
    errors

let test_verify_rejects_duplicate_functions () =
  let m = empty_module () in
  let mk () =
    let f = empty_func "twin" in
    f.Ir.f_blocks <- [ ret_block (Ir.Const 0L) ];
    f
  in
  m.Ir.m_funcs <- [ mk (); mk () ];
  Alcotest.(check bool) "error reported" true
    (has_error_mentioning "duplicate function name twin" (Verify.check_module m))

let test_verify_rejects_duplicate_globals () =
  let m = empty_module () in
  let g name =
    { Ir.g_name = name; g_section = ".data"; g_init = [ Ir.G_int 0L ];
      g_bytes = None; g_zero = 0 }
  in
  m.Ir.m_globals <- [ g "dup"; g "dup"; g "other" ];
  let errors = Verify.check_module m in
  Alcotest.(check bool) "error reported" true
    (has_error_mentioning "duplicate global name dup" errors);
  Alcotest.(check bool) "unique global not flagged" false
    (has_error_mentioning "other" errors)

(* The verifier's whole message list for a module with every kind of
   name fault, pinned exactly, order included: duplicate names are
   reported sorted and once each, after the per-function messages. *)
let test_verify_messages_pinned () =
  let m = empty_module () in
  let fn name labels =
    let f = empty_func name in
    f.Ir.f_blocks <- List.map (fun label -> ret_block ~label (Ir.Const 0L)) labels;
    f.Ir.f_blocks <-
      f.Ir.f_blocks @ [ { (ret_block ~label:"tail" (Ir.Const 0L)) with b_term = Ir.Br "gone" } ];
    f
  in
  let g name init =
    { Ir.g_name = name; g_section = ".data"; g_init = init; g_bytes = None; g_zero = 0 }
  in
  m.Ir.m_funcs <-
    [ fn "zf" [ "entry"; "x"; "entry"; "x" ]; fn "af" [ "entry" ]; fn "zf" [ "entry" ];
      fn "af" [ "entry" ] ];
  m.Ir.m_globals <-
    [ g "zg" [ Ir.G_func "nofun" ]; g "ag" [ Ir.G_global "noglob"; Ir.G_func "af" ];
      g "zg" []; g "ag" [] ];
  m.Ir.m_vtables <-
    [ { Ir.vt_class = "C"; vt_symbol = "novt"; vt_root = "C"; vt_methods = [ "af"; "nom" ] } ];
  Alcotest.(check (list string)) "messages"
    [
      "af: branch to unknown label gone";
      "zf: branch to unknown label gone";
      "af: branch to unknown label gone";
      "zf: duplicate labels entry,x,entry,x";
      "zf: branch to unknown label gone";
      "duplicate function name af";
      "duplicate function name zf";
      "duplicate global name ag";
      "duplicate global name zg";
      "global zg references unknown function nofun";
      "global ag references unknown global noglob";
      "vtable C: missing global novt";
      "vtable C: missing method nom";
    ]
    (Verify.check_module m)

let test_printing () =
  let i =
    Ir.Load { dst = 0; addr = Ir.Global "tbl"; offset = 8; width = Ir.W64;
              md = { Ir.roload_key = Some 7; ro_elided = false } }
  in
  Alcotest.(check string) "roload-md rendered" "%t0 = load.64 @tbl+8 !roload(7)"
    (Ir.instr_to_string i);
  Alcotest.(check string) "cbr" "cbr %t1, a, b" (Ir.term_to_string (Ir.Cbr (Ir.Temp 1, "a", "b")))

let test_uses_defs () =
  let i = Ir.Bin (Ir.Add, 3, Ir.Temp 1, Ir.Temp 2) in
  Alcotest.(check (list int)) "defs" [ 3 ] (Ir.instr_defs i);
  Alcotest.(check (list int)) "uses" [ 1; 2 ] (Ir.instr_uses i);
  let c = Ir.Call { dst = Some 5; callee = "f"; args = [ Ir.Temp 4; Ir.Const 0L ] } in
  Alcotest.(check (list int)) "call defs" [ 5 ] (Ir.instr_defs c);
  Alcotest.(check (list int)) "call uses" [ 4 ] (Ir.instr_uses c);
  Alcotest.(check bool) "call is call" true (Ir.is_call c);
  Alcotest.(check bool) "bin is not" false (Ir.is_call i)

let suite =
  [
    Alcotest.test_case "temps and slots" `Quick test_temps_and_slots;
    Alcotest.test_case "signature identity" `Quick test_signature_id_stability;
    Alcotest.test_case "verify accepts valid" `Quick test_verify_accepts_valid;
    Alcotest.test_case "verify rejects bad branch" `Quick test_verify_rejects_bad_branch;
    Alcotest.test_case "verify rejects bad temp" `Quick test_verify_rejects_bad_temp;
    Alcotest.test_case "verify rejects bad slot" `Quick test_verify_rejects_bad_slot;
    Alcotest.test_case "verify rejects dangling refs" `Quick test_verify_rejects_dangling_global_ref;
    Alcotest.test_case "verify rejects duplicate labels" `Quick test_verify_rejects_duplicate_labels;
    Alcotest.test_case "verify rejects duplicate functions" `Quick test_verify_rejects_duplicate_functions;
    Alcotest.test_case "verify rejects duplicate globals" `Quick test_verify_rejects_duplicate_globals;
    Alcotest.test_case "verify messages pinned" `Quick test_verify_messages_pinned;
    Alcotest.test_case "printing" `Quick test_printing;
    Alcotest.test_case "uses/defs" `Quick test_uses_defs;
  ]
