(* roload-lint tests: the verifier must be silent on everything the
   toolchain produces (all schemes, all toolchain sources, the workload
   suite) and must catch a planted violation at each of its three
   layers. *)

module Ir = Roload_ir.Ir
module Pass = Roload_passes.Pass
module Spec_suite = Roload_workloads.Spec_suite
module Toolchain = Core.Toolchain
module Diagnostic = Roload_analysis.Diagnostic
module Lint = Roload_analysis.Lint

let compile ~scheme ~name src =
  let options = { Toolchain.default_options with Toolchain.scheme } in
  Toolchain.compile ~options ~name src

let check_clean label artifacts =
  match Toolchain.lint artifacts with
  | [] -> ()
  | findings ->
    Alcotest.failf "%s: expected a clean lint, got:\n%s" label
      (Diagnostic.report_to_string findings)

let relint ?scheme artifacts =
  let scheme =
    match scheme with
    | Some s -> s
    | None -> artifacts.Toolchain.pass_report.Pass.scheme
  in
  Lint.run ~scheme ~ir:artifacts.Toolchain.ir_module ~exe:artifacts.Toolchain.exe

let has ~layer ~code findings =
  List.exists
    (fun d -> d.Diagnostic.layer = layer && d.Diagnostic.code = code)
    findings

let check_caught label ~layer ~code findings =
  Alcotest.(check bool)
    (Printf.sprintf "%s: [%s] %s reported" label (Diagnostic.layer_name layer) code)
    true (has ~layer ~code findings);
  Alcotest.(check int) (label ^ ": nonzero exit") 3 (Lint.exit_code findings);
  Alcotest.(check bool) (label ^ ": not ok") false (Lint.ok findings)

(* ---------- positive: every scheme, every toolchain source ---------- *)

let toolchain_sources =
  [
    ("fib", Test_toolchain.fib_src);
    ("fptr", Test_toolchain.fptr_src);
    ("vcall", Test_toolchain.vcall_src);
    ("methods", Test_toolchain.methods_src);
  ]

let test_clean_all_schemes () =
  List.iter
    (fun scheme ->
      List.iter
        (fun (name, src) ->
          let label = Printf.sprintf "%s/%s" (Pass.scheme_name scheme) name in
          check_clean label (compile ~scheme ~name src))
        toolchain_sources)
    (Pass.all_schemes @ [ Pass.Retcall ])

let test_clean_workloads () =
  let scale = Spec_suite.test_scale in
  List.iter
    (fun (b : Spec_suite.benchmark) ->
      List.iter
        (fun scheme ->
          let label =
            Printf.sprintf "%s/%s" (Pass.scheme_name scheme) b.Spec_suite.name
          in
          check_clean label
            (compile ~scheme ~name:b.Spec_suite.name (b.Spec_suite.source ~scale)))
        [ Pass.Vcall; Pass.Icall ])
    Spec_suite.all

(* ---------- negative: layer 1 (IR completeness) ---------- *)

let first_icall_md m =
  let found = ref None in
  List.iter
    (fun f ->
      List.iter
        (fun b ->
          List.iter
            (function
              | Ir.Call_indirect { md; _ } when !found = None -> found := Some md
              | _ -> ())
            b.Ir.b_instrs)
        f.Ir.f_blocks)
    m.Ir.m_funcs;
  match !found with
  | Some md -> md
  | None -> Alcotest.fail "expected an indirect call in the module"

let test_catches_deannotated_icall () =
  let a = compile ~scheme:Pass.Icall ~name:"fptr" Test_toolchain.fptr_src in
  let md = first_icall_md a.Toolchain.ir_module in
  md.Ir.ic_roload_key <- None;
  check_caught "stripped icall annotation" ~layer:Diagnostic.Ir_completeness
    ~code:"unannotated-icall" (relint a)

(* ---------- negative: layer 2 (key consistency / ro-store lint) ---------- *)

let test_catches_store_to_keyed_global () =
  let a = compile ~scheme:Pass.Icall ~name:"fptr" Test_toolchain.fptr_src in
  let m = a.Toolchain.ir_module in
  let victim =
    try
      List.find
        (fun g -> String.starts_with ~prefix:".rodata.key." g.Ir.g_section)
        m.Ir.m_globals
    with Not_found -> Alcotest.fail "expected a keyed read-only global"
  in
  let f = List.find (fun f -> f.Ir.f_name = "main") m.Ir.m_funcs in
  (match f.Ir.f_blocks with
  | [] -> Alcotest.fail "main has no blocks"
  | b :: rest ->
    let store =
      Ir.Store
        { src = Ir.Const 0L; addr = Ir.Global victim.Ir.g_name; offset = 0;
          width = Ir.W64 }
    in
    f.Ir.f_blocks <- { b with Ir.b_instrs = store :: b.Ir.b_instrs } :: rest);
  check_caught "store into keyed rodata" ~layer:Diagnostic.Dataflow
    ~code:"store-to-rodata" (relint a)

(* a keyed indirect call whose only possible pointee is a writable array:
   the ld.ro of that address can only fault *)
let writable_callee_src =
  {|
typedef int (*cb0_t)(int);
int data[2] = { 1, 2 };
int main() {
  cb0_t f = (cb0_t)data;
  print_int(f(3));
  return 0;
}
|}

(* a GFPT entry of one signature carried through integer stack memory and
   called as another: the abstract memory keeps the entry across the
   store/load round trip, so the wrongly keyed call site is definite *)
let memory_carried_src =
  {|
typedef int (*cb0_t)(int);
typedef int (*cb1_t)(int, int);
int twin0(int x) { print_str("[t0]"); return 72; }
int main() {
  int mem[2];
  mem[0] = (int)twin0;
  mem[1] = 0;
  cb1_t m = (cb1_t)mem[0];
  print_int(m(1, 2));
  return 0;
}
|}

(* a writable stack address read back from the same collapsed stack cell
   that also holds a GFPT entry: the store only ever writes [buf], so
   store-to-rodata must not guess from the memory-derived pointer set *)
let stack_alias_src =
  {|
int twin0(int x) { print_str("[t0]"); return 72; }
int main() {
  int m[2];
  int buf[2];
  m[0] = (int)twin0;
  m[1] = (int)buf;
  int *q = (int *)m[1];
  q[0] = 5;
  print_int(buf[0]);
  return 0;
}
|}

(* a store through an integer-derived address (a wild store) overwrites
   the twin0 entry with the correctly keyed twin1 entry; the abstract
   memory misses that write, so its twin0-only view of [mem] must not
   turn into a key-mismatch *)
let wild_store_src =
  {|
typedef int (*cb1_t)(int, int);
int twin0(int x) { print_str("[t0]"); return 72; }
int twin1(int x, int y) { print_str("[t1]"); return x + y; }
int main() {
  int mem[2];
  mem[0] = (int)twin0;
  *(int *)((int)mem * 1) = (int)twin1;
  cb1_t m = (cb1_t)mem[0];
  print_int(m(1, 2));
  return 0;
}
|}

let test_memory_guesses_stay_silent () =
  List.iter
    (fun (label, src) -> check_clean label (compile ~scheme:Pass.Icall ~name:"memclean" src))
    [
      ("writable address beside a GFPT entry on the stack", stack_alias_src);
      ("correct entry written by a wild store", wild_store_src);
    ]

let test_catches_key_mismatch () =
  List.iter
    (fun (label, src) ->
      check_caught label ~layer:Diagnostic.Dataflow ~code:"key-mismatch"
        (Toolchain.lint (compile ~scheme:Pass.Icall ~name:"keymismatch" src)))
    [
      ("icall through a writable global", writable_callee_src);
      ("wrong-key entry carried through memory", memory_carried_src);
    ]

(* Layer-2 findings are definite: a generated program flagged under ICall
   must stop with a trap under ICall in the reference interpreter. *)
let layer2_findings_trap =
  QCheck.Test.make ~name:"layer-2 findings under icall trap in Ir_eval" ~count:60
    QCheck.(pair (int_range 1 1_000_000) (int_range 3 6))
    (fun (seed, size) ->
      let src =
        Roload_fuzz.Gen.to_source (Roload_fuzz.Gen.generate ~seed:(Int64.of_int seed) ~size)
      in
      match compile ~scheme:Pass.Icall ~name:"gen" src with
      | exception Toolchain.Compile_error _ -> QCheck.assume_fail ()
      | a -> (
        let flagged =
          List.exists
            (fun d -> d.Diagnostic.layer = Diagnostic.Dataflow)
            (Toolchain.lint a)
        in
        (not flagged)
        ||
        match Roload_fuzz.Diff.oracle_behaviors ~schemes:[ Pass.Icall ] src with
        | [ (_, b) ] -> (
          match b.Roload_fuzz.Ir_eval.stop with
          | Roload_security.Trapclass.Trap _ -> true
          | Roload_security.Trapclass.Exit _ | Roload_security.Trapclass.Timeout -> false)
        | _ -> false
        | exception Roload_fuzz.Ir_eval.Unsupported _ -> QCheck.assume_fail ()))

(* ---------- negative: layer 3 (machine cross-check) ---------- *)

let tamper_keyed_segment a f =
  let exe = a.Toolchain.exe in
  let tampered = ref false in
  let segments =
    List.map
      (fun (s : Roload_obj.Exe.segment) ->
        if s.Roload_obj.Exe.key > 0 && not !tampered then (
          tampered := true;
          f s)
        else s)
      exe.Roload_obj.Exe.segments
  in
  if not !tampered then Alcotest.fail "expected a keyed segment in the image";
  { exe with Roload_obj.Exe.segments }

let test_catches_segment_key_tamper () =
  let a = compile ~scheme:Pass.Icall ~name:"fptr" Test_toolchain.fptr_src in
  (* retarget the first keyed segment to an unrelated key: every ld.ro
     that named the original key now has no backing segment *)
  let exe =
    tamper_keyed_segment a (fun s -> { s with Roload_obj.Exe.key = 999 })
  in
  let findings =
    Lint.run ~scheme:Pass.Icall ~ir:a.Toolchain.ir_module ~exe
  in
  check_caught "retargeted segment key" ~layer:Diagnostic.Machine_check
    ~code:"roload-key-without-segment" findings

let test_catches_writable_keyed_segment () =
  let a = compile ~scheme:Pass.Icall ~name:"fptr" Test_toolchain.fptr_src in
  let exe =
    tamper_keyed_segment a (fun s ->
        { s with Roload_obj.Exe.perms = Roload_mem.Perm.rw })
  in
  let findings =
    Lint.run ~scheme:Pass.Icall ~ir:a.Toolchain.ir_module ~exe
  in
  check_caught "writable keyed segment" ~layer:Diagnostic.Machine_check
    ~code:"keyed-segment-not-read-only" findings

(* ---------- diagnostics rendering ---------- *)

let test_report_rendering () =
  Alcotest.(check string) "clean text report" "lint: 0 findings\n"
    (Diagnostic.report_to_string []);
  Alcotest.(check string) "clean json report" "{\"findings\":[],\"count\":0}\n"
    (Diagnostic.report_to_json []);
  let d =
    Diagnostic.make Diagnostic.Ir_completeness ~code:"unannotated-icall"
      ~site:"main/entry" "say \"%s\"" "hi"
  in
  Alcotest.(check string) "finding line"
    "[ir] unannotated-icall at main/entry: say \"hi\"" (Diagnostic.to_string d);
  let json = Diagnostic.report_to_json [ d ] in
  Alcotest.(check bool) "json escapes quotes" true
    (let re = Str.regexp_string "say \\\"hi\\\"" in
     try ignore (Str.search_forward re json 0); true with Not_found -> false);
  Alcotest.(check int) "clean exit code" 0 (Lint.exit_code []);
  Alcotest.(check bool) "clean ok" true (Lint.ok [])

(* Every JSON writer in the repo shares Roload_util.Json.escape; a string
   holding any byte 0x00-0x1f (diagnostic sites can carry raw bytes from
   fuzz-generated names) must escape to a fragment with no literal
   control characters, and unescaping it must give back the original. *)
let json_unescape s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      if s.[i] = '\\' then begin
        (match s.[i + 1] with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | 'n' -> Buffer.add_char b '\n'
        | 'u' ->
          Buffer.add_char b
            (Char.chr (int_of_string ("0x" ^ String.sub s (i + 2) 4)))
        | c -> Alcotest.failf "unexpected escape \\%c" c);
        go (i + if s.[i + 1] = 'u' then 6 else 2)
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

let test_json_escape_roundtrip () =
  let controls = String.init 0x20 Char.chr in
  let tricky = "plain \"quoted\" back\\slash" ^ controls ^ "\ttab\nnl" in
  List.iter
    (fun s ->
      let e = Roload_util.Json.escape s in
      String.iter
        (fun c ->
          if Char.code c < 0x20 then
            Alcotest.failf "escape left a raw control byte 0x%02x in %S"
              (Char.code c) e)
        e;
      Alcotest.(check string)
        (Printf.sprintf "round-trips %S" s)
        s (json_unescape e))
    [ ""; "no escapes"; controls; tricky ]

let suite =
  [
    Alcotest.test_case "clean on all schemes x sources" `Quick test_clean_all_schemes;
    Alcotest.test_case "clean on the workload suite" `Quick test_clean_workloads;
    Alcotest.test_case "catches de-annotated icall (layer 1)" `Quick
      test_catches_deannotated_icall;
    Alcotest.test_case "catches store to keyed rodata (layer 2)" `Quick
      test_catches_store_to_keyed_global;
    Alcotest.test_case "catches keyed icall with no keyed pointee (layer 2)" `Quick
      test_catches_key_mismatch;
    Alcotest.test_case "memory-derived guesses stay silent (layer 2)" `Quick
      test_memory_guesses_stay_silent;
    Seeded.to_alcotest layer2_findings_trap;
    Alcotest.test_case "catches segment key tamper (layer 3)" `Quick
      test_catches_segment_key_tamper;
    Alcotest.test_case "catches writable keyed segment (layer 3)" `Quick
      test_catches_writable_keyed_segment;
    Alcotest.test_case "report rendering" `Quick test_report_rendering;
    Alcotest.test_case "json escape round-trips control chars" `Quick
      test_json_escape_roundtrip;
  ]
