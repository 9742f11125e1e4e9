(* roload-prove tests: the whole-program abstract interpretation must
   reach a fixpoint with zero findings on every clean workload build,
   catch the planted interprocedural violations (with witness paths)
   that lint's definite layer-2 view stays silent on, and the proof-guided
   elision it licenses must be semantically invisible — identical
   output, byte-identical chaos detection coverage — while removing a
   large fraction of the dynamic ld.ro executions. *)

module Ir = Roload_ir.Ir
module Pass = Roload_passes.Pass
module Suite = Roload_workloads.Spec_suite
module Toolchain = Core.Toolchain
module System = Core.System
module Diagnostic = Roload_analysis.Diagnostic
module Prove = Roload_analysis.Prove
module Campaign = Roload_inject.Campaign
module Gen = Roload_fuzz.Gen
module Diff = Roload_fuzz.Diff
module Prng = Roload_util.Prng

let compile ?(elide = false) ~scheme ~name src =
  let options = { Toolchain.default_options with Toolchain.scheme; elide } in
  Toolchain.compile ~options ~name src

let prove ~scheme ~name src = Toolchain.prove (compile ~scheme ~name src)

let has_code ~code diags = List.exists (fun d -> d.Diagnostic.code = code) diags

(* ---------- fixpoint, clean on every workload x scheme ---------- *)

let test_clean_workloads () =
  List.iter
    (fun scheme ->
      List.iter
        (fun (b : Suite.benchmark) ->
          let label =
            Printf.sprintf "%s/%s" (Pass.scheme_name scheme) b.Suite.name
          in
          let r = prove ~scheme ~name:b.Suite.name (b.Suite.source ~scale:1) in
          (match r.Prove.pr_diags with
          | [] -> ()
          | ds ->
            Alcotest.failf "%s: expected a clean prove, got:\n%s" label
              (Prove.report_to_string { r with Prove.pr_diags = ds }));
          if r.Prove.pr_rounds >= 50 then
            Alcotest.failf "%s: fixpoint took %d rounds" label r.Prove.pr_rounds;
          Alcotest.(check int) (label ^ ": exit code") 0 (Prove.exit_code r))
        Suite.all)
    (Pass.all_schemes @ [ Pass.Retcall ])

(* ---------- the planted interprocedural violations ---------- *)

(* Same shape as examples/laundered.mc: a writable array's address is
   cast to a function pointer and laundered through a callee's return
   value.  Benign at runtime (pick = 0); lint-clean because the correctly
   keyed entry for add may flow too. *)
let laundered_src =
  {|
typedef int (*op_t)(int, int);
int add(int a, int b) { return a + b; }
int backdoor[2] = { 11, 13 };
op_t launder(int pick) {
  if (pick) { return (op_t)backdoor; }
  return add;
}
int main() {
  op_t f = launder(0);
  print_int(f(20, 22));
  return 0;
}
|}

(* Same shape as examples/outparam.mc: a callee stores a writable
   pointee into the caller's handler table through an out-pointer
   parameter.  Benign at runtime (danger = 0); the bad store happens in
   another function. *)
let outparam_src =
  {|
typedef int (*op_t)(int, int);
int add(int a, int b) { return a + b; }
int mul(int a, int b) { return a * b; }
int scratch[2] = { 7, 9 };
void pick_handler(op_t *slot, int danger) {
  slot[0] = add;
  slot[1] = mul;
  if (danger) { slot[1] = (op_t)scratch; }
}
int main() {
  op_t hs[2];
  pick_handler(hs, 0);
  print_int(hs[0](6, 7) + hs[1](2, 3));
  return 0;
}
|}

let check_planted ~label ~witness_frag src =
  let artifacts = compile ~scheme:Pass.Icall ~name:label src in
  (* lint-clean: a correctly keyed entry may also reach the site, so
     layer 2's definite key-mismatch check stays silent *)
  (match Toolchain.lint artifacts with
  | [] -> ()
  | ds ->
    Alcotest.failf "%s: lint should be clean, got:\n%s" label
      (Diagnostic.report_to_string ds));
  (* caught by roload-prove, with an interprocedural witness *)
  let r = Toolchain.prove artifacts in
  Alcotest.(check bool)
    (label ^ ": prove-writable-pointee reported")
    true
    (has_code ~code:"prove-writable-pointee" r.Prove.pr_diags);
  Alcotest.(check int) (label ^ ": exit 3") 3 (Prove.exit_code r);
  let report = Prove.report_to_string r in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: witness mentions %s" label witness_frag)
    true
    (contains report witness_frag);
  (* benign execution: the bad path is never taken *)
  let ms =
    System.run ~variant:System.Processor_kernel_modified artifacts.Toolchain.exe
  in
  Alcotest.(check bool) (label ^ ": runs clean") true (System.exited_cleanly ms)

let test_planted_laundered () =
  check_planted ~label:"laundered" ~witness_frag:"returned at launder" laundered_src

let test_planted_outparam () =
  check_planted ~label:"outparam" ~witness_frag:"stored at pick_handler" outparam_src

(* ---------- proof-guided elision ---------- *)

let h264 =
  match Suite.find "h264ref" with
  | Some b -> b
  | None -> Alcotest.fail "h264ref missing from the suite"

let test_elide_h264 () =
  let src = h264.Suite.source ~scale:1 in
  let plain = compile ~scheme:Pass.Icall ~name:"h264ref" src in
  let elided = compile ~elide:true ~scheme:Pass.Icall ~name:"h264ref" src in
  (match elided.Toolchain.elide_stats with
  | Some s when s.Roload_passes.Roload_elide.el_icalls > 0 -> ()
  | Some _ -> Alcotest.fail "h264ref: no icall sites elided"
  | None -> Alcotest.fail "elide_stats missing under options.elide");
  let run exe = System.run ~variant:System.Processor_kernel_modified exe in
  let mp = run plain.Toolchain.exe and me = run elided.Toolchain.exe in
  Alcotest.(check bool) "plain clean" true (System.exited_cleanly mp);
  Alcotest.(check bool) "elided clean" true (System.exited_cleanly me);
  Alcotest.(check string) "identical output" mp.System.output me.System.output;
  let rb = mp.System.roloads_executed and ra = me.System.roloads_executed in
  if rb = 0 then Alcotest.fail "h264ref executed no ld.ro under icall";
  let reduction = 100.0 *. float_of_int (rb - ra) /. float_of_int rb in
  if reduction < 10.0 then
    Alcotest.failf "elision removed only %.1f%% of dynamic ld.ro (%d -> %d)"
      reduction rb ra;
  (* the removed executions are the per-type GFPT indirections
     (Machine.roload_key_counts keys 2..), surfaced as roload_typed *)
  Alcotest.(check bool) "typed ld.ro count dropped" true
    (me.System.metrics.Roload_obs.Metrics.roload_typed
    < mp.System.metrics.Roload_obs.Metrics.roload_typed);
  Alcotest.(check int) "no roload faults (plain)" 0
    (Roload_obs.Metrics.roload_faults mp.System.metrics);
  Alcotest.(check int) "no roload faults (elided)" 0
    (Roload_obs.Metrics.roload_faults me.System.metrics)

(* elision is licensed only by a clean prove run: a module with findings
   compiles under --elide with zero sites rewritten *)
let test_elide_disabled_on_findings () =
  let artifacts = compile ~elide:true ~scheme:Pass.Icall ~name:"laundered" laundered_src in
  match artifacts.Toolchain.elide_stats with
  | None -> Alcotest.fail "elide_stats missing under options.elide"
  | Some s ->
    Alcotest.(check int) "no icalls elided" 0 s.Roload_passes.Roload_elide.el_icalls;
    Alcotest.(check int) "no loads elided" 0 s.Roload_passes.Roload_elide.el_loads;
    Alcotest.(check int) "no checks inserted" 0 s.Roload_passes.Roload_elide.el_checks

(* ---------- elision is invisible to chaos detection coverage ---------- *)

let test_chaos_coverage_identical () =
  let cfg =
    { Campaign.default_config with Campaign.seed = 11L; count = 6; jobs = Some 2 }
  in
  let table r = Roload_util.Table.render (Campaign.coverage_table r) in
  let plain = table (Campaign.run cfg) in
  let elided = table (Campaign.run { cfg with Campaign.elide = true }) in
  Alcotest.(check string) "coverage table byte-identical" plain elided

(* ---------- elision is invisible to the differential matrix ---------- *)

let outcome_line = function
  | Diff.Agree bs ->
    "agree:"
    ^ String.concat ","
        (List.map
           (fun (s, (b : Roload_fuzz.Ir_eval.behavior)) ->
             Printf.sprintf "%s=%s/%s" (Pass.scheme_name s)
               (Roload_security.Trapclass.stop_name b.Roload_fuzz.Ir_eval.stop)
               (String.escaped b.Roload_fuzz.Ir_eval.output))
           bs)
  | Diff.Skipped r -> "skip:" ^ r
  | Diff.Divergent d ->
    Printf.sprintf "divergent:%s/%s" (Pass.scheme_name d.Diff.dv_scheme) d.Diff.dv_stage

let elide_equivalence =
  QCheck.Test.make ~name:"elided and unelided builds are outcome-identical"
    ~count:8
    QCheck.(map Int64.of_int small_int)
    (fun seed ->
      let prog = Gen.generate ~seed ~size:3 in
      let src = Gen.to_source prog in
      let plain = Diff.run_source ~name:"eq" src in
      let elided = Diff.run_source ~elide:true ~name:"eq" src in
      String.equal (outcome_line plain) (outcome_line elided))

let suite =
  [
    Alcotest.test_case "fixpoint clean on all workloads x schemes" `Slow
      test_clean_workloads;
    Alcotest.test_case "planted: fptr laundered through return" `Quick
      test_planted_laundered;
    Alcotest.test_case "planted: keyed table aliased via out-param" `Quick
      test_planted_outparam;
    Alcotest.test_case "h264ref: >=10% dynamic ld.ro elided, same output" `Slow
      test_elide_h264;
    Alcotest.test_case "findings disable elision" `Quick
      test_elide_disabled_on_findings;
    Alcotest.test_case "chaos coverage identical under elision" `Slow
      test_chaos_coverage_identical;
    Seeded.to_alcotest elide_equivalence;
  ]
