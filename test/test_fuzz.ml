(* Fuzzer tests: corpus replay (every checked-in reproducer must still
   conform to its pinned per-scheme behavior), a small fixed-seed
   differential run, and the oracle mutation self-check.

   The corpus files live in corpus/ at the repo root; dune copies them
   into the test sandbox via the deps glob in test/dune. *)

module Pass = Roload_passes.Pass
module Trapclass = Roload_security.Trapclass
module Gen = Roload_fuzz.Gen
module Diff = Roload_fuzz.Diff
module Ir_eval = Roload_fuzz.Ir_eval
module Prng = Roload_util.Prng

let corpus_dir = "../corpus"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let behavior_lines behaviors =
  String.concat ""
    (List.map
       (fun (s, (b : Ir_eval.behavior)) ->
         Printf.sprintf "%s\t%s\t%s\n" (Pass.scheme_name s)
           (Trapclass.stop_name b.Ir_eval.stop)
           (String.escaped b.Ir_eval.output))
       behaviors)

let corpus_entries () =
  if not (Sys.file_exists corpus_dir) then []
  else
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mc")
    |> List.sort compare

let test_corpus_replay () =
  let entries = corpus_entries () in
  if List.length entries < 8 then
    Alcotest.failf "corpus too small: %d entries (expected >= 8)"
      (List.length entries);
  List.iter
    (fun entry ->
      let path = Filename.concat corpus_dir entry in
      let source = read_file path in
      match Diff.run_source ~name:entry source with
      | Diff.Skipped r -> Alcotest.failf "%s: skipped (%s)" entry r
      | Diff.Divergent d ->
        Alcotest.failf "%s: divergence under %s at %s\n  expected %s\n  actual   %s"
          entry (Pass.scheme_name d.Diff.dv_scheme) d.Diff.dv_stage
          d.Diff.dv_expected d.Diff.dv_actual
      | Diff.Agree behaviors ->
        let expected_path =
          Filename.concat corpus_dir (Filename.remove_extension entry ^ ".expected")
        in
        Alcotest.(check string)
          (entry ^ " pinned behavior")
          (read_file expected_path) (behavior_lines behaviors))
    entries

(* every reproducer must stay a minimal, readable test: the main body
   (past the declarations) within the shrinker's reach *)
let test_corpus_entries_small () =
  List.iter
    (fun entry ->
      let source = read_file (Filename.concat corpus_dir entry) in
      let lines =
        List.filter
          (fun l -> String.trim l <> "")
          (String.split_on_char '\n' source)
      in
      if List.length lines > 25 then
        Alcotest.failf "%s: %d non-blank lines (shrunk reproducers must be <= 25)"
          entry (List.length lines))
    (corpus_entries ())

(* a short fixed-seed differential run: the generator, oracle, both
   engines and all schemes agree on freshly generated programs (Retcall
   too, which the fuzzer's default scheme matrix leaves out) *)
let test_fixed_seed_agreement () =
  let rng = Prng.create 406L in
  for _ = 1 to 4 do
    let seed = Prng.next_int64 rng in
    let prog = Gen.generate ~seed ~size:2 in
    match
      Diff.run_source
        ~schemes:(Diff.schemes_under_test @ [ Pass.Retcall ])
        ~name:"fixed-seed" (Gen.to_source prog)
    with
    | Diff.Agree _ -> ()
    | Diff.Skipped r -> Alcotest.failf "seed %Ld: skipped (%s)" seed r
    | Diff.Divergent d ->
      Alcotest.failf "seed %Ld: divergence under %s at %s\n  expected %s\n  actual   %s"
        seed (Pass.scheme_name d.Diff.dv_scheme) d.Diff.dv_stage d.Diff.dv_expected
        d.Diff.dv_actual
  done

(* the oracle self-check in miniature: a planted ICall miscompile (the
   GFPT redirect dropped from one call site) must be flagged *)
let test_planted_miscompile_caught () =
  let rng = Prng.create 11L in
  let caught = ref false in
  let i = ref 0 in
  while (not !caught) && !i < 40 do
    incr i;
    let seed = Prng.next_int64 rng in
    let prog = Gen.generate ~seed ~size:3 in
    match
      Diff.run_source ~schemes:[ Pass.Icall ] ~sabotage:Diff.sabotage_drop_gfpt
        ~name:"sabotage" (Gen.to_source prog)
    with
    | Diff.Divergent _ -> caught := true
    | Diff.Agree _ | Diff.Skipped _ -> ()
  done;
  if not !caught then
    Alcotest.failf "planted GFPT miscompile not caught within %d cases" !i

(* the sabotage hook sees the IR codegen gets: under --elide that is the
   elided module, so an indirect call in a loop over a loop-invariant
   pointer (a prove-clean, elidable site) arrives with [ic_elided] set *)
let elidable_src =
  {|
typedef int (*op_t)(int, int);
int add(int a, int b) { return a + b; }
int main() {
  op_t f = add;
  int s = 0;
  int i;
  for (i = 0; i < 10; i = i + 1) {
    s = f(s, i);
  }
  print_int(s);
  print_char('\n');
  return 0;
}
|}

let test_sabotage_sees_elision () =
  let seen = ref false in
  let hook _scheme (m : Roload_ir.Ir.modul) =
    List.iter
      (fun (f : Roload_ir.Ir.func) ->
        List.iter
          (fun (b : Roload_ir.Ir.block) ->
            List.iter
              (function
                | Roload_ir.Ir.Call_indirect { md; _ } when md.Roload_ir.Ir.ic_elided ->
                  seen := true
                | Roload_ir.Ir.Load { md; _ } when md.Roload_ir.Ir.ro_elided -> seen := true
                | _ -> ())
              b.Roload_ir.Ir.b_instrs)
          f.Roload_ir.Ir.f_blocks)
      m.Roload_ir.Ir.m_funcs;
    false
  in
  (match
     Diff.run_source ~elide:true ~schemes:[ Pass.Icall ] ~sabotage:hook ~name:"elidable"
       elidable_src
   with
  | Diff.Agree _ -> ()
  | Diff.Skipped r -> Alcotest.failf "skipped: %s" r
  | Diff.Divergent d -> Alcotest.failf "divergent at %s" d.Diff.dv_stage);
  Alcotest.(check bool) "hook saw an elided site" true !seen

let suite =
  [
    Alcotest.test_case "corpus replay (pinned behaviors)" `Quick test_corpus_replay;
    Alcotest.test_case "corpus entries stay small" `Quick test_corpus_entries_small;
    Alcotest.test_case "fixed-seed differential agreement" `Slow test_fixed_seed_agreement;
    Alcotest.test_case "planted miscompile caught" `Slow test_planted_miscompile_caught;
    Alcotest.test_case "sabotage hook sees the elided IR" `Quick test_sabotage_sees_elision;
  ]
