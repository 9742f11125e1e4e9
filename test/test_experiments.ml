(* Experiment-driver tests: each table/figure driver produces the paper's
   qualitative shape on a reduced workload set. *)

module Suite = Roload_workloads.Spec_suite
module Pass = Roload_passes.Pass
module Exp = Core.Experiments

let small = [ Option.get (Suite.find "xalancbmk"); Option.get (Suite.find "gobmk") ]

let test_table1_table2 () =
  Alcotest.(check int) "table1 rows" 3 (List.length (Roload_util.Table.rows (Exp.table1 ())));
  Alcotest.(check bool) "table2 nonempty" true
    (Roload_util.Table.rows (Exp.table2 ()) <> [])

let test_table3 () =
  let r = Exp.table3 () in
  Alcotest.(check int) "two rows" 2 (List.length (Roload_util.Table.rows r.Exp.table));
  let c = r.Exp.synth.Roload_hw.Synth.comparison in
  Alcotest.(check bool) "core LUT growth within paper bound" true
    (c.Roload_hw.Area.lut_increase_core_pct > 0.0
    && c.Roload_hw.Area.lut_increase_core_pct < 3.32)

(* §V-B: the ROLoad system runs unmodified binaries at ~0% overhead *)
let test_section5b_zero_overhead () =
  let r = Exp.section5b ~scale:1 ~benchmarks:small () in
  Alcotest.(check bool) "processor overhead < 0.1%" true
    (abs_float r.Exp.avg_runtime_overhead_processor < 0.1);
  Alcotest.(check bool) "kernel overhead < 0.1%" true
    (abs_float r.Exp.avg_runtime_overhead_kernel < 0.1)

(* Figure 3 shape: VCall cheap, VTint substantially more expensive *)
let test_figure3_shape () =
  let r = Exp.figure3 ~scale:1 () in
  let vcall = List.assoc Pass.Vcall r.Exp.runtime_averages in
  let vtint = List.assoc Pass.Vtint_baseline r.Exp.runtime_averages in
  Alcotest.(check bool) "VCall below 1%" true (vcall < 1.0);
  Alcotest.(check bool) "VTint > 3x VCall" true (vtint > 3.0 *. vcall);
  (* memory: VTint's code growth shows up, as in the paper *)
  let vtint_mem = List.assoc Pass.Vtint_baseline r.Exp.memory_averages in
  Alcotest.(check bool) "VTint memory overhead positive" true (vtint_mem > 0.0)

(* Figures 4/5 shape: ICall ~free, CFI clearly more expensive *)
let test_figure45_shape () =
  let r = Exp.figure45 ~scale:1 ~benchmarks:small () in
  let icall = List.assoc Pass.Icall r.Exp.runtime_averages in
  let cfi = List.assoc Pass.Cfi_baseline r.Exp.runtime_averages in
  Alcotest.(check bool) "ICall below 1%" true (icall < 1.0);
  Alcotest.(check bool) "CFI above ICall" true (cfi > icall)

let test_ablation_tables () =
  Alcotest.(check bool) "compressed saves bytes" true
    (List.for_all
       (fun row ->
         match row with
         | [ _; unc; com; _ ] -> int_of_string com < int_of_string unc
         | _ -> true)
       (Roload_util.Table.rows (Exp.ablation_compressed ~benchmarks:small ())));
  let sc = Exp.ablation_separate_code () in
  match Roload_util.Table.rows sc with
  | [ [ _; with_sc ]; [ _; without_sc ] ] ->
    Alcotest.(check string) "separate-code runs" "exit 0" with_sc;
    Alcotest.(check bool) "merged layout faults" true
      (String.length without_sc > 7 && String.sub without_sc 0 7 = "SIGSEGV")
  | _ -> Alcotest.fail "unexpected ablation table shape"

(* Satellite (roload-chaos): a worker-domain exception re-raised by
   Parallel.map must carry the worker's original backtrace — the frames
   must still name this file, not just the re-raise site in the pool. *)
let boom_cell x = if x = 2 then failwith "boom from worker" else x

let test_parallel_backtrace_preserved () =
  Printexc.record_backtrace true;
  List.iter
    (fun jobs ->
      match Core.Parallel.map ~jobs boom_cell [ 0; 1; 2; 3 ] with
      | _ -> Alcotest.fail "expected the worker exception to re-raise"
      | exception Failure msg ->
        let bt = Printexc.get_raw_backtrace () in
        Alcotest.(check string) "worker exception re-raised" "boom from worker" msg;
        Alcotest.(check bool)
          (Printf.sprintf "-j%d: backtrace nonempty" jobs)
          true
          (Printexc.raw_backtrace_length bt > 0);
        Alcotest.(check bool)
          (Printf.sprintf "-j%d: backtrace names the raising cell" jobs)
          true
          (let s = Printexc.raw_backtrace_to_string bt in
           let contains hay needle =
             let n = String.length needle in
             let rec go i =
               i + n <= String.length hay
               && (String.sub hay i n = needle || go (i + 1))
             in
             go 0
           in
           contains s "test_experiments"))
    [ 1; 4 ]

(* The exception barrier itself: failures land in their slot, successes
   are unaffected. *)
let test_map_result_barrier () =
  let r = Core.Parallel.map_result ~jobs:4 boom_cell [ 0; 1; 2; 3 ] in
  match r with
  | [ Ok 0; Ok 1; Error (Failure m, _); Ok 3 ] ->
    Alcotest.(check string) "error in its slot" "boom from worker" m
  | _ -> Alcotest.fail "unexpected map_result shape"

(* the compile cache keys on every option: an unoptimised compile after an
   optimised one of the same benchmark must not get the optimised exe *)
let test_compile_cache_keys_optimize () =
  let b = Option.get (Suite.find "mcf") in
  let compile optimize =
    Roload_obj.Exe.to_bytes
      (Exp.compile_benchmark
         ~options:{ Core.Toolchain.default_options with optimize }
         ~scale:1 b)
  in
  let optimised = compile true in
  Alcotest.(check bool) "optimize=false compiles different bytes" false
    (String.equal optimised (compile false))

let suite =
  [
    Alcotest.test_case "tables 1 & 2" `Quick test_table1_table2;
    Alcotest.test_case "table 3" `Quick test_table3;
    Alcotest.test_case "section V-B ~0% overhead" `Slow test_section5b_zero_overhead;
    Alcotest.test_case "figure 3 shape" `Slow test_figure3_shape;
    Alcotest.test_case "figures 4/5 shape" `Slow test_figure45_shape;
    Alcotest.test_case "ablations" `Slow test_ablation_tables;
    Alcotest.test_case "parallel map preserves backtraces" `Quick
      test_parallel_backtrace_preserved;
    Alcotest.test_case "map_result exception barrier" `Quick test_map_result_barrier;
    Alcotest.test_case "compile cache keys on optimize" `Quick
      test_compile_cache_keys_optimize;
  ]
