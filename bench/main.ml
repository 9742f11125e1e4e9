(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (printed as ASCII tables).  Per-layer host costs
   (Bechamel ns/op) are recorded by [roload_bench --trace 1].

   Scale: set ROLOAD_SCALE (default 1 = quick; 3 = the "reference"
   setting used in EXPERIMENTS.md).  All simulations are deterministic,
   so each experiment is a single exact run. *)

let scale =
  match Sys.getenv_opt "ROLOAD_SCALE" with
  | Some s -> (try max 1 (int_of_string s) with Failure _ -> 1)
  | None -> 1

(* --json PATH: record the per-experiment bench trajectory (wall-clock,
   simulated instructions, simulated MIPS) alongside the printed tables. *)
let json_path =
  let rec scan = function
    | "--json" :: path :: _ -> Some path
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (Array.to_list Sys.argv)

(* --engine NAME: run every simulation on the named execution engine
   (default: the machine default, traced; ROLOAD_ENGINE still wins). *)
let engine_label =
  let module Machine = Roload_machine.Machine in
  let rec scan = function
    | "--engine" :: name :: _ -> Some name
    | _ :: rest -> scan rest
    | [] -> None
  in
  (match scan (Array.to_list Sys.argv) with
  | None -> ()
  | Some name -> (
    match Machine.engine_of_string name with
    | Ok e -> Machine.set_default_engine e
    | Error msg ->
      prerr_endline msg;
      exit 2));
  try Machine.engine_name (Machine.effective_engine ())
  with Failure msg ->
    prerr_endline msg;
    exit 2

let entries : Core.Bench_log.entry list ref = ref []

let section title = Printf.printf "\n################ %s ################\n%!" title

let timed name f =
  let t0 = Unix.gettimeofday () in
  let i0 = Core.System.total_instructions_simulated () in
  let r = f () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let instructions = Core.System.total_instructions_simulated () - i0 in
  entries := Core.Bench_log.entry ~name ~engine:engine_label ~wall_s ~instructions :: !entries;
  Printf.printf "[%s: %.1fs]\n%!" name wall_s;
  r

(* ---------- the paper's tables and figures ---------- *)

let run_experiments () =
  section "Table I — modification footprint";
  Roload_util.Table.print (Core.Experiments.table1 ());

  section "Table II — prototype configuration";
  Roload_util.Table.print (Core.Experiments.table2 ());

  section "Table III — hardware resource cost";
  let t3 = timed "table3" (fun () -> Core.Experiments.table3 ()) in
  Roload_util.Table.print t3.Core.Experiments.table;

  section "Section V-B — system-level overhead (3 systems, unmodified binaries)";
  let vb = timed "section5b" (fun () -> Core.Experiments.section5b ~scale ()) in
  Roload_util.Table.print vb.Core.Experiments.table;

  section "Figure 3 — VCall vs VTint (C++ benchmarks)";
  let f3 = timed "figure3" (fun () -> Core.Experiments.figure3 ~scale ()) in
  Roload_util.Table.print f3.Core.Experiments.runtime_table;
  Roload_util.Table.print f3.Core.Experiments.memory_table;

  section "Figures 4 & 5 — ICall vs CFI (all benchmarks)";
  let f45 = timed "figure45" (fun () -> Core.Experiments.figure45 ~scale ()) in
  Roload_util.Table.print f45.Core.Experiments.runtime_table;
  Roload_util.Table.print f45.Core.Experiments.memory_table;
  Roload_util.Table.print f45.Core.Experiments.memory_pages_table;

  section "Section V-C2 — security matrix";
  let sec = timed "security" (fun () -> Core.Experiments.security ()) in
  Roload_util.Table.print sec.Core.Experiments.table;
  Roload_util.Table.print (Core.Experiments.related_work_table ());

  section "Ablations";
  Roload_util.Table.print
    (timed "ablation_compressed" (fun () -> Core.Experiments.ablation_compressed ()));
  Roload_util.Table.print (timed "ablation_keys" (fun () -> Core.Experiments.ablation_keys ()));
  Roload_util.Table.print
    (timed "ablation_separate_code" (fun () -> Core.Experiments.ablation_separate_code ()));
  Roload_util.Table.print
    (timed "ablation_retcall" (fun () -> Core.Experiments.ablation_retcall ()));
  Roload_util.Table.print (timed "ablation_tlb" (fun () -> Core.Experiments.ablation_tlb ()))

let () =
  Printf.printf "ROLoad reproduction bench harness (scale %d, engine %s)\n" scale
    engine_label;
  run_experiments ();
  (match json_path with
  | Some path ->
    Core.Bench_log.write ~path ~scale ~jobs:(Core.Parallel.default_jobs ())
      (List.rev !entries);
    Printf.printf "\nbench trajectory written to %s\n%!" path
  | None -> ());
  print_endline "\ndone."
