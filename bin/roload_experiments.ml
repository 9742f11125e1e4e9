(* roload_experiments — regenerate any table or figure of the paper.

   Usage: roload_experiments [table1|table2|table3|section5b|figure3|
                              figure4|figure5|security|elide|campaign|
                              server|server-chaos|ablations|all]
                             [--scale N] [-j N] [--engine ENGINE]
                             [--metrics [PATH]] [--check-cycles PATH]

   Every experiment name, --scale/-j value, engine and gate baseline is
   validated before anything is simulated; a bad one is a usage error
   (exit 2).  Host-cost figures (simulated MIPS, cells/s, requests/s)
   are measured by roload_bench, not here; the wall-clock columns this
   driver prints are reports, and it gates only on exact results.

   [--metrics] extends the §V tables with counter columns (ld.ro count,
   ROLoad faults, TLB/cache miss rates) and writes the per-cell metrics
   log as JSON; [--check-cycles] compares that log's cycle counts against
   a committed baseline and fails (exit 1) on any divergence, or (exit 2)
   when the baseline cannot be read — the CI gate that pins down
   "metrics collection does not change what is simulated". *)

open Cmdliner

let print_table t = Roload_util.Table.print t

(* The request-serving macro-benchmark: the server workload forked into
   a worker pool, drained under stock/VCall/ICall.  100k requests per
   scale unit; the driver raises if any scheme crashes, underserves, or
   prints a diverging checksum. *)
let run_server_bench ~scale ~metrics:_ =
  print_table
    (Core.Experiments.experiment_server ~requests:(100_000 * scale) ())
      .Core.Experiments.sv_table

(* Live-server chaos campaign: per-request serving availability by
   scheme under mid-stream faults with supervised restarts.  The exact
   per-scheme availability of this configuration is pinned by
   test_chaos. *)
let run_server_chaos ~scale ~metrics:_ =
  let module Campaign = Roload_inject.Campaign in
  let rp =
    Campaign.run_server
      {
        Campaign.default_server_config with
        Campaign.sv_seed = 3L;
        sv_count = 6 * scale;
      }
  in
  print_string (Campaign.render_server rp);
  let g = Campaign.server_gate rp in
  if g.Campaign.sg_cell_failures > 0 then
    raise (Core.Experiments.Experiment_failure "server-chaos campaign had cell failures")
  else if g.Campaign.sg_low_availability > 0 || g.Campaign.sg_corrupted_under_roload > 0
  then
    raise
      (Core.Experiments.Experiment_failure
         "server-chaos availability/corruption gate violated under a roload scheme")

(* Chaos-campaign throughput: the same pinned plan run snapshot-seeded
   (the default fan-out) and booted from reset, with the reports
   required byte-identical.  The wall-clock columns are a report only. *)
let run_campaign ~scale ~metrics:_ =
  let module Campaign = Roload_inject.Campaign in
  let cfg =
    { Campaign.default_config with Campaign.seed = 1L; count = 60 * scale }
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let seeded, seeded_s = time (fun () -> Campaign.run cfg) in
  let reset, reset_s =
    time (fun () -> Campaign.run { cfg with Campaign.from_reset = true })
  in
  if not (String.equal (Campaign.to_json seeded) (Campaign.to_json reset)) then
    raise
      (Core.Experiments.Experiment_failure
         "snapshot-seeded campaign diverged from the from-reset campaign");
  let cells = List.length seeded.Campaign.rows in
  let cps w = if w > 0.0 then float_of_int cells /. w else 0.0 in
  let t =
    Roload_util.Table.create
      ~title:
        (Printf.sprintf
           "chaos campaign throughput (%d cells, seed 1; reports byte-identical)" cells)
      ~header:[ "mode"; "wall (s)"; "cells/s" ] ()
  in
  Roload_util.Table.add_row t
    [ "snapshot-seeded"; Printf.sprintf "%.2f" seeded_s;
      Printf.sprintf "%.1f" (cps seeded_s) ];
  Roload_util.Table.add_row t
    [ "from-reset"; Printf.sprintf "%.2f" reset_s; Printf.sprintf "%.1f" (cps reset_s) ];
  print_table t;
  Printf.printf "campaign speedup: %.1fx (snapshot-seeded over from-reset)\n"
    (if seeded_s > 0.0 then reset_s /. seeded_s else 0.0)

let print_figure ~metrics (f : Core.Experiments.figure_result) =
  print_table f.Core.Experiments.runtime_table;
  print_table f.Core.Experiments.memory_table;
  if metrics then print_table f.Core.Experiments.metrics_table

(* every experiment the driver knows, by command-line name *)
let experiments =
  let figure45 ~scale ~metrics =
    print_figure ~metrics (Core.Experiments.figure45 ~scale ())
  in
  [
    ("table1", fun ~scale:_ ~metrics:_ -> print_table (Core.Experiments.table1 ()));
    ("table2", fun ~scale:_ ~metrics:_ -> print_table (Core.Experiments.table2 ()));
    ( "table3",
      fun ~scale:_ ~metrics:_ ->
        print_table (Core.Experiments.table3 ()).Core.Experiments.table );
    ( "section5b",
      fun ~scale ~metrics ->
        print_table (Core.Experiments.section5b ~scale ~metrics ()).Core.Experiments.table
    );
    ( "figure3",
      fun ~scale ~metrics -> print_figure ~metrics (Core.Experiments.figure3 ~scale ()) );
    ("figure4", figure45);
    ("figure5", figure45);
    ("figure45", figure45);
    ( "security",
      fun ~scale:_ ~metrics:_ ->
        print_table (Core.Experiments.security ()).Core.Experiments.table;
        print_table (Core.Experiments.related_work_table ()) );
    ( "elide",
      fun ~scale ~metrics:_ ->
        print_table (Core.Experiments.experiment_elide ~scale ()).Core.Experiments.el_table
    );
    ("campaign", run_campaign);
    ("server", run_server_bench);
    ("server-chaos", run_server_chaos);
    ( "ablations",
      fun ~scale:_ ~metrics:_ ->
        print_table (Core.Experiments.ablation_compressed ());
        print_table (Core.Experiments.ablation_keys ());
        print_table (Core.Experiments.ablation_separate_code ());
        print_table (Core.Experiments.ablation_retcall ());
        print_table (Core.Experiments.ablation_tlb ()) );
  ]

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let read_file path =
  try
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Some s
  with Sys_error _ -> None

(* the cycle-divergence gate: metrics collection (and tracing) must not
   change what is simulated, so the cycle counts of every cell must
   equal the committed baseline's exactly; a divergence names every
   differing cell of the common prefix, or how the cell counts differ *)
let check_cycles ~path ~doc ~bpath ~base_doc =
  let cur = Roload_util.Json.scan_int64_values ~key:"cycles" doc in
  let base = Roload_util.Json.scan_int64_values ~key:"cycles" base_doc in
  if cur = base then
    Printf.printf "cycle gate: %d cells match baseline %s exactly — ok\n"
      (List.length cur) bpath
  else begin
    let nc = List.length cur and nb = List.length base in
    Printf.eprintf "CYCLE DIVERGENCE: %d cycle values (baseline %d) between %s and %s\n"
      nc nb path bpath;
    let n = min nc nb in
    let prefix l = List.filteri (fun i _ -> i < n) l in
    let common = List.combine (prefix cur) (prefix base) in
    List.iteri
      (fun i (c, b) -> if c <> b then Printf.eprintf "  cell %d: %Ld vs baseline %Ld\n" i c b)
      common;
    if List.for_all (fun (c, b) -> c = b) common then
      Printf.eprintf "  first %d cells equal, then baseline has %d %s\n" n
        (abs (nb - nc))
        (if nb > nc then "more" else "fewer");
    exit 1
  end

let run names scale jobs engine metrics check_cycles_path =
  let module Machine = Roload_machine.Machine in
  let names =
    match names with
    | [] | [ "all" ] ->
      [ "table1"; "table2"; "table3"; "section5b"; "figure3"; "figure45"; "security";
        "elide"; "ablations" ]
    | names -> names
  in
  List.iter
    (fun n ->
      if not (List.mem_assoc n experiments) then usage_error "unknown experiment %s" n)
    names;
  if scale < 1 then usage_error "--scale must be at least 1 (got %d)" scale;
  (match jobs with
  | Some j when j < 1 -> usage_error "-j must be at least 1 (got %d)" j
  | Some j -> Core.Parallel.set_jobs j
  | None -> ());
  (match engine with
  | None -> ()
  | Some name -> (
    match Machine.engine_of_string name with
    | Ok e -> Machine.set_default_engine e
    | Error msg -> usage_error "%s" msg));
  (* an explicit --engine beats ROLOAD_ENGINE; whichever applies, and
     ROLOAD_TRACE_HOT, is validated before anything runs *)
  (try
     ignore (Machine.effective_hot_threshold ());
     ignore (Machine.effective_engine ())
   with Failure msg -> usage_error "%s" msg);
  if check_cycles_path <> None && metrics = None then
    usage_error "--check-cycles requires --metrics";
  (* a gate without its baseline must not pass: fail before running *)
  let cycle_baseline =
    Option.map
      (fun bpath ->
        match read_file bpath with
        | Some doc -> (bpath, doc)
        | None -> usage_error "cannot read cycle baseline %s" bpath)
      check_cycles_path
  in
  if metrics <> None then Core.Experiments.enable_metrics ();
  (* containment: a failing experiment is recorded and the rest of the
     run continues; the process still exits 1 at the end *)
  let failed = ref [] in
  List.iter
    (fun n ->
      (try (List.assoc n experiments) ~scale ~metrics:(metrics <> None) with
      | Core.Experiments.Experiment_failure m ->
        Printf.eprintf "EXPERIMENT FAILURE in %s: %s\n%!" n m;
        failed := n :: !failed);
      print_newline ())
    names;
  (match metrics with
  | None -> ()
  | Some path -> (
    let doc = Roload_obs.Metrics.log_to_json (Core.Experiments.collected_metrics ()) in
    let oc = open_out path in
    output_string oc doc;
    close_out oc;
    Printf.printf "metrics written to %s\n" path;
    match cycle_baseline with
    | None -> ()
    | Some (bpath, base_doc) -> check_cycles ~path ~doc ~bpath ~base_doc));
  match !failed with
  | [] -> ()
  | fs ->
    Printf.eprintf "%d experiment(s) failed: %s\n" (List.length fs)
      (String.concat ", " (List.rev fs));
    exit 1

let names_arg = Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT")

let scale_arg =
  Arg.(value
       & opt int Roload_workloads.Spec_suite.reference_scale
       & info [ "scale" ] ~doc:"Workload scale factor (1 = quick, 3 = reference).")

let jobs_arg =
  Arg.(value
       & opt (some int) None
       & info [ "j"; "jobs" ]
           ~doc:
             "Simulation cells run in parallel (default: \\$ROLOAD_JOBS, else the \
              recommended domain count). Results are bit-identical at any job count.")

let engine_arg =
  Arg.(value
       & opt (some string) None
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:
             "Execution engine for every simulation: single or traced (default: \
              \\$ROLOAD_ENGINE, else traced; this flag beats \\$ROLOAD_ENGINE). The engines \
              are cycle-exact to each other; \\$ROLOAD_TRACE_HOT=1000000000 runs traced \
              without trace compilation.")

let metrics_arg =
  Arg.(value
       & opt ~vopt:(Some "results/metrics.json") (some string) None
       & info [ "metrics" ] ~docv:"PATH"
           ~doc:
             "Extend the §V tables with counter columns (ld.ro, ROLoad faults, TLB/cache \
              miss rates) and write the per-cell metrics log as JSON to PATH (default \
              results/metrics.json).")

let check_cycles_arg =
  Arg.(value
       & opt (some string) None
       & info [ "check-cycles" ] ~docv:"PATH"
           ~doc:
             "Compare the metrics log's cycle counts against the baseline at PATH; exit 1 \
              on any divergence, exit 2 if PATH cannot be read. Requires --metrics.")

let cmd =
  Cmd.v
    (Cmd.info "roload_experiments"
       ~doc:"Regenerate the tables and figures of the ROLoad paper (DAC 2021)")
    Term.(const run $ names_arg $ scale_arg $ jobs_arg $ engine_arg $ metrics_arg
          $ check_cycles_arg)

let () = exit (Cmd.eval cmd)
