(* roload_experiments — regenerate any table or figure of the paper.

   Usage: roload_experiments [table1|table2|table3|section5b|figure3|
                              figure4|figure5|security|elide|campaign|
                              server|server-chaos|ablations|all]
                             [--scale N] [-j N] [--engine ENGINE]
                             [--json PATH] [--baseline PATH]
                             [--metrics [PATH]] [--check-cycles PATH]

   With [--json] each experiment's wall-clock, simulated instruction
   count and simulated MIPS are appended to a bench-trajectory file;
   [--baseline] compares the aggregate simulated MIPS against a
   previously written file and fails (exit 1) on a >30% regression.

   [--metrics] extends the §V tables with counter columns (ld.ro count,
   ROLoad faults, TLB/cache miss rates) and writes the per-cell metrics
   log as JSON; [--check-cycles] compares that log's cycle counts against
   a committed baseline and fails (exit 1) on any divergence, or (exit 2)
   when the baseline cannot be read — the CI gate that pins down
   "metrics collection does not change what is simulated". *)

open Cmdliner

let print_table t = Roload_util.Table.print t

(* Chaos-campaign throughput: the same pinned plan run snapshot-seeded
   (the default fan-out) and booted from reset, with the reports
   required byte-identical.  The seeded cells/s figure is recorded in
   the bench JSON as [campaign_cells_per_s] and gated against the
   baseline like simulated MIPS. *)
let campaign_cps : float option ref = ref None

(* Server macro-benchmark throughput: the stock scheme's wall-clock
   requests/s, recorded in the bench JSON as [requests_per_s] and gated
   against the baseline like simulated MIPS. *)
let server_rps : float option ref = ref None

(* The request-serving macro-benchmark: the server workload forked into
   a worker pool, drained under stock/VCall/ICall.  100k requests per
   scale unit; the driver raises if any scheme crashes, underserves, or
   prints a diverging checksum. *)
let run_server_bench ~scale =
  let r = Core.Experiments.experiment_server ~requests:(100_000 * scale) () in
  server_rps := Some r.Core.Experiments.sv_requests_per_s;
  print_table r.Core.Experiments.sv_table

(* Live-server chaos campaign: per-request serving availability by
   scheme under mid-stream faults with supervised restarts.  The
   per-scheme served_ratio figures are recorded in the bench JSON as
   [served_ratio_<scheme>] and gated against the baseline as an
   absolute floor (availability is a fraction, not a throughput). *)
let server_ratios : (string * float) list ref = ref []

let run_server_chaos ~scale =
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
  server_ratios := Campaign.served_ratios rp;
  let g = Campaign.server_gate rp in
  if g.Campaign.sg_cell_failures > 0 then
    raise (Core.Experiments.Experiment_failure "server-chaos campaign had cell failures")
  else if g.Campaign.sg_low_availability > 0 || g.Campaign.sg_corrupted_under_roload > 0
  then
    raise
      (Core.Experiments.Experiment_failure
         "server-chaos availability/corruption gate violated under a roload scheme")

let run_campaign ~scale =
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
  campaign_cps := Some (cps seeded_s);
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

let run_one ~scale ~metrics name =
  match name with
  | "table1" -> print_table (Core.Experiments.table1 ())
  | "table2" -> print_table (Core.Experiments.table2 ())
  | "table3" -> print_table (Core.Experiments.table3 ()).Core.Experiments.table
  | "section5b" ->
    print_table (Core.Experiments.section5b ~scale ~metrics ()).Core.Experiments.table
  | "figure3" ->
    let f = Core.Experiments.figure3 ~scale () in
    print_table f.Core.Experiments.runtime_table;
    print_table f.Core.Experiments.memory_table;
    if metrics then print_table f.Core.Experiments.metrics_table
  | "figure4" | "figure5" | "figure45" ->
    let f = Core.Experiments.figure45 ~scale () in
    print_table f.Core.Experiments.runtime_table;
    print_table f.Core.Experiments.memory_table;
    if metrics then print_table f.Core.Experiments.metrics_table
  | "security" ->
    print_table (Core.Experiments.security ()).Core.Experiments.table;
    print_table (Core.Experiments.related_work_table ())
  | "elide" ->
    print_table (Core.Experiments.experiment_elide ~scale ()).Core.Experiments.el_table
  | "campaign" -> run_campaign ~scale
  | "server" -> run_server_bench ~scale
  | "server-chaos" -> run_server_chaos ~scale
  | "ablations" ->
    print_table (Core.Experiments.ablation_compressed ());
    print_table (Core.Experiments.ablation_keys ());
    print_table (Core.Experiments.ablation_separate_code ());
    print_table (Core.Experiments.ablation_retcall ());
    print_table (Core.Experiments.ablation_tlb ())
  | other ->
    Printf.eprintf "unknown experiment %s\n" other;
    exit 2

let read_file path =
  try
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Some s
  with Sys_error _ -> None

let run names scale jobs engine json baseline metrics check_cycles =
  let module Machine = Roload_machine.Machine in
  (match engine with
  | None -> ()
  | Some name -> (
    match Machine.engine_of_string name with
    | Ok e -> Machine.set_default_engine e
    | Error msg ->
      prerr_endline msg;
      exit 2));
  (* an explicit --engine beats ROLOAD_ENGINE; whichever applies, and
     ROLOAD_TRACE_HOT, is validated before anything runs *)
  let engine_label =
    try
      ignore (Machine.effective_hot_threshold ());
      Machine.engine_name (Machine.effective_engine ())
    with Failure msg ->
      prerr_endline msg;
      exit 2
  in
  (match jobs with Some j -> Core.Parallel.set_jobs j | None -> ());
  (if check_cycles <> None && metrics = None then begin
     Printf.eprintf "--check-cycles requires --metrics\n";
     exit 2
   end);
  (* a gate without its baseline must not pass: fail before running *)
  let cycle_baseline =
    Option.map
      (fun bpath ->
        match read_file bpath with
        | Some doc -> (bpath, doc)
        | None ->
          Printf.eprintf "cannot read cycle baseline %s\n" bpath;
          exit 2)
      check_cycles
  in
  if metrics <> None then Core.Experiments.enable_metrics ();
  let names =
    match names with
    | [] | [ "all" ] ->
      [ "table1"; "table2"; "table3"; "section5b"; "figure3"; "figure45"; "security";
        "elide"; "ablations" ]
    | names -> names
  in
  let entries = ref [] in
  (* containment: a failing experiment is recorded and the rest of the
     run continues; the process still exits 1 at the end *)
  let failed = ref [] in
  List.iter
    (fun n ->
      let t0 = Unix.gettimeofday () in
      let i0 = Core.System.total_instructions_simulated () in
      (try run_one ~scale ~metrics:(metrics <> None) n with
      | Core.Experiments.Experiment_failure m ->
        Printf.eprintf "EXPERIMENT FAILURE in %s: %s\n%!" n m;
        failed := n :: !failed);
      let wall_s = Unix.gettimeofday () -. t0 in
      let instructions = Core.System.total_instructions_simulated () - i0 in
      (* the campaign and server experiments measure their own
         throughput figures (cells/s, requests/s) — they record
         top-level figures instead of trajectory entries, so the MIPS
         totals stay comparable across baselines *)
      if n <> "campaign" && n <> "server" && n <> "server-chaos" then
        entries :=
          Core.Bench_log.entry ~name:n ~engine:engine_label ~wall_s ~instructions
          :: !entries;
      print_newline ())
    names;
  let entries = List.rev !entries in
  (match json with
  | Some path ->
    Core.Bench_log.write ~path ~scale ~jobs:(Core.Parallel.default_jobs ())
      ?campaign_cells_per_s:!campaign_cps ?requests_per_s:!server_rps
      ?served_ratios:(match !server_ratios with [] -> None | l -> Some l)
      entries;
    Printf.printf "bench trajectory written to %s\n" path
  | None -> ());
  (match metrics with
  | None -> ()
  | Some path ->
    let doc = Roload_obs.Metrics.log_to_json (Core.Experiments.collected_metrics ()) in
    let oc = open_out path in
    output_string oc doc;
    close_out oc;
    Printf.printf "metrics written to %s\n" path;
    (* the cycle-divergence gate: metrics collection (and tracing) must
       not change what is simulated, so the cycle counts of every cell
       must equal the committed baseline's exactly *)
    match cycle_baseline with
    | None -> ()
    | Some (bpath, base_doc) ->
      let cur = Roload_util.Json.scan_int64_values ~key:"cycles" doc in
      let base = Roload_util.Json.scan_int64_values ~key:"cycles" base_doc in
      if cur <> base then begin
        Printf.eprintf
          "CYCLE DIVERGENCE: %d cycle values (baseline %d) and/or values differ \
           between %s and %s\n"
          (List.length cur) (List.length base) path bpath;
        List.iteri
          (fun i (c, b) ->
            if c <> b then Printf.eprintf "  cell %d: %Ld vs baseline %Ld\n" i c b)
          (try List.combine cur base with Invalid_argument _ -> []);
        exit 1
      end
      else
        Printf.printf "cycle gate: %d cells match baseline %s exactly — ok\n"
          (List.length cur) bpath);
  (match !failed with
  | [] -> ()
  | fs ->
    Printf.eprintf "%d experiment(s) failed: %s\n" (List.length fs)
      (String.concat ", " (List.rev fs));
    exit 1);
  (match baseline with
  | None -> ()
  | Some _ when entries = [] ->
    (* a run of only figure-recording experiments (campaign, server)
       has no trajectory entries: nothing for the MIPS gate to compare *)
    ()
  | Some path -> (
    let _, _, mips = Core.Bench_log.totals entries in
    match Core.Bench_log.read_total_mips path with
    | None ->
      Printf.eprintf "warning: no readable total_mips in baseline %s; skipping gate\n" path
    | Some base ->
      let floor = 0.7 *. base in
      if mips < floor then begin
        Printf.eprintf
          "PERF REGRESSION: %.3f simulated MIPS < 70%% of baseline %.3f (floor %.3f)\n" mips
          base floor;
        exit 1
      end
      else
        Printf.printf "perf gate: %.3f simulated MIPS vs baseline %.3f (floor %.3f) — ok\n"
          mips base floor));
  (* server-throughput gate: stock-scheme requests/s must not regress
     >30% against the checked-in baseline (skipped when the baseline
     predates the figure or the server experiment did not run) *)
  (match (baseline, !server_rps) with
  | Some path, Some rps -> (
    match Core.Bench_log.read_requests_per_s path with
    | None ->
      Printf.eprintf
        "warning: no requests_per_s in baseline %s; skipping server gate\n" path
    | Some base ->
      let floor = 0.7 *. base in
      if rps < floor then begin
        Printf.eprintf
          "SERVER-THROUGHPUT REGRESSION: %.3f requests/s < 70%% of baseline %.3f \
           (floor %.3f)\n"
          rps base floor;
        exit 1
      end
      else
        Printf.printf "server gate: %.3f requests/s vs baseline %.3f (floor %.3f) — ok\n"
          rps base floor)
  | _ -> ());
  (* served-ratio gate: each scheme's serving availability must not drop
     more than one percentage point below the checked-in baseline — an
     absolute floor, since availability is a fraction near 1.0 where the
     30%-of-baseline throughput rule would be vacuous (skipped when the
     baseline predates the figure or server-chaos did not run) *)
  (match (baseline, !server_ratios) with
  | Some path, (_ :: _ as ratios) ->
    List.iter
      (fun (scheme, ratio) ->
        match Core.Bench_log.read_served_ratio path ~scheme with
        | None ->
          Printf.eprintf
            "warning: no served_ratio_%s in baseline %s; skipping its gate\n" scheme path
        | Some base ->
          let floor = base -. 0.01 in
          if ratio < floor then begin
            Printf.eprintf
              "SERVED-RATIO REGRESSION (%s): %.5f < baseline %.5f - 0.01 (floor %.5f)\n"
              scheme ratio base floor;
            exit 1
          end
          else
            Printf.printf
              "served-ratio gate (%s): %.5f vs baseline %.5f (floor %.5f) — ok\n" scheme
              ratio base floor)
      ratios
  | _ -> ());
  (* campaign-throughput gate: seeded cells/s must not regress >30%
     against the checked-in baseline (skipped when the baseline predates
     the figure or the campaign experiment did not run) *)
  match (baseline, !campaign_cps) with
  | Some path, Some cps -> (
    match Core.Bench_log.read_campaign_cells_per_s path with
    | None ->
      Printf.eprintf
        "warning: no campaign_cells_per_s in baseline %s; skipping campaign gate\n" path
    | Some base ->
      let floor = 0.7 *. base in
      if cps < floor then begin
        Printf.eprintf
          "CAMPAIGN-THROUGHPUT REGRESSION: %.3f cells/s < 70%% of baseline %.3f (floor \
           %.3f)\n"
          cps base floor;
        exit 1
      end
      else
        Printf.printf
          "campaign gate: %.3f cells/s vs baseline %.3f (floor %.3f) — ok\n" cps base
          floor)
  | _ -> ()

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

let json_arg =
  Arg.(value
       & opt (some string) None
       & info [ "json" ] ~docv:"PATH"
           ~doc:"Write per-experiment wall-clock/instructions/simulated-MIPS to PATH.")

let baseline_arg =
  Arg.(value
       & opt (some string) None
       & info [ "baseline" ] ~docv:"PATH"
           ~doc:
             "Compare aggregate simulated MIPS against a previously written bench file; \
              exit 1 if it regressed more than 30%.")

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
    Term.(const run $ names_arg $ scale_arg $ jobs_arg $ engine_arg $ json_arg
          $ baseline_arg $ metrics_arg $ check_cycles_arg)

let () = exit (Cmd.eval cmd)
