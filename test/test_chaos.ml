(* roload-chaos tests: campaign acceptance, crash containment + bounded
   retry, checkpoint/resume byte-identity, the empty-plan bit-identity
   property, fuel exhaustion, and corpus reproducer replay. *)

module Campaign = Roload_inject.Campaign
module Fault = Roload_inject.Fault
module Plan = Roload_inject.Plan
module Chaos_victim = Roload_inject.Chaos_victim
module Pass = Roload_passes.Pass
module Machine = Roload_machine.Machine
module Kernel = Roload_kernel.Kernel
module Process = Roload_kernel.Process
module System = Core.System
module Metrics = Roload_obs.Metrics

(* seed 3 at count 15 covers all six classes including both redirect
   sinks, so every facet below has cells to assert on *)
let small_config =
  { Campaign.default_config with Campaign.seed = 3L; count = 15; jobs = Some 4 }

(* one shared small campaign: several tests assert different facets *)
let small_report = lazy (Campaign.run small_config)

let rows_of rp ~cls ~scheme =
  List.filter
    (fun (r : Campaign.row) ->
      String.equal r.Campaign.cls cls && String.equal r.Campaign.scheme scheme)
    rp.Campaign.rows

(* Acceptance: every PTE-key / RO-page / TLB tampering under a ROLoad
   scheme is detected by the ld.ro machinery itself — 100%, no Masked,
   no Silent. *)
let test_tamper_detected_under_roload () =
  let rp = Lazy.force small_report in
  List.iter
    (fun scheme ->
      List.iter
        (fun cls ->
          let rs = rows_of rp ~cls ~scheme in
          Alcotest.(check bool)
            (Printf.sprintf "%s cells exist under %s" cls scheme)
            true (rs <> []);
          List.iter
            (fun (r : Campaign.row) ->
              Alcotest.(check string)
                (Printf.sprintf "%s #%d under %s" cls r.Campaign.index scheme)
                "detected-roload"
                (match Campaign.verdict_of_row r with
                | Some v -> Fault.verdict_name v
                | None -> "failed"))
            rs)
        Campaign.tamper_classes)
    [ "VCall"; "ICall" ]

(* ... while the very same plan entries are consumed silently by the
   stock system and the label-CFI baseline (Masked: keys are ignored). *)
let test_tamper_masked_under_baselines () =
  let rp = Lazy.force small_report in
  List.iter
    (fun scheme ->
      List.iter
        (fun cls ->
          List.iter
            (fun (r : Campaign.row) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s #%d masked under %s" cls r.Campaign.index scheme)
                true
                (Campaign.verdict_of_row r = Some Fault.Masked))
            (rows_of rp ~cls ~scheme))
        Campaign.tamper_classes)
    [ "none"; "CFI" ]

(* The paper's motivating gap: some pointer redirect corrupts output
   silently under stock and label-CFI, and never under a ROLoad scheme. *)
let test_silent_corruption_split () =
  let rp = Lazy.force small_report in
  let silent scheme =
    List.length
      (List.filter
         (fun (r : Campaign.row) ->
           String.equal r.Campaign.scheme scheme
           && Campaign.verdict_of_row r = Some Fault.Silent_corruption)
         rp.Campaign.rows)
  in
  Alcotest.(check bool) "stock suffers silent corruption" true (silent "none" >= 1);
  Alcotest.(check bool) "label CFI suffers silent corruption" true (silent "CFI" >= 1);
  let g = Campaign.gate rp in
  Alcotest.(check int) "zero silent under roload schemes" 0
    g.Campaign.silent_under_roload;
  Alcotest.(check int) "zero undetected tampering" 0 g.Campaign.undetected_tamper;
  Alcotest.(check int) "zero cell failures" 0 g.Campaign.cell_failures;
  Alcotest.(check bool) "oracle cross-check agreed" true
    ((not rp.Campaign.oracle_checked) || rp.Campaign.oracle_agreed)

(* Checkpoint/resume: kill the campaign mid-run (max_cells), resume from
   the checkpoint, and require the rendered report byte-identical to an
   uninterrupted run. *)
let test_resume_byte_identical () =
  let ck = Filename.temp_file "roload-chaos" ".tsv" in
  let cfg =
    { small_config with Campaign.count = 8; seed = 7L; checkpoint = Some ck }
  in
  let partial =
    Campaign.run { cfg with Campaign.max_cells = Some 11 }
  in
  Alcotest.(check bool) "partial run stopped early" true
    (List.length partial.Campaign.rows = 11);
  let resumed = Campaign.run { cfg with Campaign.resume = true } in
  let fresh = Campaign.run { cfg with Campaign.checkpoint = None } in
  Sys.remove ck;
  Alcotest.(check string) "resumed report byte-identical to uninterrupted run"
    (Campaign.render fresh) (Campaign.render resumed);
  Alcotest.(check string) "resumed JSON byte-identical" (Campaign.to_json fresh)
    (Campaign.to_json resumed)

(* Campaign equivalence: the snapshot-seeded fan-out (the default) and
   the boot-every-cell-from-reset path must produce byte-identical
   reports — coverage table, rows, JSON and localization diffs — on the
   pinned seed.  This is the acceptance bar for snapshot seeding: only
   the throughput may change. *)
let test_snapshot_seeding_equivalence () =
  let cfg = { small_config with Campaign.seed = 1L; count = 10 } in
  let seeded = Campaign.run cfg in
  let reset = Campaign.run { cfg with Campaign.from_reset = true } in
  Alcotest.(check string) "rendered tables byte-identical" (Campaign.render reset)
    (Campaign.render seeded);
  Alcotest.(check string) "JSON byte-identical (incl. corruption diffs)"
    (Campaign.to_json reset) (Campaign.to_json seeded);
  Alcotest.(check string) "diff artifacts byte-identical"
    (Campaign.render_diffs reset) (Campaign.render_diffs seeded)

(* Checkpoint/resume under the snapshot fan-out is byte-identical at any
   job count: kill mid-run, resume at -j1 and at -j4, same JSON. *)
let test_resume_jobs_invariant () =
  let run jobs =
    let ck = Filename.temp_file "roload-chaos-j" ".tsv" in
    let cfg =
      {
        small_config with
        Campaign.count = 6;
        seed = 1L;
        jobs = Some jobs;
        checkpoint = Some ck;
      }
    in
    ignore (Campaign.run { cfg with Campaign.max_cells = Some 7 });
    let resumed = Campaign.run { cfg with Campaign.resume = true } in
    Sys.remove ck;
    Campaign.to_json resumed
  in
  Alcotest.(check string) "resumed snapshot fan-out: -j1 equals -j4" (run 1) (run 4)

(* A campaign is deterministic in the job count. *)
let test_jobs_invariant () =
  let cfg = { small_config with Campaign.count = 4; seed = 3L } in
  let j1 = Campaign.run { cfg with Campaign.jobs = Some 1 } in
  let j4 = Campaign.run { cfg with Campaign.jobs = Some 4 } in
  Alcotest.(check string) "-j1 equals -j4" (Campaign.render j1) (Campaign.render j4)

(* The empty-plan property: pausing at any point and resuming, with no
   injection applied, is bit-identical (status, output, cycles, full
   metrics) to an uninterrupted run — on both engines. *)
let test_empty_plan_bit_identity () =
  let schemes = [ Pass.Unprotected; Pass.Vcall; Pass.Icall ] in
  let exes = List.map (fun s -> (s, Campaign.compile_victim s)) schemes in
  let budget = 10_000_000L in
  let check engine (scheme, exe) permille =
    let plain, pm = Campaign.measure ~engine ~max_instructions:budget exe in
    let pause_at =
      Int64.div (Int64.mul plain.Kernel.instructions (Int64.of_int permille)) 1000L
    in
    let paused, qm =
      Campaign.measure ~engine ~max_instructions:budget ~pause_at exe
    in
    Alcotest.(check string)
      (Printf.sprintf "output (%s, %d permille)" (Pass.scheme_name scheme) permille)
      plain.Kernel.output paused.Kernel.output;
    Alcotest.(check bool) "status" true (plain.Kernel.status = paused.Kernel.status);
    Alcotest.(check int64) "cycles" plain.Kernel.cycles paused.Kernel.cycles;
    Alcotest.(check bool) "metrics" true (Metrics.core_equal pm qm)
  in
  List.iter
    (fun engine ->
      List.iter
        (fun se -> List.iter (check engine se) [ 1; 137; 500; 999 ])
        exes)
    [ Machine.Single_step; Machine.Traced ]

(* qcheck flavor of the same property: arbitrary pause points. *)
let prop_pause_identity =
  let exe = lazy (Campaign.compile_victim Pass.Vcall) in
  QCheck.Test.make ~name:"pause/resume at any point is bit-identical" ~count:25
    QCheck.(pair (int_range 1 999) bool)
    (fun (permille, traced) ->
      let exe = Lazy.force exe in
      let engine = if traced then Machine.Traced else Machine.Single_step in
      let budget = 10_000_000L in
      let plain, pm = Campaign.measure ~engine ~max_instructions:budget exe in
      let pause_at =
        let t =
          Int64.div (Int64.mul plain.Kernel.instructions (Int64.of_int permille)) 1000L
        in
        if Int64.compare t 1L < 0 then 1L else t
      in
      let paused, qm = Campaign.measure ~engine ~max_instructions:budget ~pause_at exe in
      plain.Kernel.status = paused.Kernel.status
      && String.equal plain.Kernel.output paused.Kernel.output
      && Int64.equal plain.Kernel.cycles paused.Kernel.cycles
      && Metrics.core_equal pm qm)

(* Fuel exhaustion: an infinite loop hits the cumulative instruction
   budget and surfaces as the distinct Running ("fuel exhausted")
   outcome — on both engines — rather than hanging or crashing. *)
let test_fuel_exhaustion () =
  let source = "int main() { int i = 0; while (i < 2) { i = i - i; } return 0; }" in
  let exe =
    Core.Toolchain.compile_exe ~name:"chaos-spin" source
  in
  List.iter
    (fun engine ->
      let m =
        System.run ~engine ~max_instructions:50_000L
          ~variant:System.Processor_kernel_modified exe
      in
      (match m.System.status with
      | Process.Running -> ()
      | _ -> Alcotest.fail "expected the watchdog to report fuel exhaustion");
      Alcotest.(check bool) "ran exactly to the budget" true
        (Int64.compare m.System.instructions 50_000L >= 0);
      Alcotest.(check string) "distinct status string" "running (instruction limit hit)"
        (System.status_string m))
    [ Machine.Single_step; Machine.Traced ];
  (* and the campaign classifies a still-running cell as divergent, not
     as detection *)
  let baseline =
    { Kernel.status = Process.Exited 0; instructions = 1000L; cycles = 1000L;
      peak_kib = 0; output = "x\n" }
  in
  let hung = { baseline with Kernel.status = Process.Running } in
  Alcotest.(check string) "watchdog verdict" "divergent-output"
    (Fault.verdict_name (fst (Campaign.classify ~baseline hung)))

(* Plans are seeded and prefix-stable. *)
let test_plan_determinism () =
  let a = Plan.build ~seed:42L ~count:30 in
  let b = Plan.build ~seed:42L ~count:30 in
  Alcotest.(check bool) "equal seeds, equal plans" true (a = b);
  let prefix = Plan.build ~seed:42L ~count:10 in
  Alcotest.(check bool) "shorter plan is a prefix" true
    (prefix = List.filteri (fun i _ -> i < 10) a);
  let c = Plan.build ~seed:43L ~count:30 in
  Alcotest.(check bool) "different seeds differ" true (a <> c)

(* Every pinned reproducer in corpus/ must still replay to its recorded
   verdicts. *)
let corpus_dir = "../corpus"

let test_corpus_replay () =
  let entries =
    if Sys.file_exists corpus_dir then
      Sys.readdir corpus_dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".chaos")
      |> List.sort compare
    else []
  in
  Alcotest.(check bool) "chaos corpus present" true (List.length entries >= 2);
  List.iter
    (fun entry ->
      let checks = Campaign.replay ~path:(Filename.concat corpus_dir entry) in
      List.iter
        (fun (c : Campaign.replay_check) ->
          Alcotest.(check string)
            (Printf.sprintf "%s: %s" entry c.Campaign.rc_scheme)
            c.Campaign.rc_expected c.Campaign.rc_actual)
        checks)
    entries

(* ---------- the live-server campaign ---------- *)

module Server_fault = Roload_inject.Server_fault

(* pinned server campaign: small but wide enough that the plan covers
   the redirect, a page-level tamper and the crash fault *)
let server_config =
  {
    Campaign.default_server_config with
    Campaign.sv_seed = 3L;
    sv_count = 6;
    sv_requests = 120;
    sv_schemes = [ Pass.Unprotected; Pass.Vcall; Pass.Icall ];
    sv_jobs = Some 4;
  }

let server_report = lazy (Campaign.run_server server_config)

(* Acceptance: under VCall/ICall every cell keeps availability at or
   above the floor with zero corrupted payloads (detection -> supervised
   restart -> redelivery), while the stock system commits silently
   corrupted payloads under the redirect. *)
let test_server_gates () =
  let rp = Lazy.force server_report in
  let g = Campaign.server_gate rp in
  Alcotest.(check int) "no low-availability cell under roload" 0
    g.Campaign.sg_low_availability;
  Alcotest.(check int) "no corrupted payload under roload" 0
    g.Campaign.sg_corrupted_under_roload;
  Alcotest.(check int) "no cell failures" 0 g.Campaign.sg_cell_failures;
  let stock_corrupted =
    List.filter
      (fun (r : Campaign.server_row) ->
        String.equal r.Campaign.sv_scheme "none"
        && r.Campaign.sv_tally.Server_fault.corrupted > 0)
      rp.Campaign.sv_rows
  in
  Alcotest.(check bool) "stock silently corrupts payloads on some class" true
    (stock_corrupted <> []);
  (* the plan covers the classes the assertions above speak for *)
  let classes =
    List.sort_uniq compare
      (List.map (fun (r : Campaign.server_row) -> r.Campaign.sv_cls) rp.Campaign.sv_rows)
  in
  Alcotest.(check bool) "plan covers the redirect" true
    (List.mem "ptr-redirect" classes);
  Alcotest.(check bool) "plan covers the crash fault" true
    (List.mem "worker-kill" classes);
  (* restarts actually happened somewhere: the supervisor is load-bearing *)
  let restarts =
    List.fold_left
      (fun acc (r : Campaign.server_row) -> acc + r.Campaign.sv_restarts)
      0 rp.Campaign.sv_rows
  in
  Alcotest.(check bool) "supervised restarts occurred" true (restarts > 0)

(* The availability table is byte-identical across -j and across both
   engines. *)
let test_server_jobs_invariant () =
  let rp4 = Lazy.force server_report in
  let rp1 = Campaign.run_server { server_config with Campaign.sv_jobs = Some 1 } in
  Alcotest.(check string) "-j1 equals -j4" (Campaign.render_server rp1)
    (Campaign.render_server rp4);
  Alcotest.(check string) "-j1 equals -j4 (json)" (Campaign.server_to_json rp1)
    (Campaign.server_to_json rp4)

let test_server_engine_invariant () =
  let render engine =
    Campaign.render_server
      (Campaign.run_server { server_config with Campaign.sv_engine = Some engine })
  in
  let single = render Machine.Single_step in
  let traced =
    let prev = Machine.default_hot_threshold () in
    Machine.set_default_hot_threshold 1;
    Fun.protect
      ~finally:(fun () -> Machine.set_default_hot_threshold prev)
      (fun () -> render Machine.Traced)
  in
  Alcotest.(check string) "traced equals single" single traced

(* Server checkpoint/resume with batched writes: kill the campaign
   mid-run, resume with a batch size that forces buffering, and require
   byte-identity with an uninterrupted run. *)
let test_server_resume_batched () =
  let ck = Filename.temp_file "roload-chaos-server" ".tsv" in
  let cfg =
    { server_config with Campaign.sv_checkpoint = Some ck; sv_checkpoint_batch = 4 }
  in
  let partial = Campaign.run_server { cfg with Campaign.sv_max_cells = Some 5 } in
  Alcotest.(check bool) "partial run stopped early" true
    (List.length partial.Campaign.sv_rows = 5);
  let resumed = Campaign.run_server { cfg with Campaign.sv_resume = true } in
  let fresh = Campaign.run_server { cfg with Campaign.sv_checkpoint = None } in
  Sys.remove ck;
  Alcotest.(check string) "resumed report byte-identical"
    (Campaign.render_server fresh)
    (Campaign.render_server resumed);
  Alcotest.(check string) "resumed JSON byte-identical"
    (Campaign.server_to_json fresh)
    (Campaign.server_to_json resumed)

(* The classic campaign with batched checkpointing resumes
   byte-identically too (batch boundaries never tear rows). *)
let test_classic_resume_batched () =
  let ck = Filename.temp_file "roload-chaos-batched" ".tsv" in
  let cfg =
    {
      small_config with
      Campaign.count = 6;
      seed = 7L;
      checkpoint = Some ck;
      checkpoint_batch = 5;
    }
  in
  ignore (Campaign.run { cfg with Campaign.max_cells = Some 9 });
  let resumed = Campaign.run { cfg with Campaign.resume = true } in
  let fresh = Campaign.run { cfg with Campaign.checkpoint = None } in
  Sys.remove ck;
  Alcotest.(check string) "batched resume byte-identical to uninterrupted run"
    (Campaign.to_json fresh) (Campaign.to_json resumed)

(* Server plans are seeded and prefix-stable. *)
let test_server_plan_determinism () =
  let a = Plan.build_server ~seed:42L ~count:30 in
  Alcotest.(check bool) "equal seeds, equal plans" true
    (a = Plan.build_server ~seed:42L ~count:30);
  Alcotest.(check bool) "shorter plan is a prefix" true
    (Plan.build_server ~seed:42L ~count:10 = List.filteri (fun i _ -> i < 10) a);
  Alcotest.(check bool) "different seeds differ" true
    (a <> Plan.build_server ~seed:43L ~count:30);
  (* the server taxonomy never draws the classes restarts cannot absorb *)
  List.iter
    (fun (inj : Server_fault.injection) ->
      match inj.Server_fault.kind with
      | Server_fault.Tamper (Fault.Phys_flip _) | Server_fault.Tamper Fault.Writeback_drop
        ->
        Alcotest.fail "phys-bit-flip/wb-drop must stay out of server plans"
      | _ -> ())
    (Plan.build_server ~seed:42L ~count:200)

(* ---------- the cell runner, through both campaigns ---------- *)

(* A campaign as the runner tests see it: run with a retry budget, a
   sabotage hook and checkpoint settings; observe every row as (plan
   index, attempts, failed, detail) plus the JSON report. *)
type instance = {
  run :
    ?attempts:int ->
    ?sabotage:(index:int -> scheme:Pass.scheme -> attempt:int -> unit) ->
    ?checkpoint:string ->
    ?resume:bool ->
    ?max_cells:int ->
    ?seed:int64 ->
    unit ->
    (int * int * bool * string) list * string;
}

let classic =
  {
    run =
      (fun ?(attempts = 2) ?sabotage ?checkpoint ?(resume = false) ?max_cells
           ?(seed = 3L) () ->
        let rp =
          Campaign.run
            {
              small_config with
              Campaign.count = 6;
              seed;
              attempts;
              sabotage;
              checkpoint;
              resume;
              max_cells;
            }
        in
        ( List.map
            (fun (r : Campaign.row) ->
              ( r.Campaign.index,
                r.Campaign.attempts,
                r.Campaign.outcome = Campaign.Failed,
                r.Campaign.detail ))
            rp.Campaign.rows,
          Campaign.to_json rp ));
  }

let server =
  {
    run =
      (fun ?(attempts = 2) ?sabotage ?checkpoint ?(resume = false) ?max_cells
           ?(seed = 3L) () ->
        let rp =
          Campaign.run_server
            {
              server_config with
              Campaign.sv_count = 4;
              sv_requests = 60;
              sv_seed = seed;
              sv_attempts = attempts;
              sv_sabotage = sabotage;
              sv_checkpoint = checkpoint;
              sv_resume = resume;
              sv_max_cells = max_cells;
            }
        in
        ( List.map
            (fun (r : Campaign.server_row) ->
              ( r.Campaign.sv_index,
                r.Campaign.sv_cell_attempts,
                r.Campaign.sv_failed,
                r.Campaign.sv_detail ))
            rp.Campaign.sv_rows,
          Campaign.server_to_json rp ));
  }

(* Containment: a cell that keeps crashing becomes a structured failure
   row carrying the configured attempt count, and the rest of the
   campaign completes. *)
let test_cell_failure_contained inst () =
  let rows, _ =
    inst.run ~attempts:3
      ~sabotage:(fun ~index ~scheme:_ ~attempt:_ ->
        if index = 2 then failwith "sabotaged cell")
      ()
  in
  let failed, ok = List.partition (fun (_, _, failed, _) -> failed) rows in
  Alcotest.(check bool) "sabotaged cells failed" true (failed <> []);
  List.iter
    (fun (index, attempts, _, detail) ->
      Alcotest.(check int) "failure row names the sabotaged index" 2 index;
      Alcotest.(check int) "retried the configured number of times" 3 attempts;
      Alcotest.(check bool) "error text preserved" true (String.length detail > 0))
    failed;
  Alcotest.(check bool) "other cells completed" true (List.length ok > List.length failed)

(* Bounded retry: a cell that crashes only on its first attempt succeeds
   on the re-seeded second attempt and records attempts = 2. *)
let test_cell_retry_recovers inst () =
  let rows, _ =
    inst.run ~attempts:3
      ~sabotage:(fun ~index ~scheme:_ ~attempt ->
        if index = 1 && attempt = 1 then failwith "flaky cell")
      ()
  in
  Alcotest.(check bool) "no failure rows" true
    (List.for_all (fun (_, _, failed, _) -> not failed) rows);
  let flaky = List.filter (fun (index, _, _, _) -> index = 1) rows in
  Alcotest.(check bool) "flaky cells exist" true (flaky <> []);
  List.iter
    (fun (_, attempts, _, _) ->
      Alcotest.(check int) "second attempt succeeded" 2 attempts)
    flaky

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Resuming a checkpoint written by a different campaign (another seed)
   must not mix its rows in: the run restarts the file and matches a
   fresh run byte for byte, checkpoint included. *)
let test_header_mismatch inst () =
  let ck = Filename.temp_file "roload-chaos-other" ".tsv" in
  let fresh_ck = Filename.temp_file "roload-chaos-fresh" ".tsv" in
  ignore (inst.run ~seed:5L ~checkpoint:ck ~max_cells:3 ());
  let _, resumed = inst.run ~checkpoint:ck ~resume:true () in
  let _, fresh = inst.run ~checkpoint:fresh_ck () in
  let restarted = String.split_on_char '\n' (read_file ck) in
  let expected = String.split_on_char '\n' (read_file fresh_ck) in
  Sys.remove ck;
  Sys.remove fresh_ck;
  Alcotest.(check string) "report byte-identical to a fresh run" fresh resumed;
  Alcotest.(check string) "checkpoint restarted under the new header"
    (List.hd expected) (List.hd restarted);
  (* rows land in settle order, which varies with -j *)
  Alcotest.(check (list string)) "checkpoint rows equal a fresh run's"
    (List.sort compare expected) (List.sort compare restarted)

(* Checkpoints written before the two campaigns shared one runner
   (test/golden/, each cut short with --max-cells) still resume: only
   the missing cells run, and the report is byte-identical to an
   uninterrupted run. *)
let resume_golden name ~prior_rows run =
  let ck = Filename.temp_file "roload-chaos-golden" ".tsv" in
  Out_channel.with_open_bin ck (fun oc ->
      output_string oc (read_file (Filename.concat "golden" name)));
  let ran = Atomic.make 0 in
  let sabotage ~index:_ ~scheme:_ ~attempt:_ = Atomic.incr ran in
  let report, cells = Fun.protect ~finally:(fun () -> Sys.remove ck) (fun () -> run ck sabotage) in
  Alcotest.(check int) "only the cells missing from the golden checkpoint ran"
    (cells report - prior_rows) (Atomic.get ran);
  report

let test_golden_classic () =
  let cfg = { small_config with Campaign.count = 8; seed = 7L } in
  let resumed =
    resume_golden "chaos-classic.tsv" ~prior_rows:11 (fun ck sabotage ->
        ( Campaign.run
            { cfg with Campaign.checkpoint = Some ck; resume = true; sabotage = Some sabotage },
          fun rp -> List.length rp.Campaign.rows ))
  in
  let fresh = Campaign.run cfg in
  Alcotest.(check string) "resumed table byte-identical" (Campaign.render fresh)
    (Campaign.render resumed);
  Alcotest.(check string) "resumed JSON byte-identical" (Campaign.to_json fresh)
    (Campaign.to_json resumed)

let test_golden_server () =
  let resumed =
    resume_golden "chaos-server.tsv" ~prior_rows:5 (fun ck sabotage ->
        ( Campaign.run_server
            {
              server_config with
              Campaign.sv_checkpoint = Some ck;
              sv_resume = true;
              sv_checkpoint_batch = 4;
              sv_sabotage = Some sabotage;
            },
          fun rp -> List.length rp.Campaign.sv_rows ))
  in
  let fresh = Lazy.force server_report in
  Alcotest.(check string) "resumed table byte-identical" (Campaign.render_server fresh)
    (Campaign.render_server resumed);
  Alcotest.(check string) "resumed JSON byte-identical" (Campaign.server_to_json fresh)
    (Campaign.server_to_json resumed)

let suite =
  [
    Alcotest.test_case "tampering detected 100% under roload" `Slow
      test_tamper_detected_under_roload;
    Alcotest.test_case "tampering masked under baselines" `Slow
      test_tamper_masked_under_baselines;
    Alcotest.test_case "silent corruption only under baselines" `Slow
      test_silent_corruption_split;
    Alcotest.test_case "cell failure contained" `Quick
      (test_cell_failure_contained classic);
    Alcotest.test_case "bounded retry recovers flaky cell" `Quick
      (test_cell_retry_recovers classic);
    Alcotest.test_case "classic campaign: header mismatch restarts" `Slow
      (test_header_mismatch classic);
    Alcotest.test_case "classic campaign: golden checkpoint resumes" `Slow
      test_golden_classic;
    Alcotest.test_case "resume is byte-identical" `Slow test_resume_byte_identical;
    Alcotest.test_case "snapshot-seeded equals from-reset" `Slow
      test_snapshot_seeding_equivalence;
    Alcotest.test_case "resume fan-out: -j1 equals -j4" `Slow test_resume_jobs_invariant;
    Alcotest.test_case "-j1 equals -j4" `Quick test_jobs_invariant;
    Alcotest.test_case "empty plan is bit-identical" `Quick test_empty_plan_bit_identity;
    Seeded.to_alcotest prop_pause_identity;
    Alcotest.test_case "fuel exhaustion is a distinct outcome" `Quick
      test_fuel_exhaustion;
    Alcotest.test_case "plans are seeded and prefix-stable" `Quick
      test_plan_determinism;
    Alcotest.test_case "corpus reproducers replay" `Slow test_corpus_replay;
    Alcotest.test_case "server campaign: roload gates hold, stock corrupts" `Slow
      test_server_gates;
    Alcotest.test_case "server campaign: -j1 equals -j4" `Slow
      test_server_jobs_invariant;
    Alcotest.test_case "server campaign: engines agree byte-identically" `Slow
      test_server_engine_invariant;
    Alcotest.test_case "server campaign: batched resume is byte-identical" `Slow
      test_server_resume_batched;
    Alcotest.test_case "server campaign: cell failure contained" `Slow
      (test_cell_failure_contained server);
    Alcotest.test_case "server campaign: bounded retry recovers" `Slow
      (test_cell_retry_recovers server);
    Alcotest.test_case "server campaign: header mismatch restarts" `Slow
      (test_header_mismatch server);
    Alcotest.test_case "server campaign: golden checkpoint resumes" `Slow
      test_golden_server;
    Alcotest.test_case "classic campaign: batched resume is byte-identical" `Slow
      test_classic_resume_batched;
    Alcotest.test_case "server plans are seeded and prefix-stable" `Quick
      test_server_plan_determinism;
  ]
