(* The five workloads.  Each is a set-up (compiles, seeded inputs, one
   warm-up op) returning the timed phase.  The timed phase is a closed
   loop — one op starts when the previous one ends, on one domain — that
   makes at least three passes over the same seeded input set.  Each
   input's time is its fastest pass.  Contention from other tenants of a
   shared host only ever slows an op, and it comes in spells of seconds
   that can cover most of a run's passes, so a median over the passes
   still moves with it; the fastest pass does not.  Exact simulated
   results come from the first pass, and every later pass must reproduce
   them op for op. *)

module Pass = Roload_passes.Pass
module Suite = Roload_workloads.Spec_suite
module Server = Roload_workloads.Server_like
module Campaign = Roload_inject.Campaign
module Fault = Roload_inject.Fault
module Server_fault = Roload_inject.Server_fault
module Diff = Roload_fuzz.Diff
module Gen = Roload_fuzz.Gen
module Prng = Roload_util.Prng
module Process = Roload_kernel.Process
module System = Core.System
module Toolchain = Core.Toolchain

type ctx = {
  seed : int64;
  seconds : float;
  quick : bool;  (** about 1/50 of the normal sizes, for smoke runs *)
  spans : Spans.t option;  (** [Some] in the traced run *)
  tick : unit -> unit;  (** called at every op boundary *)
}

type metric = string * float * string

type result = {
  attempted : int;
  failed : int;
  failures : string list;  (** the first few, for the log *)
  passes : float list;  (** host seconds of each pass *)
  rate : float;  (** ops per pass over the sum of the inputs' fastest times *)
  instructions : float option;  (** simulated over the timed phase, where visible *)
  exact : metric list;  (** deterministic for a seed: simulated results of the first pass *)
  digest : string;  (** MD5 over every exact result of the first pass *)
  detail : metric list;  (** workload-specific figures for the results file *)
  counters : Probes.counters option;  (** simulator counters the ops gathered themselves *)
  programs : unit -> Probes.program list;  (** what the layer probes re-drive *)
  hot_threshold : int option;  (** the trace threshold the workload's machines use *)
  probe_detail : unit -> metric list;  (** traced-run extras specific to the workload *)
}

(* ---------- shared bookkeeping ---------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  digest : Buffer.t;
  first_pass : (int, string) Hashtbl.t;
  times : (int, float list) Hashtbl.t;  (** host seconds of each input, every pass *)
}

let tally () =
  {
    attempted = 0;
    failed = 0;
    failures = [];
    digest = Buffer.create 4096;
    first_pass = Hashtbl.create 64;
    times = Hashtbl.create 64;
  }

let fail t n what =
  t.failed <- t.failed + n;
  if List.length t.failures < 8 then t.failures <- what :: t.failures

(* One op on input [i]: its time, its span, containment of anything it
   raises, the op-boundary tick. *)
let op ctx t i f =
  let start = Unix.gettimeofday () in
  (try Spans.with_span ctx.spans ~op:i "bench.op" f
   with e ->
     t.attempted <- t.attempted + 1;
     fail t 1 (Printf.sprintf "op %d raised %s" i (Printexc.to_string e)));
  let d = Unix.gettimeofday () -. start in
  Hashtbl.replace t.times i (d :: Option.value ~default:[] (Hashtbl.find_opt t.times i));
  ctx.tick ()

(* Record input [key]'s exact result: the first pass defines it (and the
   digest); a later pass that differs fails the op's [n] operations. *)
let settle t ~pass ~key ~n ~what signature =
  if pass = 0 then begin
    Hashtbl.replace t.first_pass key signature;
    Buffer.add_string t.digest signature
  end
  else if Hashtbl.find_opt t.first_pass key <> Some signature then
    fail t n (what ^ ": result differs from the first pass")

(* Passes over the input set until another would overrun the run's
   seconds (at least three).  Returns each pass's duration. *)
let timed_passes ctx pass =
  let t0 = Unix.gettimeofday () in
  let rec go k acc =
    if k >= 3 && Unix.gettimeofday () -. t0 +. Judge.median acc > ctx.seconds then List.rev acc
    else begin
      let s = Unix.gettimeofday () in
      pass k;
      go (k + 1) ((Unix.gettimeofday () -. s) :: acc)
    end
  in
  go 0 []

let base t passes =
  let per_pass = float_of_int t.attempted /. float_of_int (max 1 (List.length passes)) in
  let fastest_pass =
    Hashtbl.fold (fun _ ds acc -> acc +. List.fold_left Float.min infinity ds) t.times 0.0
  in
  {
    attempted = t.attempted;
    failed = t.failed;
    failures = List.rev t.failures;
    passes;
    rate = per_pass /. fastest_pass;
    instructions = None;
    exact = [];
    digest = Digest.to_hex (Digest.string (Buffer.contents t.digest));
    detail = [];
    counters = None;
    programs = (fun () -> []);
    hot_threshold = None;
    probe_detail = (fun () -> []);
  }

let compile scheme ~name source =
  Toolchain.compile_exe ~options:{ Toolchain.default_options with Toolchain.scheme } ~name source

let program ?requests scheme ~name source exe = { Probes.name; scheme; source; exe; requests }
let md5 s = Digest.to_hex (Digest.string s)
let count name n = (name, float_of_int n, "count")
let total passes = List.fold_left ( +. ) 0.0 passes
let mips insts passes = ("sim_mips", insts /. total passes /. 1e6, "Minst/s")

let metric_name s =
  String.map (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' -> c | _ -> '_') s

let mean_ms spans name =
  match spans with Some sp -> Probes.mean_span (Spans.spans sp) name 1e3 | None -> 0.0

(* ---------- spec: the Figure 3-5 matrix ---------- *)

(* The none and ICall cells of four programs, and the VCall cells of the
   three C++ ones among them: the cells the paper's overhead figures
   divide.  Four of the eleven programs keep a pass near 3 s, so three
   passes fit a run even on a slowed host: the three C++ programs of
   Figure 3 and gcc, the C program whose ICall build differs most. *)
let spec_programs = [ "gcc"; "omnetpp"; "astar"; "xalancbmk" ]

let spec ctx =
  let benches =
    List.filter
      (fun (b : Suite.benchmark) ->
        List.mem b.Suite.name (if ctx.quick then [ "xalancbmk" ] else spec_programs))
      Suite.all
  in
  let cells =
    Array.of_list
      (List.concat_map
         (fun (b : Suite.benchmark) ->
           let source = b.Suite.source ~scale:1 in
           List.map
             (fun scheme ->
               program scheme ~name:b.Suite.name source (compile scheme ~name:b.Suite.name source))
             ([ Pass.Unprotected; Pass.Icall ] @ if b.Suite.cxx then [ Pass.Vcall ] else []))
         benches)
  in
  (* warm-up on the last cell (xalancbmk, the shortest program), so
     lazily built state is not timed *)
  ignore (Probes.split_exec None cells.(Array.length cells - 1).Probes.exe);
  fun () ->
    let t = tally () in
    let counters = Probes.counters () in
    let none_output = Hashtbl.create 16 and cycles = Hashtbl.create 64 in
    let insts = ref 0.0 and first_cycles = ref 0.0 and first_insts = ref 0.0 in
    let passes =
      timed_passes ctx (fun pass ->
          Array.iteri
            (fun i (p : Probes.program) ->
              op ctx t i (fun () ->
                  let outcome, metrics = Probes.split_exec ctx.spans ~op:i p.Probes.exe in
                  if ctx.spans <> None then Probes.add_metrics counters metrics;
                  t.attempted <- t.attempted + 1;
                  let label = p.Probes.name ^ "/" ^ Pass.scheme_name p.Probes.scheme in
                  let o = outcome.Roload_kernel.Kernel.output in
                  let c = outcome.Roload_kernel.Kernel.cycles
                  and n = outcome.Roload_kernel.Kernel.instructions in
                  insts := !insts +. Int64.to_float n;
                  (match outcome.Roload_kernel.Kernel.status with
                  | Process.Exited 0 -> ()
                  | _ -> fail t 1 (label ^ ": did not exit 0"));
                  (* none comes first for every program *)
                  if p.Probes.scheme = Pass.Unprotected then
                    Hashtbl.replace none_output p.Probes.name o
                  else if Hashtbl.find_opt none_output p.Probes.name <> Some o then
                    fail t 1 (label ^ ": output differs from none");
                  settle t ~pass ~key:i ~n:1 ~what:label
                    (Printf.sprintf "%s %Ld %Ld %s\n" label n c (md5 o));
                  if pass = 0 then begin
                    Hashtbl.replace cycles (p.Probes.name, p.Probes.scheme) (Int64.to_float c);
                    first_cycles := !first_cycles +. Int64.to_float c;
                    first_insts := !first_insts +. Int64.to_float n
                  end))
            cells)
    in
    let overhead scheme bs =
      let ratios =
        List.filter_map
          (fun (b : Suite.benchmark) ->
            match
              ( Hashtbl.find_opt cycles (b.Suite.name, Pass.Unprotected),
                Hashtbl.find_opt cycles (b.Suite.name, scheme) )
            with
            | Some base, Some hard when base > 0.0 -> Some (hard /. base)
            | _ -> None)
          bs
      in
      if ratios = [] then 0.0 else 100.0 *. (Roload_util.Stats.geomean ratios -. 1.0)
    in
    {
      (base t passes) with
      instructions = Some !insts;
      exact =
        [
          ("sim_cycles", !first_cycles, "cycles");
          ("sim_instructions", !first_insts, "insts");
          ("overhead_pct_icall", overhead Pass.Icall benches, "%");
          ( "overhead_pct_vcall",
            overhead Pass.Vcall (List.filter (fun (b : Suite.benchmark) -> b.Suite.cxx) benches),
            "%" );
        ];
      detail = [ mips !insts passes ];
      counters = Some counters;
      programs = (fun () -> Array.to_list cells);
    }

(* ---------- fuzz: differential cases ---------- *)

let fuzz ctx =
  let rng = Prng.create ctx.seed in
  (* warm-up: the first case boots the per-engine templates the runner keeps *)
  let warm = Gen.generate ~seed:(Prng.next_int64 rng) ~size:2 in
  ignore (Diff.run_source ~name:"fuzz" (Gen.to_source warm));
  let cases =
    Array.init (if ctx.quick then 6 else 200) (fun _ ->
        let case_seed = Prng.next_int64 rng in
        (case_seed, 1 + Prng.next_int rng 6))
  in
  fun () ->
    let t = tally () in
    let agreed = ref 0 and skipped = ref 0 and sample = ref [] in
    let i0 = System.total_instructions_simulated () and first_insts = ref 0 in
    let passes =
      timed_passes ctx (fun pass ->
          Array.iteri
            (fun i (case_seed, size) ->
              op ctx t i (fun () ->
                  let source =
                    Spans.with_span ctx.spans "fuzz.generate" (fun () ->
                        Gen.to_source (Gen.generate ~seed:case_seed ~size))
                  in
                  let r =
                    Spans.with_span ctx.spans "fuzz.run_source" (fun () ->
                        Diff.run_source ~name:"fuzz" source)
                  in
                  t.attempted <- t.attempted + 1;
                  let verdict =
                    match r with
                    | Diff.Agree behaviors ->
                      if pass = 0 then begin
                        incr agreed;
                        if List.length !sample < (if ctx.quick then 2 else 6) then
                          sample := source :: !sample
                      end;
                      String.concat ";"
                        (List.map
                           (fun (s, b) ->
                             Pass.scheme_name s ^ "=" ^ Roload_fuzz.Ir_eval.behavior_to_string b)
                           behaviors)
                    | Diff.Skipped why ->
                      if pass = 0 then incr skipped;
                      "skip " ^ why
                    | Diff.Divergent d ->
                      fail t 1
                        (Printf.sprintf "case seed %Ld diverges under %s at %s" case_seed
                           (Pass.scheme_name d.Diff.dv_scheme) d.Diff.dv_stage);
                      "divergent"
                  in
                  settle t ~pass ~key:i ~n:1 ~what:(Printf.sprintf "case seed %Ld" case_seed)
                    (Printf.sprintf "%Ld %d %s\n" case_seed size verdict)))
            cases;
          if pass = 0 then first_insts := System.total_instructions_simulated () - i0)
    in
    let insts = float_of_int (System.total_instructions_simulated () - i0) in
    let sample = List.rev !sample in
    let programs =
      lazy
        (List.concat_map
           (fun source ->
             List.map
               (fun s -> program s ~name:"fuzz" source (compile s ~name:"fuzz" source))
               Diff.schemes_under_test)
           sample)
    in
    let probe_detail () =
      List.iter
        (fun src ->
          Spans.with_span ctx.spans "fuzz.oracle" (fun () -> ignore (Diff.oracle_behaviors src)))
        sample;
      (* one run per scheme x engine, forked from a pristine boot image
         with the runner's hot threshold, as the differential runner does *)
      List.iter
        (fun engine ->
          let prev = Roload_machine.Machine.default_hot_threshold () in
          Roload_machine.Machine.set_default_hot_threshold 1;
          let template =
            Fun.protect
              ~finally:(fun () -> Roload_machine.Machine.set_default_hot_threshold prev)
              (fun () ->
                Roload_machine.Machine.snapshot
                  (Roload_machine.Machine.create ~engine (System.machine_config Probes.variant)))
          in
          List.iter
            (fun (p : Probes.program) ->
              Spans.with_span ctx.spans "fuzz.simulate" (fun () ->
                  ignore (System.run ~template ~variant:Probes.variant p.Probes.exe)))
            (Lazy.force programs))
        Diff.engines_under_test;
      [
        ("fuzz.generate_ms", mean_ms ctx.spans "fuzz.generate", "ms");
        ("fuzz.run_source_ms", mean_ms ctx.spans "fuzz.run_source", "ms");
        ("fuzz.oracle_ms", mean_ms ctx.spans "fuzz.oracle", "ms");
        ("fuzz.simulate_ms", mean_ms ctx.spans "fuzz.simulate", "ms");
      ]
    in
    {
      (base t passes) with
      instructions = Some insts;
      exact =
        [
          count "agreed" !agreed;
          count "skipped" !skipped;
          ("sim_instructions", float_of_int !first_insts, "insts");
        ];
      detail =
        [
          ( "fuzz.skipped_ratio",
            float_of_int !skipped /. float_of_int (Array.length cases),
            "ratio" );
          mips insts passes;
        ];
      programs = (fun () -> Lazy.force programs);
      hot_threshold = Some 1;
      probe_detail;
    }

(* ---------- campaign runners ---------- *)

(* In the traced run the campaign's per-cell hook delimits one span per
   cell (a cell ends where the next one starts, the last one where the
   campaign returns) and polls the GC event ring, which a whole campaign
   would overflow. *)
let cell_spans ctx f =
  match ctx.spans with
  | None -> f None
  | Some sp ->
    Spans.with_span ctx.spans "inject.campaign" (fun () ->
        let last = ref None in
        let close () =
          Option.iter
            (fun start ->
              ignore (Spans.record sp "inject.cell" ~start ~stop:(Unix.gettimeofday ())))
            !last
        in
        let hook ~index:_ ~scheme:_ ~attempt:_ =
          close ();
          ctx.tick ();
          last := Some (Unix.gettimeofday ())
        in
        let r = f (Some hook) in
        close ();
        r)

let verdict_counts rows =
  List.map
    (fun v ->
      count
        ("inject.verdict." ^ metric_name (Fault.verdict_name v))
        (List.length
           (List.filter (fun (r : Campaign.row) -> r.Campaign.outcome = Campaign.Verdict v) rows)))
    Fault.all_verdicts

let chunk_seeds ctx n =
  let rng = Prng.create ctx.seed in
  Array.init n (fun _ -> Prng.next_int64 rng)

let chaos ctx =
  let exes = List.map (fun s -> (s, Campaign.compile_victim s)) Campaign.default_schemes in
  (* campaigns of 25 plan entries (about 100 cells, 0.1 s): many short
     inputs, and larger campaigns make the peak resident set depend on
     where the GC cycle falls *)
  let count_per = if ctx.quick then 4 else 25 in
  let seeds = chunk_seeds ctx (if ctx.quick then 1 else 24) in
  ignore (Campaign.run { Campaign.default_config with seed = ctx.seed; count = 1; jobs = Some 1 });
  fun () ->
    let t = tally () in
    let rows = ref [] in
    let passes =
      timed_passes ctx (fun pass ->
          Array.iteri
            (fun i seed ->
              op ctx t i (fun () ->
                  let report =
                    cell_spans ctx (fun sabotage ->
                        Campaign.run
                          {
                            Campaign.default_config with
                            seed;
                            count = count_per;
                            jobs = Some 1;
                            sabotage;
                          })
                  in
                  let cells = List.length report.Campaign.rows in
                  let g = Campaign.gate report in
                  t.attempted <- t.attempted + cells;
                  let what = Printf.sprintf "campaign seed %Ld" seed in
                  if report.Campaign.oracle_checked && not report.Campaign.oracle_agreed then
                    fail t cells (what ^ ": oracle disagrees with the baselines")
                  else begin
                    let bad =
                      g.Campaign.silent_under_roload + g.Campaign.undetected_tamper
                      + g.Campaign.cell_failures
                    in
                    if bad > 0 then
                      fail t (min cells bad)
                        (Printf.sprintf "%s: %d silent, %d undetected tamper, %d failed cells" what
                           g.Campaign.silent_under_roload g.Campaign.undetected_tamper
                           g.Campaign.cell_failures)
                  end;
                  settle t ~pass ~key:i ~n:cells ~what (Campaign.to_json report);
                  if pass = 0 then rows := List.rev_append report.Campaign.rows !rows))
            seeds)
    in
    let rows = !rows in
    let number p = List.length (List.filter p rows) in
    let share p = float_of_int (number p) /. float_of_int (max 1 (List.length rows)) in
    {
      (base t passes) with
      exact =
        count "cells" (List.length rows)
        :: count "applied" (number (fun (r : Campaign.row) -> r.Campaign.applied))
        :: verdict_counts rows;
      detail =
        [
          ("inject.applied_ratio", share (fun (r : Campaign.row) -> r.Campaign.applied), "ratio");
          count "inject.cell_retries" (number (fun (r : Campaign.row) -> r.Campaign.attempts > 1));
          count "inject.cell_failures"
            (number (fun (r : Campaign.row) -> r.Campaign.outcome = Campaign.Failed));
          ("inject.campaign_ms", mean_ms ctx.spans "inject.campaign", "ms");
        ];
      programs =
        (fun () ->
          List.map
            (fun (s, exe) ->
              program s ~name:("chaos-" ^ Pass.scheme_name s) Roload_inject.Chaos_victim.source exe)
            exes);
    }

(* ---------- server: the request-serving macro-benchmark ---------- *)

(* Traced run only: poll the GC event ring every 1000 request hand-outs,
   which one whole serving run would overflow. *)
let rec poll_every ctx kernel ~at =
  Roload_kernel.Kernel.set_request_hook kernel ~at (fun kernel ->
      ctx.tick ();
      poll_every ctx kernel ~at:(at + 1000))

let percentile lats p =
  let a = Array.copy lats in
  Array.sort Int64.compare a;
  if Array.length a = 0 then 0.0 else Int64.to_float a.(p * (Array.length a - 1) / 100)

(* Six seeded request streams of 10 k requests, each served under none,
   VCall and ICall: eighteen short runs of about 0.1 s per pass rather
   than three long ones, so each run's fastest pass escapes host bursts. *)
let server ctx =
  let schemes = [ Pass.Unprotected; Pass.Vcall; Pass.Icall ] in
  let streams = if ctx.quick then 2 else 6 and n = if ctx.quick then 1_000 else 10_000 in
  let source = Server.source ~scale:1 in
  let exes = List.map (fun s -> (s, compile s ~name:Server.name source)) schemes in
  let inputs =
    Array.of_list
      (List.concat
         (List.mapi
            (fun k seed ->
              let requests = Server.requests ~seed ~count:n in
              List.map (fun (scheme, exe) -> (k, requests, scheme, exe)) exes)
            (Array.to_list (chunk_seeds ctx streams))))
  in
  let _, first_stream, _, none_exe = inputs.(0) in
  ignore
    (System.run_server ~variant:Probes.variant
       ~requests:(Array.sub first_stream 0 (min n 2_000))
       none_exe);
  fun () ->
    let t = tally () in
    let reference = Hashtbl.create 16 in
    let insts = ref 0.0 and first_cycles = ref 0.0 and icall_latencies = ref [] in
    let syscalls = ref 0.0 and handouts = ref 0.0 in
    let passes =
      timed_passes ctx (fun pass ->
          Array.iteri
            (fun i (k, stream, scheme, exe) ->
              op ctx t i (fun () ->
                  let m, st =
                    Spans.with_span ctx.spans "core.run_server" (fun () ->
                        System.run_server ~variant:Probes.variant ~requests:stream
                          ?configure:
                            (Option.map
                               (fun _ kernel -> poll_every ctx kernel ~at:1000)
                               ctx.spans)
                          exe)
                  in
                  t.attempted <- t.attempted + n;
                  insts := !insts +. Int64.to_float m.System.instructions;
                  syscalls :=
                    !syscalls +. float_of_int m.System.metrics.Roload_obs.Metrics.syscalls;
                  Array.iter
                    (fun (r : Roload_kernel.Kernel.request_record) ->
                      handouts := !handouts +. float_of_int r.Roload_kernel.Kernel.rr_handouts)
                    st.System.records;
                  let label = Printf.sprintf "stream %d %s" k (Pass.scheme_name scheme) in
                  let clean =
                    System.exited_cleanly m
                    && List.for_all
                         (fun (_, s) -> match s with Process.Exited _ -> true | _ -> false)
                         st.System.task_statuses
                  in
                  (* none comes first for every stream *)
                  if scheme = Pass.Unprotected then
                    Hashtbl.replace reference k (st.System.console, st.System.checksum);
                  if not clean then fail t n (label ^ ": a task did not exit cleanly")
                  else if
                    Hashtbl.find_opt reference k <> Some (st.System.console, st.System.checksum)
                  then fail t n (label ^ ": checksum or console differs from none")
                  else if st.System.served <> n then
                    fail t (n - st.System.served)
                      (Printf.sprintf "%s: served %d of %d" label st.System.served n);
                  settle t ~pass ~key:i ~n ~what:label
                    (Printf.sprintf "%s %d %Ld %Ld %Ld %s %s\n" label st.System.served
                       m.System.cycles m.System.instructions st.System.checksum
                       (md5 st.System.console)
                       (md5
                          (String.concat ","
                             (Array.to_list (Array.map Int64.to_string st.System.latencies)))));
                  if pass = 0 then begin
                    first_cycles := !first_cycles +. Int64.to_float m.System.cycles;
                    if scheme = Pass.Icall then
                      icall_latencies := st.System.latencies :: !icall_latencies
                  end))
            inputs)
    in
    let served = float_of_int t.attempted in
    let latencies = Array.concat !icall_latencies in
    let small = Array.sub first_stream 0 (if ctx.quick then 200 else 2_000) in
    {
      (base t passes) with
      instructions = Some !insts;
      exact =
        [
          ("sim_cycles", !first_cycles, "cycles");
          ("req_p50_cycles", percentile latencies 50, "cycles");
          ("req_p99_cycles", percentile latencies 99, "cycles");
        ];
      detail =
        [
          mips !insts passes;
          ("kernel.syscalls_per_request", !syscalls /. served, "count");
          ("kernel.insts_per_request", !insts /. served, "insts");
          ("kernel.handouts_per_request", !handouts /. served, "count");
        ];
      programs =
        (fun () ->
          List.map (fun (s, exe) -> program ~requests:small s ~name:Server.name source exe) exes);
      probe_detail =
        (fun () ->
          [
            ( "kernel.host_us_per_request",
              mean_ms ctx.spans "core.run_server" *. 1e3 /. float_of_int n,
              "us" );
          ]);
    }

(* ---------- server-chaos: the live-server campaign ---------- *)

let server_chaos ctx =
  let base_cfg = Campaign.default_server_config in
  let source = Server.source_workers ~workers:base_cfg.Campaign.sv_workers ~scale:1 in
  let exes =
    List.map
      (fun s -> (s, compile s ~name:("server-chaos-" ^ Pass.scheme_name s) source))
      base_cfg.Campaign.sv_schemes
  in
  let count_per = if ctx.quick then 1 else 5 in
  let seeds = chunk_seeds ctx (if ctx.quick then 1 else 4) in
  ignore
    (Campaign.run_server
       { base_cfg with Campaign.sv_seed = ctx.seed; sv_count = 1; sv_jobs = Some 1 });
  fun () ->
    let t = tally () in
    let reports = ref [] in
    let passes =
      timed_passes ctx (fun pass ->
          Array.iteri
            (fun i sv_seed ->
              op ctx t i (fun () ->
                  let report =
                    cell_spans ctx (fun sv_sabotage ->
                        Campaign.run_server
                          {
                            base_cfg with
                            Campaign.sv_seed;
                            sv_count = count_per;
                            sv_jobs = Some 1;
                            sv_sabotage;
                          })
                  in
                  let cells = List.length report.Campaign.sv_rows in
                  let g = Campaign.server_gate report in
                  t.attempted <- t.attempted + cells;
                  let what = Printf.sprintf "campaign seed %Ld" sv_seed in
                  let bad =
                    g.Campaign.sg_low_availability + g.Campaign.sg_corrupted_under_roload
                    + g.Campaign.sg_cell_failures
                  in
                  if bad > 0 then
                    fail t (min cells bad)
                      (Printf.sprintf "%s: %d below floor, %d corrupted, %d failed cells" what
                         g.Campaign.sg_low_availability g.Campaign.sg_corrupted_under_roload
                         g.Campaign.sg_cell_failures);
                  settle t ~pass ~key:i ~n:cells ~what (Campaign.server_to_json report);
                  if pass = 0 then reports := report :: !reports))
            seeds)
    in
    let roload = List.map Pass.scheme_name Campaign.roload_schemes in
    let served_ratio_min =
      List.fold_left
        (fun acc rp ->
          List.fold_left
            (fun acc (s, r) -> if List.mem s roload then Float.min acc r else acc)
            acc (Campaign.served_ratios rp))
        1.0 !reports
    in
    let rows = List.concat_map (fun rp -> rp.Campaign.sv_rows) !reports in
    let sum f = List.fold_left (fun a (r : Campaign.server_row) -> a + f r) 0 rows in
    let tally_sum f = sum (fun r -> f r.Campaign.sv_tally) in
    {
      (base t passes) with
      exact =
        [
          ("served_ratio_min", served_ratio_min, "ratio");
          count "cells" (List.length rows);
          count "restarts" (sum (fun r -> r.Campaign.sv_restarts));
        ];
      detail =
        [
          count "inject.req_served" (tally_sum (fun x -> x.Server_fault.served));
          count "inject.req_retried" (tally_sum (fun x -> x.Server_fault.retried));
          count "inject.req_duplicated" (tally_sum (fun x -> x.Server_fault.duplicated));
          count "inject.req_corrupted" (tally_sum (fun x -> x.Server_fault.corrupted));
          count "inject.req_lost" (tally_sum (fun x -> x.Server_fault.lost));
          ("inject.campaign_ms", mean_ms ctx.spans "inject.campaign", "ms");
        ];
      programs =
        (fun () ->
          let requests = Server.requests ~seed:ctx.seed ~count:base_cfg.Campaign.sv_requests in
          List.map
            (fun (s, exe) ->
              program ~requests s ~name:("server-chaos-" ^ Pass.scheme_name s) source exe)
            exes);
    }

let all =
  [
    ("spec", spec);
    ("fuzz", fuzz);
    ("chaos", chaos);
    ("server", server);
    ("server-chaos", server_chaos);
  ]
