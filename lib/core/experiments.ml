(* One driver per table/figure of the paper's evaluation (Section V),
   plus the ablations DESIGN.md calls out.  Every driver returns both the
   raw measurements and a rendered ASCII table so the bench harness, the
   CLI and EXPERIMENTS.md all consume the same numbers.

   All simulation is deterministic, so a single run per configuration is
   an exact measurement (no repetitions needed). *)

module Pass = Roload_passes.Pass
module Suite = Roload_workloads.Spec_suite
module Table = Roload_util.Table
module Stats = Roload_util.Stats

let default_scale = Suite.reference_scale

(* ---------- shared measurement helpers ---------- *)

type run = {
  benchmark : string;
  scheme : Pass.scheme;
  variant : System.variant;
  measurement : System.measurement;
}

(* Compiled executables, keyed on everything a compile depends on.  The
   toolchain is reentrant, so cells compile in the worker domains that
   run them: look up under the lock, compile outside it, store under it.
   Two cells racing on one key both compile the same bytes. *)
let compile_cache : (string * int * Toolchain.options, Roload_obj.Exe.t) Hashtbl.t =
  Hashtbl.create 64

let compile_lock = Mutex.create ()

let compile_benchmark ?(options = Toolchain.default_options) ~scale
    (b : Suite.benchmark) =
  let key = (b.Suite.name, scale, options) in
  match Mutex.protect compile_lock (fun () -> Hashtbl.find_opt compile_cache key) with
  | Some exe -> exe
  | None ->
    let exe = Toolchain.compile_exe ~options ~name:b.Suite.name (b.Suite.source ~scale) in
    Mutex.protect compile_lock (fun () -> Hashtbl.replace compile_cache key exe);
    exe

let run_benchmark ?(scheme = Pass.Unprotected)
    ?(variant = System.Processor_kernel_modified) ~scale b =
  let options = { Toolchain.default_options with scheme } in
  let exe = compile_benchmark ~options ~scale b in
  let measurement = System.run ~variant exe in
  { benchmark = b.Suite.name; scheme; variant; measurement }

(* Domain-parallel measurement fan-out: each cell compiles (through
   [compile_cache]) and simulates on the {!Parallel} pool.  Each cell
   owns a fresh machine/kernel/address space, so the measurements are
   bit-identical to a serial run, and [Parallel.map] returns them in input
   order. *)
(* Metrics collection across experiment cells.  Recording happens on the
   main domain only — in [run_cells], after [Parallel.map] has returned
   its in-input-order results — so the log is deterministic under any
   [-j N] and the workers never touch shared state. *)
let metrics_log : Roload_obs.Metrics.labeled list ref = ref []
let metrics_enabled = ref false

let enable_metrics () =
  metrics_enabled := true;
  metrics_log := []

let collected_metrics () = List.rev !metrics_log

let record_metrics rs =
  if !metrics_enabled then
    List.iter
      (fun r ->
        metrics_log :=
          {
            Roload_obs.Metrics.workload = r.benchmark;
            scheme =
              Printf.sprintf "%s/%s" (Pass.scheme_name r.scheme)
                (System.variant_name r.variant);
            m = r.measurement.System.metrics;
          }
          :: !metrics_log)
      rs

let run_cells ~scale cells =
  let rs =
    Parallel.map (fun (b, scheme, variant) -> run_benchmark ~scheme ~variant ~scale b) cells
  in
  record_metrics rs;
  rs

exception Experiment_failure of string

let require_clean r =
  if not (System.exited_cleanly r.measurement) then
    raise
      (Experiment_failure
         (Printf.sprintf "%s under %s on %s did not exit cleanly: %s" r.benchmark
            (Pass.scheme_name r.scheme)
            (System.variant_name r.variant)
            (System.status_string r.measurement)))

let require_same_output a b =
  if a.measurement.System.output <> b.measurement.System.output then
    raise
      (Experiment_failure
         (Printf.sprintf "%s: output diverges between %s/%s and %s/%s" a.benchmark
            (Pass.scheme_name a.scheme) (System.variant_name a.variant)
            (Pass.scheme_name b.scheme) (System.variant_name b.variant)))

let cyc r = Int64.to_float r.measurement.System.cycles
let mem_kib r = float_of_int r.measurement.System.footprint_bytes /. 1024.0

(* ---------- Table I: modification footprint ---------- *)

let table1 () =
  let t =
    Table.create ~title:"Table I analogue: ROLoad modification footprint"
      ~header:[ "Component"; "Modification surface (this reproduction)"; "Paper (LoC)" ]
      ()
  in
  Table.add_row t
    [ "RISC-V processor";
      "7 ld.ro-family decodes + c.ld.ro; TLB key field (10b) + parallel ro/key check";
      "59" ];
  Table.add_row t
    [ "Kernel";
      "loader key setup; mmap/mprotect key arguments; 1 new fault class triaged to SIGSEGV";
      "121" ];
  Table.add_row t
    [ "Compiler back-end";
      "ROLoad-md load metadata; VCall/ICall passes; ld.ro emission (+addi when offset needed)";
      "270" ];
  t

(* ---------- Table II: prototype configuration ---------- *)

let table2 () =
  let t =
    Table.create ~title:"Table II: simulated prototype configuration"
      ~header:[ "Component"; "Configuration" ] ()
  in
  List.iter
    (fun (k, v) -> Table.add_row t [ k; v ])
    (Roload_machine.Config.rows Roload_machine.Config.default);
  t

(* ---------- Table III: hardware cost ---------- *)

type table3_result = { synth : Roload_hw.Synth.result; table : Table.t }

let table3 () =
  let synth = Roload_hw.Synth.run () in
  let c = synth.Roload_hw.Synth.comparison in
  let t0 = synth.Roload_hw.Synth.timing_without in
  let t1 = synth.Roload_hw.Synth.timing_with in
  let t =
    Table.create ~title:"Table III: hardware resource cost (FPGA synthesis model)"
      ~header:
        [ ""; "core #LUT"; "%"; "core #FF"; "%"; "sys #LUT"; "%"; "sys #FF"; "%";
          "slack(ns)"; "Fmax(MHz)" ]
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      ()
  in
  let open Roload_hw.Area in
  Table.add_row t
    [ "without ld.ro";
      string_of_int c.core_without.luts; "-";
      string_of_int c.core_without.ffs; "-";
      string_of_int c.system_without.luts; "-";
      string_of_int c.system_without.ffs; "-";
      Printf.sprintf "%.3f" t0.Roload_hw.Timing_sta.worst_slack_ns;
      Printf.sprintf "%.2f" t0.Roload_hw.Timing_sta.fmax_mhz ];
  Table.add_row t
    [ "with ld.ro";
      string_of_int c.core_with.luts; Printf.sprintf "+%.5f" c.lut_increase_core_pct;
      string_of_int c.core_with.ffs; Printf.sprintf "+%.5f" c.ff_increase_core_pct;
      string_of_int c.system_with.luts; Printf.sprintf "+%.5f" c.lut_increase_system_pct;
      string_of_int c.system_with.ffs; Printf.sprintf "+%.5f" c.ff_increase_system_pct;
      Printf.sprintf "%.3f" t1.Roload_hw.Timing_sta.worst_slack_ns;
      Printf.sprintf "%.2f" t1.Roload_hw.Timing_sta.fmax_mhz ];
  { synth; table = t }

(* ---------- §V-B: system-level overhead (3 systems) ---------- *)

type section5b_result = {
  runs : run list;
  table : Table.t;
  avg_runtime_overhead_processor : float;
  avg_runtime_overhead_kernel : float;
}

let section5b ?(scale = default_scale) ?(benchmarks = Suite.all) ?(metrics = false) () =
  (* [metrics] appends per-row counter columns (ld.ro, ROLoad faults,
     TLB/cache miss rates from the full-system run); the default table is
     byte-identical to what it was before the metrics columns existed. *)
  let base_header =
    [ "benchmark"; "baseline cyc"; "+proc cyc"; "+proc ovh"; "+proc+kern cyc";
      "+proc+kern ovh"; "mem ovh" ]
  in
  let metric_header = [ "ld.ro"; "ro faults"; "D-TLB miss"; "D$ miss" ] in
  let header = if metrics then base_header @ metric_header else base_header in
  let table =
    Table.create
      ~title:"Section V-B: unmodified SPEC-like benchmarks on the three systems"
      ~header
      ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) (List.tl header))
      ()
  in
  let all_runs = ref [] in
  let ovh_p = ref [] and ovh_k = ref [] in
  (* three system variants per benchmark, fanned out across domains *)
  let cells =
    List.concat_map
      (fun b ->
        List.map (fun v -> (b, Pass.Unprotected, v)) System.all_variants)
      benchmarks
  in
  let results = run_cells ~scale cells in
  let rec regroup bs rs =
    match (bs, rs) with
    | [], [] -> []
    | b :: bs', base :: proc :: kern :: rs' -> (b, base, proc, kern) :: regroup bs' rs'
    | _ -> assert false
  in
  List.iter
    (fun ((b : Suite.benchmark), base, proc, kern) ->
      require_clean base;
      require_clean proc;
      require_clean kern;
      require_same_output base proc;
      require_same_output base kern;
      all_runs := !all_runs @ [ base; proc; kern ];
      let op = Stats.overhead_pct ~base:(cyc base) ~measured:(cyc proc) in
      let ok = Stats.overhead_pct ~base:(cyc base) ~measured:(cyc kern) in
      let om = Stats.overhead_pct ~base:(mem_kib base) ~measured:(mem_kib kern) in
      ovh_p := op :: !ovh_p;
      ovh_k := ok :: !ovh_k;
      let base_cells =
        [ b.Suite.name;
          Int64.to_string base.measurement.System.cycles;
          Int64.to_string proc.measurement.System.cycles;
          Stats.pct_string op;
          Int64.to_string kern.measurement.System.cycles;
          Stats.pct_string ok;
          Stats.pct_string om ]
      in
      let metric_cells =
        if not metrics then []
        else
          let m = kern.measurement.System.metrics in
          [ string_of_int m.Roload_obs.Metrics.roloads;
            string_of_int (Roload_obs.Metrics.roload_faults m);
            Printf.sprintf "%.3f%%" (Roload_obs.Metrics.dtlb_miss_pct m);
            Printf.sprintf "%.3f%%" (Roload_obs.Metrics.dcache_miss_pct m) ]
      in
      Table.add_row table (base_cells @ metric_cells))
    (regroup benchmarks results);
  let avg_p = Stats.mean !ovh_p and avg_k = Stats.mean !ovh_k in
  Table.add_row table
    ([ "average"; "-"; "-"; Stats.pct_string avg_p; "-"; Stats.pct_string avg_k; "-" ]
    @ (if metrics then [ "-"; "-"; "-"; "-" ] else []));
  {
    runs = !all_runs;
    table;
    avg_runtime_overhead_processor = avg_p;
    avg_runtime_overhead_kernel = avg_k;
  }

(* ---------- shared scheme-comparison machinery for Figs 3–5 ---------- *)

type scheme_comparison = {
  benchmark : string;
  base : run;
  hardened : (Pass.scheme * run) list;
}

(* Batched over all benchmarks so the whole (benchmark × scheme) grid
   fans out across domains at once. *)
let compare_schemes_all ~scale ~schemes benchmarks =
  let variant = System.Processor_kernel_modified in
  let cells =
    List.concat_map
      (fun b ->
        (b, Pass.Unprotected, variant) :: List.map (fun s -> (b, s, variant)) schemes)
      benchmarks
  in
  let results = run_cells ~scale cells in
  let per = 1 + List.length schemes in
  let rec take n rs = if n = 0 then ([], rs) else
    match rs with
    | r :: rs' ->
      let taken, rest = take (n - 1) rs' in
      (r :: taken, rest)
    | [] -> assert false
  in
  let rec regroup bs rs =
    match bs with
    | [] ->
      assert (rs = []);
      []
    | (b : Suite.benchmark) :: bs' ->
      let group, rest = take per rs in
      let base = List.hd group in
      require_clean base;
      let hardened =
        List.map2
          (fun scheme r ->
            require_clean r;
            require_same_output base r;
            (scheme, r))
          schemes (List.tl group)
      in
      { benchmark = b.Suite.name; base; hardened } :: regroup bs' rest
  in
  regroup benchmarks results

let overhead_table ~title ~schemes ~value ~comparisons =
  let header =
    "benchmark" :: List.concat_map (fun s -> [ Pass.scheme_name s ^ " ovh" ]) schemes
  in
  let table =
    Table.create ~title ~header
      ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) schemes)
      ()
  in
  let per_scheme = Hashtbl.create 8 in
  List.iter
    (fun cmp ->
      let cells =
        List.map
          (fun scheme ->
            let r = List.assoc scheme cmp.hardened in
            let ovh = Stats.overhead_pct ~base:(value cmp.base) ~measured:(value r) in
            let prev = Option.value ~default:[] (Hashtbl.find_opt per_scheme scheme) in
            Hashtbl.replace per_scheme scheme (ovh :: prev);
            Stats.pct_string ovh)
          schemes
      in
      Table.add_row table (cmp.benchmark :: cells))
    comparisons;
  let averages =
    List.map (fun s -> (s, Stats.mean (Hashtbl.find per_scheme s))) schemes
  in
  Table.add_row table
    ("average" :: List.map (fun (_, v) -> Stats.pct_string v) averages);
  (table, averages)

(* ---------- Figure 3: VCall vs VTint (3 C++ benchmarks) ---------- *)

type figure_result = {
  comparisons : scheme_comparison list;
  runtime_table : Table.t;
  memory_table : Table.t; (* byte-granular footprint *)
  memory_pages_table : Table.t;
      (* page-granular resident set: this is where the keyed-page
         fragmentation of ICall's GFPTs shows up (the paper's explanation
         for ICall's memory overhead exceeding CFI's, §V-C1b) *)
  runtime_averages : (Pass.scheme * float) list;
  memory_averages : (Pass.scheme * float) list;
  metrics_table : Table.t;
      (* per-cell counters (ld.ro, GFPT indirections, faults, miss rates);
         built from the same measurements, printed only under --metrics *)
}

let mem_pages r = float_of_int r.measurement.System.peak_kib

(* The counter companion to an overhead table: one row per
   (benchmark, scheme) cell, from measurements already taken. *)
let metrics_table_of ~title ~schemes comparisons =
  let table =
    Table.create ~title
      ~header:
        [ "benchmark"; "scheme"; "ld.ro"; "gfpt"; "ro faults"; "D-TLB miss"; "D$ miss" ]
      ~aligns:
        [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right ]
      ()
  in
  List.iter
    (fun cmp ->
      List.iter
        (fun (label, r) ->
          let m = r.measurement.System.metrics in
          Table.add_row table
            [ cmp.benchmark; label;
              string_of_int m.Roload_obs.Metrics.roloads;
              string_of_int m.Roload_obs.Metrics.roload_typed;
              string_of_int (Roload_obs.Metrics.roload_faults m);
              Printf.sprintf "%.3f%%" (Roload_obs.Metrics.dtlb_miss_pct m);
              Printf.sprintf "%.3f%%" (Roload_obs.Metrics.dcache_miss_pct m) ])
        (("unprotected", cmp.base)
        :: List.map (fun s -> (Pass.scheme_name s, List.assoc s cmp.hardened)) schemes))
    comparisons;
  table

let figure_generic ~scale ~benchmarks ~schemes ~runtime_title ~memory_title =
  let comparisons = compare_schemes_all ~scale ~schemes benchmarks in
  let runtime_table, runtime_averages =
    overhead_table ~title:runtime_title ~schemes ~value:cyc ~comparisons
  in
  let memory_table, memory_averages =
    overhead_table ~title:memory_title ~schemes ~value:mem_kib ~comparisons
  in
  let memory_pages_table, _ =
    overhead_table ~title:(memory_title ^ " [page-granular RSS]") ~schemes
      ~value:mem_pages ~comparisons
  in
  let metrics_table =
    metrics_table_of ~title:(runtime_title ^ " [counters]") ~schemes comparisons
  in
  { comparisons; runtime_table; memory_table; memory_pages_table; runtime_averages;
    memory_averages; metrics_table }

let figure3 ?(scale = default_scale) () =
  figure_generic ~scale ~benchmarks:Suite.cxx_benchmarks
    ~schemes:[ Pass.Vcall; Pass.Vtint_baseline ]
    ~runtime_title:"Figure 3 (runtime): VCall vs VTint, C++ benchmarks"
    ~memory_title:"Figure 3 (memory): VCall vs VTint, C++ benchmarks"

(* ---------- Figures 4 & 5: ICall vs CFI (all benchmarks) ---------- *)

let figure45 ?(scale = default_scale) ?(benchmarks = Suite.all) () =
  figure_generic ~scale ~benchmarks
    ~schemes:[ Pass.Icall; Pass.Cfi_baseline ]
    ~runtime_title:"Figure 4: runtime overhead, ICall vs CFI"
    ~memory_title:"Figure 5: memory overhead, ICall vs CFI"

(* ---------- §V-C2 security matrix ---------- *)

type security_result = {
  matrix : (Pass.scheme * (Roload_security.Attack.kind * Roload_security.Attack.outcome) list) list;
  table : Table.t;
}

let security () =
  let matrix =
    Parallel.map
      (fun scheme ->
        let options = { Toolchain.default_options with scheme } in
        let exe = Toolchain.compile_exe ~options ~name:"victim" Roload_security.Victim.source in
        (scheme, Roload_security.Eval.run_corpus ~exe ()))
      Pass.all_schemes
  in
  let table =
    Table.create ~title:"Section V-C2: attack outcomes per hardening scheme"
      ~header:
        ("attack"
        :: List.map (fun s -> Pass.scheme_name s) Pass.all_schemes)
      ()
  in
  List.iter
    (fun kind ->
      let cells =
        List.map
          (fun (_, results) ->
            Roload_security.Attack.outcome_name (List.assoc kind results))
          matrix
      in
      Table.add_row table (Roload_security.Attack.kind_name kind :: cells))
    Roload_security.Attack.all_kinds;
  { matrix; table }

let related_work_table () =
  let t =
    Table.create ~title:"Section VI: mechanism comparison"
      ~header:[ "mechanism"; "acts"; "granularity"; "extra arch state"; "overhead" ]
      ()
  in
  List.iter
    (fun (m : Roload_security.Compare.mechanism) ->
      Table.add_row t
        [ m.Roload_security.Compare.name;
          Roload_security.Compare.act_point_name m.Roload_security.Compare.acts;
          m.Roload_security.Compare.granularity;
          (if m.Roload_security.Compare.extra_arch_state then "yes" else "no");
          m.Roload_security.Compare.runtime_overhead ])
    Roload_security.Compare.mechanisms;
  t

(* ---------- ablations ---------- *)

(* RVC compression (incl. c.ld.ro): code-size effect the paper motivates
   the compressed encoding with. *)
let ablation_compressed ?(scale = 1) ?(benchmarks = Suite.cxx_benchmarks) () =
  let table =
    Table.create ~title:"Ablation: RVC compression (code bytes, ICall-hardened)"
      ~header:[ "benchmark"; "uncompressed"; "compressed"; "saving" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      ()
  in
  let text_bytes exe =
    List.fold_left
      (fun acc (s : Roload_obj.Exe.segment) ->
        if s.Roload_obj.Exe.perms.Roload_mem.Perm.x then
          acc + String.length s.Roload_obj.Exe.data
        else acc)
      0 exe.Roload_obj.Exe.segments
  in
  List.iter
    (fun b ->
      let mk compress =
        compile_benchmark
          ~options:{ Toolchain.default_options with scheme = Pass.Icall; compress }
          ~scale b
      in
      let unc = text_bytes (mk false) and com = text_bytes (mk true) in
      Table.add_row table
        [ b.Suite.name; string_of_int unc; string_of_int com;
          Printf.sprintf "-%.1f%%" (float_of_int (unc - com) /. float_of_int unc *. 100.0) ])
    benchmarks;
  table

(* Key granularity: per-hierarchy keys (VCall) vs the unified vtable key
   (ICall) — the paper credits the unified key with better TLB/cache
   locality (§V-C1b). *)
let ablation_keys ?(scale = 1) () =
  let table =
    Table.create
      ~title:"Ablation: vtable key granularity (per-hierarchy vs unified)"
      ~header:[ "benchmark"; "scheme"; "cycles"; "D-TLB misses"; "runtime ovh" ]
      ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right ]
      ()
  in
  let schemes = [ Pass.Vcall; Pass.Icall ] in
  let comparisons = compare_schemes_all ~scale ~schemes Suite.cxx_benchmarks in
  List.iter
    (fun cmp ->
      List.iter
        (fun scheme ->
          let r = List.assoc scheme cmp.hardened in
          Table.add_row table
            [ cmp.benchmark; Pass.scheme_name scheme;
              Int64.to_string r.measurement.System.cycles;
              string_of_int r.measurement.System.dtlb.System.misses;
              Stats.pct_string
                (Stats.overhead_pct ~base:(cyc cmp.base) ~measured:(cyc r)) ])
        schemes)
    comparisons;
  table

(* separate-code layout: without it every ld.ro faults (§V-B). *)
let ablation_separate_code () =
  let b = List.hd Suite.cxx_benchmarks in
  let mk separate_code =
    Toolchain.compile_exe
      ~options:{ Toolchain.default_options with scheme = Pass.Vcall; separate_code }
      ~name:b.Suite.name (b.Suite.source ~scale:1)
  in
  let with_sc = System.run ~variant:System.Processor_kernel_modified (mk true) in
  let without_sc = System.run ~variant:System.Processor_kernel_modified (mk false) in
  let table =
    Table.create ~title:"Ablation: -z separate-code requirement (VCall-hardened omnetpp)"
      ~header:[ "layout"; "outcome" ] ()
  in
  Table.add_row table [ "separate-code"; System.status_string with_sc ];
  Table.add_row table [ "merged ro+text"; System.status_string without_sc ];
  table

(* The §IV-C backward-edge extension: runtime cost of the return-site
   allowlist (protected calls + ld.ro returns) across the suite. *)
let ablation_retcall ?(scale = 1) ?(benchmarks = Suite.all) () =
  let table =
    Table.create
      ~title:"Ablation: backward-edge protection (Retcall, §IV-C extension)"
      ~header:[ "benchmark"; "runtime ovh"; "memory ovh"; "ld.ro/1k insts" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      ()
  in
  let ovhs = ref [] in
  let comparisons = compare_schemes_all ~scale ~schemes:[ Pass.Retcall ] benchmarks in
  List.iter
    (fun cmp ->
      let base = cmp.base in
      let r = List.assoc Pass.Retcall cmp.hardened in
      let ovh = Stats.overhead_pct ~base:(cyc base) ~measured:(cyc r) in
      ovhs := ovh :: !ovhs;
      let density =
        1000.0
        *. float_of_int r.measurement.System.roloads_executed
        /. Int64.to_float r.measurement.System.instructions
      in
      Table.add_row table
        [ cmp.benchmark; Stats.pct_string ovh;
          Stats.pct_string
            (Stats.overhead_pct ~base:(mem_kib base) ~measured:(mem_kib r));
          Printf.sprintf "%.2f" density ])
    comparisons;
  Table.add_row table [ "average"; Stats.pct_string (Stats.mean !ovhs); "-"; "-" ];
  table

(* ---------- roload-prove + roload-elide: proof-guided check elision ----------

   The closed loop of the static-analysis layer: compile each workload
   ICall-hardened twice — once plain, once with --elide (a clean
   whole-program prove run followed by proof-guided rewriting of
   provably-safe ld.ro sites to plain loads behind one hoisted check) —
   run both on the full system and compare the dynamic ld.ro execution
   counts.  Output divergence between the two builds is an
   [Experiment_failure]: elision must be semantically invisible. *)

type elide_row = {
  el_benchmark : string;
  el_roloads_before : int;  (** dynamic ld.ro executions, plain ICall build *)
  el_roloads_after : int;  (** same counter, elided build *)
  el_reduction_pct : float;  (** 100 * (before - after) / before; 0 if before = 0 *)
  el_cycles_before : int64;
  el_cycles_after : int64;
}

type elide_result = {
  el_rows : elide_row list;
  el_table : Table.t;
  el_best_reduction_pct : float;  (** max over workloads *)
}

let experiment_elide ?(scale = default_scale) ?(scheme = Pass.Icall)
    ?(benchmarks = Suite.all) () =
  let plain = { Toolchain.default_options with scheme } in
  let elided = { Toolchain.default_options with scheme; elide = true } in
  let cells = List.concat_map (fun b -> [ (b, plain); (b, elided) ]) benchmarks in
  let results =
    Parallel.map
      (fun (b, options) ->
        let exe = compile_benchmark ~options ~scale b in
        let measurement = System.run ~variant:System.Processor_kernel_modified exe in
        { benchmark = b.Suite.name; scheme = options.Toolchain.scheme;
          variant = System.Processor_kernel_modified; measurement })
      cells
  in
  let rec regroup = function
    | [] -> []
    | before :: after :: rest -> (before, after) :: regroup rest
    | [ _ ] -> assert false
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "roload-elide: proof-guided ld.ro elision (%s-hardened)"
           (Pass.scheme_name scheme))
      ~header:
        [ "benchmark"; "ld.ro"; "ld.ro elided"; "removed"; "cycles"; "cycles elided";
          "cyc delta" ]
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right ]
      ()
  in
  let rows =
    List.map
      (fun (before, after) ->
        require_clean before;
        require_clean after;
        require_same_output before after;
        let rb = before.measurement.System.roloads_executed in
        let ra = after.measurement.System.roloads_executed in
        let red =
          if rb = 0 then 0.0 else 100.0 *. float_of_int (rb - ra) /. float_of_int rb
        in
        let row =
          {
            el_benchmark = before.benchmark;
            el_roloads_before = rb;
            el_roloads_after = ra;
            el_reduction_pct = red;
            el_cycles_before = before.measurement.System.cycles;
            el_cycles_after = after.measurement.System.cycles;
          }
        in
        Table.add_row table
          [ row.el_benchmark; string_of_int rb; string_of_int ra;
            Printf.sprintf "-%.1f%%" red;
            Int64.to_string row.el_cycles_before;
            Int64.to_string row.el_cycles_after;
            Stats.pct_string
              (Stats.overhead_pct
                 ~base:(Int64.to_float row.el_cycles_before)
                 ~measured:(Int64.to_float row.el_cycles_after)) ];
        row)
      (regroup results)
  in
  (* not recorded in the metrics log: both cells of a pair would carry the
     same scheme label, and the elided build is not part of the committed
     cycle baselines *)
  let best =
    List.fold_left (fun acc r -> max acc r.el_reduction_pct) 0.0 rows
  in
  Table.add_row table
    [ "best"; "-"; "-"; Printf.sprintf "-%.1f%%" best; "-"; "-"; "-" ];
  { el_rows = rows; el_table = table; el_best_reduction_pct = best }

(* ---------- the request-serving macro-benchmark ----------

   The server workload through the multi-process kernel: the root forks
   a worker pool, workers drain the request device through virtual
   dispatch (VCall surface) and an indirect-call plugin table (ICall
   surface).  Throughput is wall-clock requests/s; latency percentiles
   are in simulated cycles (request handed out -> service completed),
   so they are deterministic and comparable across hosts.

   Which worker serves which request depends on the interleaving — and
   each scheme's instruction stream (hence interleaving) differs.  The
   workload's checksum is a pure function of the payload multiset, so
   the consoles must still come out byte-identical across schemes; any
   divergence is a real bug and an [Experiment_failure]. *)

type server_row = {
  sv_scheme : Pass.scheme;
  sv_wall_s : float;
  sv_requests_per_s : float;  (** served requests per wall-clock second *)
  sv_p50_cycles : int64;  (** median service latency, simulated cycles *)
  sv_p99_cycles : int64;  (** tail service latency, simulated cycles *)
  sv_cycles : int64;  (** machine-global simulated cycles, all tasks *)
  sv_instructions : int64;
  sv_served : int;
}

type server_result = {
  sv_rows : server_row list;
  sv_table : Table.t;
  sv_requests : int;
  sv_console : string;  (** the identical console of every scheme *)
}

let latency_percentile lats p =
  let n = Array.length lats in
  if n = 0 then 0L
  else begin
    let a = Array.copy lats in
    Array.sort Int64.compare a;
    a.((p * (n - 1)) / 100)
  end

let experiment_server ?(requests = 100_000) ?(seed = 42L) ?time_slice
    ?(schemes = [ Pass.Unprotected; Pass.Vcall; Pass.Icall ]) () =
  let module Server = Roload_workloads.Server_like in
  let stream = Server.requests ~seed ~count:requests in
  let cells =
    Parallel.map
      (fun scheme ->
        let exe =
          Toolchain.compile_exe
            ~options:{ Toolchain.default_options with scheme }
            ~name:Server.name
            (Server.source ~scale:1)
        in
        let t0 = Unix.gettimeofday () in
        let m, stats =
          System.run_server ?time_slice ~variant:System.Processor_kernel_modified
            ~requests:stream exe
        in
        (scheme, m, stats, Unix.gettimeofday () -. t0))
      schemes
  in
  let console =
    match cells with
    | (_, _, s, _) :: _ -> s.System.console
    | [] -> invalid_arg "experiment_server: no schemes"
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "server macro-benchmark: %d requests, %d workers" requests
           Server.workers)
      ~header:[ "scheme"; "req/s"; "p50 (cyc)"; "p99 (cyc)"; "total cyc"; "ovh"; "served" ]
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right ]
      ()
  in
  let base_cycles = ref None in
  let rows =
    List.map
      (fun (scheme, (m : System.measurement), (stats : System.server_stats), wall) ->
        let label = Pass.scheme_name scheme in
        if not (System.exited_cleanly m) then
          raise
            (Experiment_failure
               (Printf.sprintf "server under %s did not exit cleanly: %s" label
                  (System.status_string m)));
        if stats.System.served <> requests then
          raise
            (Experiment_failure
               (Printf.sprintf "server under %s served %d of %d requests" label
                  stats.System.served requests));
        if stats.System.console <> console then
          raise
            (Experiment_failure
               (Printf.sprintf
                  "server checksum diverges under %s — the request partition leaked into \
                   the output"
                  label));
        List.iter
          (fun (pid, st) ->
            match st with
            | Roload_kernel.Process.Exited _ -> ()
            | _ ->
              raise
                (Experiment_failure
                   (Printf.sprintf "server under %s: task %d did not exit" label pid)))
          stats.System.task_statuses;
        let row =
          {
            sv_scheme = scheme;
            sv_wall_s = wall;
            sv_requests_per_s =
              (if wall > 0.0 then float_of_int stats.System.served /. wall else 0.0);
            sv_p50_cycles = latency_percentile stats.System.latencies 50;
            sv_p99_cycles = latency_percentile stats.System.latencies 99;
            sv_cycles = m.System.cycles;
            sv_instructions = m.System.instructions;
            sv_served = stats.System.served;
          }
        in
        let base =
          match !base_cycles with
          | Some c -> c
          | None ->
            base_cycles := Some m.System.cycles;
            m.System.cycles
        in
        Table.add_row table
          [ label;
            Printf.sprintf "%.0f" row.sv_requests_per_s;
            Int64.to_string row.sv_p50_cycles;
            Int64.to_string row.sv_p99_cycles;
            Int64.to_string row.sv_cycles;
            Stats.pct_string
              (Stats.overhead_pct ~base:(Int64.to_float base)
                 ~measured:(Int64.to_float row.sv_cycles));
            string_of_int row.sv_served ];
        row)
      cells
  in
  (* not recorded in the metrics log: the server cells are gated by
     their exact served/checksum checks above, not the committed cycle
     baselines *)
  { sv_rows = rows; sv_table = table; sv_requests = requests; sv_console = console }

(* D-TLB reach sensitivity for the key-granularity argument. *)
let ablation_tlb ?(scale = 1) ?(entries = [ 8; 16; 32; 64 ]) () =
  let b =
    match Suite.find "xalancbmk" with Some b -> b | None -> List.hd Suite.cxx_benchmarks
  in
  let table =
    Table.create ~title:"Ablation: D-TLB entries vs vcall hardening (xalancbmk)"
      ~header:[ "entries"; "scheme"; "cycles"; "D-TLB miss rate" ]
      ~aligns:[ Table.Right; Table.Left; Table.Right; Table.Right ]
      ()
  in
  let schemes = [ Pass.Unprotected; Pass.Vcall; Pass.Icall ] in
  let cells = List.concat_map (fun n -> List.map (fun scheme -> (n, scheme)) schemes) entries in
  let rows =
    Parallel.map
      (fun (n, scheme) ->
        let exe =
          compile_benchmark ~options:{ Toolchain.default_options with scheme } ~scale b
        in
        let machine_config = { Roload_machine.Config.default with dtlb_entries = n } in
        let machine = Roload_machine.Machine.create machine_config in
        let kernel =
          Roload_kernel.Kernel.create ~machine ~config:Roload_kernel.Kernel.default_config
        in
        let _p, outcome = Roload_kernel.Kernel.exec kernel exe in
        let mmu = Roload_kernel.Process.mmu _p in
        let st = Roload_mem.Tlb.stats (Roload_mem.Mmu.dtlb mmu) in
        let rate =
          float_of_int st.Roload_mem.Tlb.misses
          /. float_of_int (max 1 (st.Roload_mem.Tlb.hits + st.Roload_mem.Tlb.misses))
          *. 100.0
        in
        [ string_of_int n; Pass.scheme_name scheme;
          Int64.to_string outcome.Roload_kernel.Kernel.cycles;
          Printf.sprintf "%.4f%%" rate ])
      cells
  in
  List.iter (Table.add_row table) rows;
  table
