(** One driver per table/figure of the paper's evaluation (Section V),
    plus the ablations DESIGN.md calls out.  Drivers return both raw
    measurements and rendered ASCII tables; all simulation is
    deterministic, so one run per configuration is an exact
    measurement. *)

module Pass = Roload_passes.Pass
module Suite = Roload_workloads.Spec_suite
module Table = Roload_util.Table

val default_scale : int

type run = {
  benchmark : string;
  scheme : Pass.scheme;
  variant : System.variant;
  measurement : System.measurement;
}

val compile_benchmark :
  ?options:Toolchain.options -> scale:int -> Suite.benchmark -> Roload_obj.Exe.t
(** Memoized across experiments on (benchmark, scale, whole options
    record); safe to call from worker domains. *)

val run_benchmark :
  ?scheme:Pass.scheme -> ?variant:System.variant -> scale:int -> Suite.benchmark -> run

exception Experiment_failure of string
(** Raised when a benchmark crashes or hardened output diverges from the
    unprotected baseline — experiments never silently report numbers from
    broken runs. *)

val table1 : unit -> Table.t
val table2 : unit -> Table.t

type table3_result = { synth : Roload_hw.Synth.result; table : Table.t }

val table3 : unit -> table3_result

type section5b_result = {
  runs : run list;
  table : Table.t;
  avg_runtime_overhead_processor : float;
  avg_runtime_overhead_kernel : float;
}

val section5b :
  ?scale:int ->
  ?benchmarks:Suite.benchmark list ->
  ?metrics:bool ->
  unit ->
  section5b_result
(** [metrics] (default false) appends per-row counter columns — ld.ro
    count, ROLoad faults, D-TLB/D$ miss rates from the full-system run.
    Off, the table is byte-identical to the pre-metrics rendering. *)

val enable_metrics : unit -> unit
(** Start collecting a per-cell metrics log from every [run_cells]-based
    experiment (recorded on the main domain, deterministic under -j N). *)

val collected_metrics : unit -> Roload_obs.Metrics.labeled list
(** The log collected since [enable_metrics], in execution order. *)

type scheme_comparison = {
  benchmark : string;
  base : run;
  hardened : (Pass.scheme * run) list;
}

type figure_result = {
  comparisons : scheme_comparison list;
  runtime_table : Table.t;
  memory_table : Table.t;  (** byte-granular footprint *)
  memory_pages_table : Table.t;
      (** page-granular RSS — where ICall's keyed-page fragmentation
          appears (paper §V-C1b) *)
  runtime_averages : (Pass.scheme * float) list;
  memory_averages : (Pass.scheme * float) list;
  metrics_table : Table.t;
      (** per-cell counters (ld.ro, GFPT indirections, faults, miss
          rates), built from the same measurements; printed only under
          --metrics *)
}

val figure3 : ?scale:int -> unit -> figure_result
val figure45 : ?scale:int -> ?benchmarks:Suite.benchmark list -> unit -> figure_result

type security_result = {
  matrix :
    (Pass.scheme
    * (Roload_security.Attack.kind * Roload_security.Attack.outcome) list)
    list;
  table : Table.t;
}

val security : unit -> security_result
val related_work_table : unit -> Table.t

type elide_row = {
  el_benchmark : string;
  el_roloads_before : int;  (** dynamic ld.ro executions, plain hardened build *)
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

val experiment_elide :
  ?scale:int ->
  ?scheme:Pass.scheme ->
  ?benchmarks:Suite.benchmark list ->
  unit ->
  elide_result
(** The closed loop of the roload-prove layer: each workload is compiled
    hardened (default ICall) twice — plain and with proof-guided ld.ro
    check elision — and both builds run on the full system.  Raises
    {!Experiment_failure} if either build crashes or their outputs
    diverge (elision must be semantically invisible). *)

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

val experiment_server :
  ?requests:int ->
  ?seed:int64 ->
  ?time_slice:int ->
  ?schemes:Pass.scheme list ->
  unit ->
  server_result
(** The request-serving macro-benchmark: the server workload forked
    into a worker pool on the multi-process kernel, drained through
    virtual dispatch and the indirect-call plugin table under each
    scheme (default stock/VCall/ICall).  Throughput is wall-clock
    requests/s; latency percentiles are deterministic simulated cycles.
    Raises {!Experiment_failure} if any scheme crashes, leaves requests
    unserved, or prints a different checksum — the workload's output is
    partition-independent by construction. *)

val ablation_compressed : ?scale:int -> ?benchmarks:Suite.benchmark list -> unit -> Table.t
val ablation_keys : ?scale:int -> unit -> Table.t
val ablation_separate_code : unit -> Table.t
val ablation_retcall : ?scale:int -> ?benchmarks:Suite.benchmark list -> unit -> Table.t
val ablation_tlb : ?scale:int -> ?entries:int list -> unit -> Table.t
