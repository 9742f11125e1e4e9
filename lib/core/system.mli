(** The evaluation's system matrix (paper §V-B) and the one-call
    measurement runner.  All simulation is deterministic, so a single run
    is an exact measurement. *)

type variant =
  | Baseline  (** unmodified processor, stock kernel *)
  | Processor_modified  (** ld.ro-capable processor, stock kernel *)
  | Processor_kernel_modified  (** the full ROLoad system *)

val variant_name : variant -> string
val all_variants : variant list
val machine_config : variant -> Roload_machine.Config.t
val kernel_config : variant -> Roload_kernel.Kernel.config

type cache_stats = { accesses : int; misses : int }

type measurement = {
  status : Roload_kernel.Process.status;
  cycles : int64;
  instructions : int64;
  peak_kib : int;  (** page-granular resident set *)
  footprint_bytes : int;
      (** byte-granular footprint: static image + heap growth + stack *)
  output : string;
      (** the root process's write() output; a forked child's is not in
          it (the differential fuzzer compares it with the IR oracle,
          which models one process) *)
  console : string;  (** interleaved write() output of every task *)
  icache : cache_stats;
  dcache : cache_stats;
  itlb : cache_stats;
  dtlb : cache_stats;
  roloads_executed : int;
  metrics : Roload_obs.Metrics.t;
      (** the full counter snapshot; exact, available with tracing off *)
  profile : Roload_obs.Profile.block list;
      (** hot-block attribution; empty unless [run ~profile:true] *)
}

val run :
  ?max_instructions:int64 ->
  ?tracer:Roload_obs.Tracer.t ->
  ?profile:bool ->
  ?engine:Roload_machine.Machine.engine ->
  ?template:Roload_machine.Machine.image ->
  variant:variant ->
  Roload_obj.Exe.t ->
  measurement
(** [engine] selects the execution engine for this run (defaults to
    [Machine.effective_engine ()]).
    [template] seeds the run from a boot image instead of creating a
    machine from reset; [Machine.fork] of a just-created machine is
    bit-identical to [Machine.create].  It buys no memory: a fresh
    machine's DRAM is already demand-zero (see {!Roload_mem.Phys_mem}).
    The image carries its own engine and hot-threshold; [engine] is
    ignored when [template] is supplied.
    [tracer] attaches the structured event tracer and [profile] enables
    hot-block profiling; neither changes the measurement — cycles,
    statistics and output are bit-identical with both off or on.

    [max_instructions] is the fuel budget (default 5×10⁸ retired
    instructions, orders of magnitude above any paper workload).  A
    program that exhausts it — e.g. an infinite loop — comes back with
    status [Running] rather than hanging the harness; callers that fan
    out cells (experiments, fuzzing, chaos campaigns) treat that as a
    distinct "fuel exhausted" outcome. *)

type server_stats = {
  served : int;  (** requests whose service completed *)
  latencies : int64 array;
      (** completed-request cycle latencies, request-id order *)
  console : string;  (** interleaved write() output of every task *)
  task_statuses : (int * Roload_kernel.Process.status) list;
  records : Roload_kernel.Kernel.request_record array;
      (** per-request delivery ledger (handouts, redeliveries,
          completions, committed result) *)
  restarts : int;  (** supervised worker reincarnations *)
  checksum : int64;
      (** kernel-side fold of committed results — order-independent, so
          identical across schemes, engines and shard counts *)
}

val run_server :
  ?max_instructions:int64 ->
  ?time_slice:int ->
  ?tracer:Roload_obs.Tracer.t ->
  ?engine:Roload_machine.Machine.engine ->
  ?shards:int ->
  ?supervision:Roload_kernel.Kernel.supervision ->
  ?configure:(Roload_kernel.Kernel.t -> unit) ->
  variant:variant ->
  requests:int array ->
  Roload_obj.Exe.t ->
  measurement * server_stats
(** Like {!run}, but through the multi-process kernel: the request
    device is loaded with [requests] across [shards] queues (default 1),
    the executable is spawned as the root task and scheduled round-robin
    ([time_slice] retired instructions per quantum, default 20k) until
    every task exits.  [supervision] arms the worker supervisor (bounded
    deterministic restarts + deadline watchdog); [configure] runs
    against the kernel after {!boot_server} and before the root runs —
    request hooks are installed there.  The
    measurement's instruction/cycle counters are machine-global; status,
    peak and output are the root task's.  Deterministic: the quantum is
    counted in retired instructions, so the interleaving is identical
    across engines and host parallelism. *)

val boot_server :
  ?tracer:Roload_obs.Tracer.t ->
  ?engine:Roload_machine.Machine.engine ->
  ?shards:int ->
  ?supervision:Roload_kernel.Kernel.supervision ->
  variant:variant ->
  requests:int array ->
  Roload_obj.Exe.t ->
  Roload_machine.Machine.t * Roload_kernel.Kernel.t * Roload_kernel.Process.t
(** The first half of {!run_server}: a fresh system with the request
    device loaded, the supervisor armed and the executable spawned as
    the root task, not yet run.  Runners that pause the server
    ({!Roload_kernel.Kernel.run_all}'s [pause_at_handout]) and snapshot
    it start here. *)

val measure_server :
  machine:Roload_machine.Machine.t ->
  kernel:Roload_kernel.Kernel.t ->
  process:Roload_kernel.Process.t ->
  Roload_obj.Exe.t ->
  Roload_kernel.Kernel.run_outcome ->
  measurement * server_stats
(** The second half of {!run_server}: the measurement and serving
    statistics of a finished run of [process], the root task. *)

val snapshot_metrics :
  machine:Roload_machine.Machine.t ->
  kernel:Roload_kernel.Kernel.t ->
  mmu:Roload_mem.Mmu.t ->
  Roload_obs.Metrics.t
(** Assemble the exact counter snapshot from a live machine/kernel pair —
    the same assembly [run] performs; exposed for runners that drive the
    kernel loop themselves (the roload-chaos campaign). *)

val total_instructions_simulated : unit -> int
(** Instructions simulated by every [run] so far in this process, across
    all domains — the numerator of the bench harness's simulated-MIPS. *)

val exited_cleanly : measurement -> bool
val status_string : measurement -> string
