(* The evaluation's system matrix (paper §V-B): the baseline system, the
   processor-modified system, and the processor-and-kernel-modified
   system — plus a one-call runner that loads an executable and measures
   it on a fresh machine instance (deterministic, so a single run is an
   exact measurement). *)

module Machine = Roload_machine.Machine
module Config = Roload_machine.Config
module Kernel = Roload_kernel.Kernel
module Process = Roload_kernel.Process
module Cache = Roload_cache.Cache
module Tlb = Roload_mem.Tlb
module Mmu = Roload_mem.Mmu

type variant =
  | Baseline (* unmodified processor, stock kernel *)
  | Processor_modified (* ld.ro-capable processor, stock kernel *)
  | Processor_kernel_modified (* the full ROLoad system *)

let variant_name = function
  | Baseline -> "baseline"
  | Processor_modified -> "processor-modified"
  | Processor_kernel_modified -> "processor+kernel-modified"

let all_variants = [ Baseline; Processor_modified; Processor_kernel_modified ]

let machine_config = function
  | Baseline -> Config.baseline
  | Processor_modified | Processor_kernel_modified -> Config.default

let kernel_config = function
  | Baseline | Processor_modified -> Kernel.stock_kernel_config
  | Processor_kernel_modified -> Kernel.default_config

type cache_stats = { accesses : int; misses : int }

type measurement = {
  status : Process.status;
  cycles : int64;
  instructions : int64;
  peak_kib : int;
  footprint_bytes : int;
      (* byte-granular memory footprint: static image + heap growth +
         stack — used for the paper's sub-percent memory overheads, which
         page-granular accounting cannot resolve *)
  output : string; (* the root process's write() output *)
  console : string; (* interleaved write() output of every task *)
  icache : cache_stats;
  dcache : cache_stats;
  itlb : cache_stats;
  dtlb : cache_stats;
  roloads_executed : int;
  metrics : Roload_obs.Metrics.t;
  profile : Roload_obs.Profile.block list;
      (* hot-block attribution; empty unless [run ~profile:true] *)
}

let stats_of_cache c =
  let s = Cache.stats c in
  { accesses = s.Cache.hits + s.Cache.misses; misses = s.Cache.misses }

let stats_of_tlb t =
  let s = Tlb.stats t in
  { accesses = s.Tlb.hits + s.Tlb.misses; misses = s.Tlb.misses }

(* Total instructions simulated across every [run] in this process (all
   domains) — the numerator of the bench harness's simulated-MIPS figure. *)
let instructions_simulated = Atomic.make 0

let total_instructions_simulated () = Atomic.get instructions_simulated

(* Assemble the metrics snapshot from the counters the components keep.
   Exact by construction — nothing here is sampled from the trace ring. *)
let snapshot_metrics ~machine ~kernel ~mmu =
  let module Ext = Roload_isa.Roload_ext in
  let counts = Machine.counts machine in
  let key_counts = Machine.roload_key_counts machine in
  let typed = ref 0 in
  for k = Ext.first_type_key to Ext.key_return_sites - 1 do
    typed := !typed + key_counts.(k)
  done;
  let ic = Cache.stats (Roload_cache.Hierarchy.icache (Machine.hierarchy machine)) in
  let dc = Cache.stats (Roload_cache.Hierarchy.dcache (Machine.hierarchy machine)) in
  let it = Tlb.stats (Mmu.itlb mmu) in
  let dt = Tlb.stats (Mmu.dtlb mmu) in
  let faults = Mmu.fault_counts mmu in
  let cpu = Machine.cpu machine in
  {
    Roload_obs.Metrics.engine = Machine.engine_name (Machine.engine machine);
    instructions = Int64.of_int (Roload_machine.Cpu.instret cpu);
    cycles = Int64.of_int (Roload_machine.Cpu.cycles cpu);
    loads = counts.Machine.loads;
    stores = counts.Machine.stores;
    roloads = counts.Machine.roloads;
    branches = counts.Machine.branches;
    jumps = counts.Machine.jumps;
    indirect_jumps = counts.Machine.indirect_jumps;
    roload_key0 = key_counts.(Ext.key_default);
    roload_vtable_unified = key_counts.(Ext.key_vtable_unified);
    roload_typed = !typed;
    roload_return_sites = key_counts.(Ext.key_return_sites);
    icache_hits = ic.Cache.hits;
    icache_misses = ic.Cache.misses;
    icache_writebacks = ic.Cache.writebacks;
    dcache_hits = dc.Cache.hits;
    dcache_misses = dc.Cache.misses;
    dcache_writebacks = dc.Cache.writebacks;
    itlb_hits = it.Tlb.hits;
    itlb_misses = it.Tlb.misses;
    dtlb_hits = dt.Tlb.hits;
    dtlb_misses = dt.Tlb.misses;
    page_faults = faults.Mmu.page_faults;
    roload_faults_key = faults.Mmu.roload_key_mismatch;
    roload_faults_ro = faults.Mmu.roload_not_readonly;
    syscalls = Kernel.syscall_count kernel;
    injections = Machine.injections machine;
    dropped_writebacks = dc.Cache.dropped_writebacks + ic.Cache.dropped_writebacks;
    block_enters = Machine.block_enters machine;
    block_hits = Machine.block_hits machine;
    block_decodes = Machine.block_decodes machine;
    trace_enters = Machine.trace_enters machine;
    trace_retires = Machine.trace_retires machine;
    traces_compiled = Machine.traces_compiled machine;
  }

(* The measurement of a finished run: the root process's status, output
   and memory, the console of every task, the machine-global counters,
   and the root's TLBs.  Also adds the run's instructions to
   [instructions_simulated]. *)
let measure ~machine ~kernel ~process exe (outcome : Kernel.run_outcome) =
  let h = Machine.hierarchy machine in
  let mmu = Process.mmu process in
  let image_bytes =
    List.fold_left
      (fun acc (s : Roload_obj.Exe.segment) -> acc + s.Roload_obj.Exe.mem_size)
      0 exe.Roload_obj.Exe.segments
  in
  let footprint_bytes =
    image_bytes + Process.heap_bytes process
    + (Process.stack_pages * Roload_mem.Page_table.page_size)
  in
  ignore
    (Atomic.fetch_and_add instructions_simulated
       (Int64.to_int outcome.Kernel.instructions));
  {
    status = outcome.Kernel.status;
    cycles = outcome.Kernel.cycles;
    instructions = outcome.Kernel.instructions;
    peak_kib = outcome.Kernel.peak_kib;
    footprint_bytes;
    output = outcome.Kernel.output;
    console = Kernel.console kernel;
    icache = stats_of_cache (Roload_cache.Hierarchy.icache h);
    dcache = stats_of_cache (Roload_cache.Hierarchy.dcache h);
    itlb = stats_of_tlb (Mmu.itlb mmu);
    dtlb = stats_of_tlb (Mmu.dtlb mmu);
    roloads_executed = (Machine.counts machine).Machine.roloads;
    metrics = snapshot_metrics ~machine ~kernel ~mmu;
    profile = Machine.profile_blocks machine;
  }

let run ?(max_instructions = 500_000_000L) ?tracer ?(profile = false) ?engine
    ?template ~variant exe =
  (* [template] is a boot image to fork instead of creating the machine:
     forking a pristine one is bit-identical to [Machine.create] (the
     campaign-equivalence suite pins this).  The image carries its own
     engine and hot-threshold; [engine] is ignored when a template is
     supplied. *)
  let machine =
    match template with
    | Some img -> Machine.fork img
    | None -> Machine.create ?engine (machine_config variant)
  in
  Machine.set_tracer machine tracer;
  Machine.set_profiling machine profile;
  let kernel = Kernel.create ~machine ~config:(kernel_config variant) in
  let process, outcome =
    Kernel.exec ~limit:{ Kernel.max_instructions } kernel exe
  in
  measure ~machine ~kernel ~process exe outcome

(* ---- the request-serving macro-benchmark ---- *)

type server_stats = {
  served : int;
  latencies : int64 array; (* completed requests, request-id order, cycles *)
  console : string; (* interleaved output of every task *)
  task_statuses : (int * Process.status) list;
  records : Kernel.request_record array; (* per-request delivery ledger *)
  restarts : int; (* supervised worker reincarnations *)
  checksum : int64; (* kernel-side committed-result fold *)
}

(* A server booted and paused before its first instruction: the
   request device loaded with [requests], the supervisor armed, the
   executable spawned as the root task. *)
let boot_server ?tracer ?engine ?shards ?supervision ~variant ~requests exe =
  let machine = Machine.create ?engine (machine_config variant) in
  Machine.set_tracer machine tracer;
  let kernel = Kernel.create ~machine ~config:(kernel_config variant) in
  Kernel.set_requests ?shards kernel requests;
  Option.iter (fun s -> Kernel.set_supervision kernel (Some s)) supervision;
  let process = Kernel.load kernel exe in
  Kernel.spawn_root kernel process;
  (machine, kernel, process)

(* The measurement and serving statistics of a finished server run.
   The measurement's instructions/cycles are machine-global (all
   tasks); status/peak are the root's. *)
let measure_server ~machine ~kernel ~process exe outcome =
  let measurement = measure ~machine ~kernel ~process exe outcome in
  let stats =
    {
      served = Kernel.requests_served kernel;
      latencies = Kernel.request_latencies kernel;
      console = measurement.console;
      task_statuses = Kernel.task_statuses kernel;
      records = Kernel.request_records kernel;
      restarts = Kernel.restarts_total kernel;
      checksum = Kernel.server_checksum kernel;
    }
  in
  (measurement, stats)

(* Like [run], but time-sliced: boot the server, let [configure] arm
   request hooks, run the scheduler until every task exits. *)
let run_server ?(max_instructions = 2_000_000_000L) ?time_slice ?tracer ?engine ?shards
    ?supervision ?configure ~variant ~requests exe =
  let machine, kernel, process =
    boot_server ?tracer ?engine ?shards ?supervision ~variant ~requests exe
  in
  Option.iter (fun f -> f kernel) configure;
  let outcome = Kernel.run_all ~limit:{ Kernel.max_instructions } ?time_slice kernel in
  measure_server ~machine ~kernel ~process exe outcome

let exited_cleanly m =
  match m.status with
  | Process.Exited 0 -> true
  | Process.Exited _ | Process.Killed _ | Process.Running -> false

let status_string m =
  match m.status with
  | Process.Exited n -> Printf.sprintf "exit %d" n
  | Process.Killed sg -> Roload_kernel.Signal.to_string sg
  | Process.Running -> "running (instruction limit hit)"
