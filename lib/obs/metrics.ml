(* The per-run metrics snapshot: one flat record aggregating every
   counter the simulator maintains — CPU retire mix, ld.ro key classes,
   cache/TLB statistics, fault triage and syscall counts, block-engine
   activity.

   The snapshot is assembled by [System.run] from counters the components
   already keep (or that this PR adds alongside them); nothing here is
   sampled from the trace ring, so metrics are exact even when the ring
   drops events, and they are available with tracing off.

   [core_equal] deliberately ignores [engine] and the [block_*]/[trace_*]
   fields: the single-step reference engine has no block cache and only
   the traced engine compiles traces, but every architectural counter
   must agree between engines — the qcheck property in test/test_obs.ml
   holds all engines to that. *)

type t = {
  engine : string; (* "single" or "traced" *)
  instructions : int64;
  cycles : int64;
  (* retired instruction mix *)
  loads : int;
  stores : int;
  roloads : int; (* ld.ro loads retired, all key classes *)
  branches : int;
  jumps : int;
  indirect_jumps : int;
  (* ld.ro retirements by key class (see Roload_ext key conventions) *)
  roload_key0 : int; (* requested key 0: ordinary read-only data *)
  roload_vtable_unified : int; (* key 1: the unified vtable key (VCall) *)
  roload_typed : int; (* keys 2..1022: per-type GFPT indirections (ICall) *)
  roload_return_sites : int; (* key 1023: return-site pages (Retcall) *)
  (* memory hierarchy *)
  icache_hits : int;
  icache_misses : int;
  icache_writebacks : int;
  dcache_hits : int;
  dcache_misses : int;
  dcache_writebacks : int;
  itlb_hits : int;
  itlb_misses : int;
  dtlb_hits : int;
  dtlb_misses : int;
  (* fault triage *)
  page_faults : int;
  roload_faults_key : int; (* key mismatch on a read-only page *)
  roload_faults_ro : int; (* pointee page not R∧¬W∧¬X *)
  syscalls : int;
  (* fault injection (roload-chaos); zero outside a campaign *)
  injections : int; (* faults applied to this machine's state *)
  dropped_writebacks : int; (* D-cache writebacks the campaign suppressed *)
  (* the traced engine's block dispatch; zero under the single-step
     reference engine *)
  block_enters : int;
  block_hits : int;
  block_decodes : int;
  (* traced engine only; zero elsewhere *)
  trace_enters : int; (* dispatches into a compiled trace *)
  trace_retires : int; (* instructions retired inside traces *)
  traces_compiled : int;
}

let zero =
  {
    engine = "";
    instructions = 0L;
    cycles = 0L;
    loads = 0;
    stores = 0;
    roloads = 0;
    branches = 0;
    jumps = 0;
    indirect_jumps = 0;
    roload_key0 = 0;
    roload_vtable_unified = 0;
    roload_typed = 0;
    roload_return_sites = 0;
    icache_hits = 0;
    icache_misses = 0;
    icache_writebacks = 0;
    dcache_hits = 0;
    dcache_misses = 0;
    dcache_writebacks = 0;
    itlb_hits = 0;
    itlb_misses = 0;
    dtlb_hits = 0;
    dtlb_misses = 0;
    page_faults = 0;
    roload_faults_key = 0;
    roload_faults_ro = 0;
    syscalls = 0;
    injections = 0;
    dropped_writebacks = 0;
    block_enters = 0;
    block_hits = 0;
    block_decodes = 0;
    trace_enters = 0;
    trace_retires = 0;
    traces_compiled = 0;
  }

let roload_faults m = m.roload_faults_key + m.roload_faults_ro

(* miss rate in percent; 0. when there were no accesses *)
let pct misses hits =
  let total = misses + hits in
  if total = 0 then 0. else 100. *. float_of_int misses /. float_of_int total

let dtlb_miss_pct m = pct m.dtlb_misses m.dtlb_hits
let itlb_miss_pct m = pct m.itlb_misses m.itlb_hits
let dcache_miss_pct m = pct m.dcache_misses m.dcache_hits
let icache_miss_pct m = pct m.icache_misses m.icache_hits

let core_equal a b =
  Int64.equal a.instructions b.instructions
  && Int64.equal a.cycles b.cycles
  && a.loads = b.loads && a.stores = b.stores && a.roloads = b.roloads
  && a.branches = b.branches && a.jumps = b.jumps
  && a.indirect_jumps = b.indirect_jumps
  && a.roload_key0 = b.roload_key0
  && a.roload_vtable_unified = b.roload_vtable_unified
  && a.roload_typed = b.roload_typed
  && a.roload_return_sites = b.roload_return_sites
  && a.icache_hits = b.icache_hits && a.icache_misses = b.icache_misses
  && a.icache_writebacks = b.icache_writebacks
  && a.dcache_hits = b.dcache_hits && a.dcache_misses = b.dcache_misses
  && a.dcache_writebacks = b.dcache_writebacks
  && a.itlb_hits = b.itlb_hits && a.itlb_misses = b.itlb_misses
  && a.dtlb_hits = b.dtlb_hits && a.dtlb_misses = b.dtlb_misses
  && a.page_faults = b.page_faults
  && a.roload_faults_key = b.roload_faults_key
  && a.roload_faults_ro = b.roload_faults_ro
  && a.syscalls = b.syscalls
  && a.injections = b.injections
  && a.dropped_writebacks = b.dropped_writebacks

let fields m =
  let module J = Roload_util.Json in
  [
    ("engine", J.str m.engine);
    ("instructions", J.int64 m.instructions);
    ("cycles", J.int64 m.cycles);
    ("loads", J.int m.loads);
    ("stores", J.int m.stores);
    ("roloads", J.int m.roloads);
    ("branches", J.int m.branches);
    ("jumps", J.int m.jumps);
    ("indirect_jumps", J.int m.indirect_jumps);
    ("roload_key0", J.int m.roload_key0);
    ("roload_vtable_unified", J.int m.roload_vtable_unified);
    ("roload_typed", J.int m.roload_typed);
    ("roload_return_sites", J.int m.roload_return_sites);
    ("icache_hits", J.int m.icache_hits);
    ("icache_misses", J.int m.icache_misses);
    ("icache_writebacks", J.int m.icache_writebacks);
    ("dcache_hits", J.int m.dcache_hits);
    ("dcache_misses", J.int m.dcache_misses);
    ("dcache_writebacks", J.int m.dcache_writebacks);
    ("itlb_hits", J.int m.itlb_hits);
    ("itlb_misses", J.int m.itlb_misses);
    ("dtlb_hits", J.int m.dtlb_hits);
    ("dtlb_misses", J.int m.dtlb_misses);
    ("page_faults", J.int m.page_faults);
    ("roload_faults_key", J.int m.roload_faults_key);
    ("roload_faults_ro", J.int m.roload_faults_ro);
    ("syscalls", J.int m.syscalls);
    ("injections", J.int m.injections);
    ("dropped_writebacks", J.int m.dropped_writebacks);
    ("block_enters", J.int m.block_enters);
    ("block_hits", J.int m.block_hits);
    ("block_decodes", J.int m.block_decodes);
    ("trace_enters", J.int m.trace_enters);
    ("trace_retires", J.int m.trace_retires);
    ("traces_compiled", J.int m.traces_compiled);
  ]

let to_json m = Roload_util.Json.obj (fields m)

(* ---------- the experiments metrics log ---------- *)

type labeled = { workload : string; scheme : string; m : t }

(* Stable encoding: one entry per (workload, scheme) cell, in the order
   the experiment emitted them.  CI's cycle gate scans the "cycles"
   values of this file against a committed baseline. *)
let log_to_json entries =
  let module J = Roload_util.Json in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{ \"metrics\": [\n";
  let n = List.length entries in
  List.iteri
    (fun i e ->
      Buffer.add_string b "  ";
      Buffer.add_string b
        (J.obj
           (("workload", J.str e.workload)
            :: ("scheme", J.str e.scheme)
            :: fields e.m));
      if i < n - 1 then Buffer.add_string b ",";
      Buffer.add_char b '\n')
    entries;
  Buffer.add_string b "] }\n";
  Buffer.contents b
