(** The per-run metrics snapshot: every simulator counter in one flat
    record with a stable JSON encoding.  Snapshots are exact (assembled
    from component counters, not sampled from the trace ring) and are
    available with tracing off. *)

type t = {
  engine : string;  (** "single" or "traced" *)
  instructions : int64;
  cycles : int64;
  loads : int;
  stores : int;
  roloads : int;  (** ld.ro loads retired, all key classes *)
  branches : int;
  jumps : int;
  indirect_jumps : int;
  roload_key0 : int;
  roload_vtable_unified : int;
  roload_typed : int;  (** per-type GFPT indirections (keys 2..1022) *)
  roload_return_sites : int;
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
  page_faults : int;
  roload_faults_key : int;
  roload_faults_ro : int;
  syscalls : int;
  injections : int;  (** roload-chaos faults applied; zero outside a campaign *)
  dropped_writebacks : int;  (** D-cache writebacks suppressed by roload-chaos *)
  block_enters : int;  (** traced engine only; zero under single-step *)
  block_hits : int;
  block_decodes : int;
  trace_enters : int;  (** traced engine only; zero elsewhere *)
  trace_retires : int;  (** instructions retired inside compiled traces *)
  traces_compiled : int;
}

val zero : t

val roload_faults : t -> int
(** Total ROLoad faults (key mismatch + non-read-only pointee). *)

val dtlb_miss_pct : t -> float
val itlb_miss_pct : t -> float
val dcache_miss_pct : t -> float
val icache_miss_pct : t -> float

val core_diff : t -> t -> (string * string * string) option
(** The first architectural field on which two snapshots differ, as
    [(name, a's value, b's value)] in {!to_json}'s spelling; [None] when
    they agree.  It ignores [engine] and the [block_*]/[trace_*] fields,
    so the traced and single-step engines can be compared. *)

val core_equal : t -> t -> bool
(** [core_diff a b = None]. *)

val to_json : t -> string

type labeled = { workload : string; scheme : string; m : t }

val log_to_json : labeled list -> string
(** Stable per-cell encoding for --metrics output; CI scans its "cycles"
    values against a committed baseline. *)
