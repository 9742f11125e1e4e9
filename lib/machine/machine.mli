(** The machine top: fetch/decode/execute with a deterministic cycle
    model.  A [ld.ro] costs exactly as much as the equivalent [ld] — the
    read-only + key check runs in parallel inside the MMU, which is the
    paper's central performance claim. *)

type costs = {
  base : int;
  branch_mispredict : int;
  jalr_indirect : int;
  mul : int;
  div : int;
  ptw_step : int;
}

val default_costs : costs

type exec_counts = Lower.exec_counts = {
  mutable loads : int;
  mutable stores : int;
  mutable roloads : int;
  mutable branches : int;
  mutable jumps : int;
  mutable indirect_jumps : int;
}

type t

type engine =
  | Single_step  (** the per-instruction reference interpreter *)
  | Traced
      (** the fast engine (default): a dispatch loop over pre-decoded
          basic blocks, whose hot superblocks are compiled to closures.
          Cold blocks, blocks no trace covers, every dispatch with less
          fuel than its trace could retire, and every run with a tracer
          execute slot by slot.  With the hot threshold at [max_int] nothing compiles —
          the "no trace compilation" ablation. *)

val engine_name : engine -> string
(** Canonical short name: ["single"] or ["traced"]. *)

val engine_of_string : string -> (engine, string) result
(** Parse an engine name ([single]/[single-step]/[step],
    [traced]/[trace], case-insensitive); the error message lists the
    valid names. *)

(** {2 Engine and threshold precedence}

    A machine's engine is, first to last: the [?engine] argument of
    {!create}; the engine given to {!set_default_engine} (a front-end's
    explicit [--engine] flag); the [ROLOAD_ENGINE] environment variable;
    {!Traced}.  Its trace hotness threshold is [ROLOAD_TRACE_HOT] when
    set, else the process default ({!set_default_hot_threshold}).  A
    malformed [ROLOAD_ENGINE] or [ROLOAD_TRACE_HOT] raises [Failure]
    naming the variable; it is never silently replaced by a default. *)

val set_default_engine : engine -> unit
(** Set the engine for every later {!create} without [?engine]. *)

val effective_engine : unit -> engine
(** The engine a [create] with no [?engine] argument picks right now.
    Harness front-ends use this to label output and to validate
    [ROLOAD_ENGINE] up front. *)

val default_hot_threshold : unit -> int
(** The process-default trace hotness threshold: dispatch-loop entries
    before a block seeds a trace.  Initially
    [Trace.stability_threshold + 1]: the first entry at which the
    block's own dynamic edge can have been seen stable often enough to
    be stitched (successors are noted one dispatch late), so an earlier
    trace stops at the entry block's branch and a later one only leaves
    slots on the per-slot tier longer. *)

val set_default_hot_threshold : int -> unit
(** Override the default hotness threshold (clamped to [>= 1]) for
    machines created afterwards.  The threshold only changes {e when}
    traces compile, never any architectural counter — all settings are
    cycle-identical. *)

val effective_hot_threshold : unit -> int
(** The threshold a machine created now gets.  Front-ends call it to
    validate [ROLOAD_TRACE_HOT] up front. *)

type step_result = Continue | Trapped of Trap.t

val create : ?costs:costs -> ?engine:engine -> Config.t -> t
(** Without [engine], picks {!effective_engine}.  Both engines are
    cycle-exact to each other. *)

val cpu : t -> Cpu.t
val mem : t -> Roload_mem.Phys_mem.t
val config : t -> Config.t
val hierarchy : t -> Roload_cache.Hierarchy.t
val counts : t -> exec_counts
val engine : t -> engine

val cached_blocks : t -> int
(** Number of pre-decoded blocks currently cached (introspection). *)

val cached_decodes : t -> int
(** Number of per-pa memoized decodes currently cached (introspection). *)

val flush_code_caches : t -> unit
(** Drop every pre-decoded block, compiled trace and decode memo.  Both
    engines share the decode memo, so a flush affects their cycle
    accounting identically (decode-time fetches are re-charged on next
    execution).  Called automatically on [set_mmu] and on stores into
    pages holding decoded instructions. *)

val attach_mmu : t -> Roload_mem.Mmu.t -> unit
(** Install an address space: a fork's, or the next task's at a
    context switch.  The decode/block caches and the one
    trace table stay — they are keyed by physical address, and a compiled
    trace re-translates through whichever MMU is installed, so they are
    exact for every process of the machine. *)

val set_mmu : t -> Roload_mem.Mmu.t -> unit
(** {!attach_mmu} for a freshly loaded process, then {!flush_code_caches}:
    the loader wrote its code past the stores that flush stale decodes. *)

val set_tracer : t -> Roload_obs.Tracer.t option -> unit
(** Attach the structured event tracer: wires its clock to the cycle
    counter and points the cache/TLB observers at it.  Tracing never
    changes simulated behaviour — cycles, statistics and output are
    bit-identical with the tracer on or off. *)

val tracer : t -> Roload_obs.Tracer.t option
(** The attached tracer, for co-resident emitters (the kernel). *)

val roload_key_counts : t -> int array
(** ld.ro retirements per requested key (indexed 0..max_key); always
    maintained, independent of tracing.  Callers must not mutate. *)

val block_enters : t -> int
(** Traced-engine dispatches that ran a block slot by slot. *)

val block_hits : t -> int
(** Entries that found a pre-decoded block in the cache. *)

val block_decodes : t -> int
(** Slots lazily decoded and appended to blocks. *)

val trace_enters : t -> int
(** Dispatches that entered a compiled trace (traced engine only). *)

val trace_retires : t -> int
(** Instructions retired inside compiled traces — the numerator of the
    trace-coverage metric (its denominator is [Cpu.instret]). *)

val traces_compiled : t -> int
(** Traces stitched and lowered since the last flush-independent reset
    (the counter itself is cumulative and survives code-cache flushes). *)

val injections : t -> int
(** roload-chaos faults applied to this machine's state (0 outside a
    campaign); always counted, independent of tracing. *)

val note_injection : t -> kind:string -> addr:int -> unit
(** Record one applied fault: bump {!injections} and emit an
    [Event.Injected] on the attached tracer (if any).  Called by the
    roload-chaos injector only. *)

val set_profiling : t -> bool -> unit
(** Enable/disable hot-block profiling (traced engine).
    Profiling reads the cycle counters around each block/trace visit and
    never changes simulated behaviour. *)

val profile_blocks : t -> Roload_obs.Profile.block list
(** Per-block profile snapshot (empty when profiling is off), with
    disassembly from the live block cache. *)

val step : t -> step_result
(** Execute one instruction. On [Trapped Ecall] the pc still points at the
    ecall; the kernel advances it after servicing. *)

type run_stop =
  | Exhausted  (** the fuel ran out; the caller re-checks its limits *)
  | Trap of Trap.t

val run_steps : fuel:int -> t -> run_stop
(** Run on the configured engine until a trap or until [fuel]
    instructions have retired.  A caller pauses at a chosen point by
    bounding [fuel]: the run stops on that exact retire under either
    engine, and cycle accounting is identical across engines. *)

(** {2 Snapshots}

    An {!image} is an immutable capture of a paused machine: registers,
    physical memory (copy-on-write page images — O(touched pages)),
    cache contents and statistics, the decode/block caches, compiled
    traces and every metrics-visible counter.  MMUs (TLBs, fault
    counters) belong to processes: the kernel's image captures each
    one.  An image is resumed only by forking it: one image seeds any
    number of forks, whatever the machine it was taken from does next. *)

type image

val snapshot : t -> image
(** Capture the machine.  Cheap: page table pointers are shared
    copy-on-write with the live machine, only bookkeeping is copied. *)

val fork : image -> t
(** A fresh, fully independent machine in the captured state.  Physical
    pages are shared copy-on-write with the image; mutating a fork never
    perturbs the image, the parent, or sibling forks.  The fork has no
    MMU yet ({!attach_mmu}).  It copies the image's trace table, as
    {!snapshot} does: compiled traces capture no machine, so a fork runs
    the parent's hot traces, and its resumed run matches the parent's
    on every counter, trace-engine counters included. *)

val mem_image : image -> Roload_mem.Phys_mem.image
(** The captured physical memory, for {!Roload_mem.Phys_mem.diff_images}
    — the page-level differential-state comparator. *)
