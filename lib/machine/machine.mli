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
          Cold blocks, blocks no trace covers, and every run with a
          tracer, an instruction hook or a [stop_at_pc] execute slot by
          slot.  With the hot threshold at [max_int] nothing compiles —
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
    before a block seeds a trace (initially 64). *)

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

val cached_traces : t -> int
(** Number of compiled traces currently cached (introspection). *)

val flush_code_caches : t -> unit
(** Drop every pre-decoded block, compiled trace and decode memo.  Both
    engines share the decode memo, so a flush affects their cycle
    accounting identically (decode-time fetches are re-charged on next
    execution).  Called automatically on [set_mmu] and on stores into
    pages holding decoded instructions. *)

val set_mmu : t -> Roload_mem.Mmu.t option -> unit
(** Install the scheduled process's address space (clears the decode
    cache). *)

val set_trace : t -> (pc:int -> Roload_isa.Inst.t -> unit) option -> unit
(** Install an instruction-retirement hook (debugging/tracing). *)

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
  | Stop_pc  (** the pc reached [stop_at_pc], checked before executing *)
  | Trap of Trap.t

val run_steps : ?stop_at_pc:int -> fuel:int -> t -> run_stop
(** Run on the configured engine until a trap, until [fuel] instructions
    have retired, or until the pc is about to execute [stop_at_pc].
    Cycle accounting is identical across engines. *)

(** {2 Snapshots}

    An {!image} is an immutable capture of a paused machine: registers,
    physical memory (copy-on-write page images — O(touched pages)),
    cache/TLB contents and statistics, MMU fault counters, the
    decode/block caches, compiled traces and every metrics-visible
    counter.  One image can seed any number of restores and forks. *)

type image

val snapshot : t -> image
(** Capture the machine.  Cheap: page table pointers are shared
    copy-on-write with the live machine, only bookkeeping is copied. *)

val restore : t -> image -> unit
(** Put this machine back into the captured state, in place.  Object
    identities (cpu, memory, hierarchy, MMU) are preserved, so compiled
    traces — whose closures captured those identities — are restored
    too.  Replay after restore is byte-identical to the original run:
    architectural state, cycles, and every statistic. *)

val fork : image -> t
(** A fresh, fully independent machine in the captured state.  Physical
    pages are shared copy-on-write with the image; mutating a fork never
    perturbs the image, the parent, or sibling forks.  The fork has no
    MMU yet ({!attach_mmu}) and starts with an empty trace table — the
    image's compiled closures are bound to the parent's state — so
    trace-engine observability counters may diverge from a restored
    parent while all architectural state, cycles and cache/TLB
    statistics stay exact. *)

val attach_mmu : t -> Roload_mem.Mmu.t -> unit
(** Install a forked address space {e without} the cache flush
    {!set_mmu} performs: the fork's decode/block caches were copied from
    the image and remain exact for the forked memory contents. *)

val asid : t -> int
(** The ASID owning the active compiled-trace table (0 until the first
    {!switch_context}); forks start under ASID 0. *)

val switch_context : t -> asid:int -> mmu:Roload_mem.Mmu.t -> unit
(** Context switch between coresident address spaces (the multi-process
    kernel's scheduler).  Keeps the PA-keyed decode/block caches — exact
    for frames shared read-only between processes — but swaps the active
    compiled-trace table to the one owned by [asid]: trace closures
    capture the MMU they were compiled under, so traces are per-address-
    space even though their entry keys are physical addresses.  ASIDs
    must not be reused for a different address space within a machine's
    lifetime (the kernel uses monotonic pids). *)

val mem_image : image -> Roload_mem.Phys_mem.image
(** The captured physical memory, for {!Roload_mem.Phys_mem.diff_images}
    — the page-level differential-state comparator. *)

val mmu_image : image -> Roload_mem.Mmu.image option
(** The captured MMU state (TLBs, fault counters), used by the fork path
    to seed a fresh MMU over the forked page table. *)

val image_config : image -> Config.t
(** The machine configuration the image was captured under. *)
