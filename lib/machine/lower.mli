(** Trace lowering: compile a {!Trace.plan} into one OCaml closure —
    threaded code with per-slot work specialized at compile time and
    cycle/retire accounting batched per chunk, flushed exactly at every
    exit.  The contract is bit-identity with the per-instruction
    reference engine: cycles, instret, cache/TLB statistics, fault
    counts and memory state all match.

    Traces must only run with no obs tracer attached; the dispatch loop
    enforces this. *)

(** Dynamic instruction-mix counters, shared with the machine (the
    machine re-exports this type). *)
type exec_counts = {
  mutable loads : int;
  mutable stores : int;
  mutable roloads : int;
  mutable branches : int;
  mutable jumps : int;
  mutable indirect_jumps : int;
}

(** Why the trace handed control back.  Scratch counters are always
    flushed and [Cpu.pc] always set before any of these is returned. *)
type texit =
  | T_redispatch  (** continue at [Cpu.pc] through the dispatch loop *)
  | T_trap of Trap.t
  | T_enter_block of { eb_pc : int; eb_pa : int }
      (** a translation already accounted its I-TLB access but did not
          end in a trace entry (unplanned physical page at a seam, or a
          chained exit whose target has no usable trace); the dispatcher
          must run the block at [eb_pa] without re-translating *)
  | T_code_written
      (** a store hit a page holding decoded code: the dispatcher must
          flush every code cache (this trace included), then continue at
          [Cpu.pc] *)

(** The config-fixed values a trace bakes in when it is compiled. *)
type statics = {
  line_shift : int;  (** log2 of the I-cache line size *)
  c_base : int;
  c_mispredict : int;
  c_jalr_indirect : int;
  c_mul : int;
  c_div : int;
  c_ptw : int;
}

type compiled = {
  c_entry_va : int;
  c_entry_pa : int;
  c_max_retire : int;  (** slots retired by one front-to-back pass *)
  c_n_segs : int;
  c_n_slots : int;
  c_run : env -> fuel:int -> Roload_mem.Tlb.handle -> texit;
      (** runs on the machine [env] names; [h] is the I-TLB handle of the
          entry page, captured after the dispatcher's entry translation;
          [fuel] must be at least [c_max_retire] *)
}

(** One machine's run-time record, passed to every lowered closure.  The
    machine builds it once, when it is created or forked, and points
    [mmu]/[itlb] at each address space it installs.  The [k_*] fields
    are the trace scratch; they hold no state between trace runs. *)
and env = {
  cpu : Cpu.t;
  regs : Bytes.t;  (** [Cpu.regs cpu]; bytes 0..7 are x0 and stay 0 *)
  mem : Roload_mem.Phys_mem.t;
  hier : Roload_cache.Hierarchy.t;
  mutable mmu : Roload_mem.Mmu.t;
  mutable itlb : Roload_mem.Tlb.t;  (** [Mmu.itlb mmu] *)
  counts : exec_counts;
  key_counts : int array;
  code_pages : Bytes.t;  (** see {!page_holds_code} *)
  traces : (int, compiled) Hashtbl.t;
      (** the machine's one trace table, keyed by entry PA, for
          trace-to-trace chaining at dynamic exits *)
  mutable k_cycles : int;
  mutable k_retired : int;
  mutable k_fuel : int;
  k_line : Roload_cache.Cache.handle;
}

val register_code_page : Bytes.t -> int -> unit
(** Mark the page holding [pa] in a code-page bitmap (one bit per PPN):
    it holds bytes of a memoized decoded instruction. *)

val page_holds_code : Bytes.t -> int -> bool
(** Whether {!register_code_page} marked the page holding [pa]. *)

val compilable : roload_enabled:bool -> Block.t -> bool
(** Every slot of the block can be lowered: no ecall/ebreak, and no
    ld.ro on a baseline (non-ROLoad) machine. *)

val compile : statics -> Trace.plan -> compiled
(** Lower a plan.  The result captures no machine: it runs on whichever
    [env] it is handed, under that machine's current address space (the
    exactness argument is in the [lower.ml] header). *)
