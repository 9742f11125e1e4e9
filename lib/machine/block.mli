(** Pre-decoded basic blocks: the execution engine's block-cache
    representation, also reused by the static disassembly walk of the
    analysis layer.  A block is a straight-line run of decoded
    instructions within one page, closed at the first control-flow
    instruction (or ecall/ebreak) or at the page boundary. *)

type slot = {
  s_inst : Roload_isa.Inst.t;
  s_size : int;  (** 2 or 4 bytes *)
  s_pa : int;  (** physical address of the first halfword *)
}

type t

val create : start_pa:int -> t
val start_pa : t -> int
val length : t -> int

val slot : t -> int -> slot
(** Unchecked slot access; the index must be below [length]. *)

val closed : t -> bool
(** No further slots can be appended: the last slot is a terminator, or
    the next instruction would start on another page. *)

val close : t -> unit
val append : t -> slot -> unit

val copy : t -> t
(** Deep copy (fresh slot array, bookkeeping included) — used by machine
    snapshots so a forked block cache can mutate independently. *)

(** {2 Trace-engine bookkeeping}

    Recorded by the traced dispatch loop, consumed by the superblock
    stitcher.  Pure selection heuristics: they steer which traces get
    compiled, never what executing one computes. *)

val hot : t -> int
(** Dispatch-loop entries into this block. *)

val note_enter : t -> unit

val note_successor : t -> int -> unit
(** Record the VA execution continued at after running this block. *)

val successor : t -> (int * int) option
(** The last recorded successor VA and how many consecutive runs
    continued there ([None] before the first record). *)

val no_trace : t -> bool
(** Stitching a trace from this block failed; don't retry until the
    caches are flushed. *)

val set_no_trace : t -> unit

val is_terminator : Roload_isa.Inst.t -> bool
(** Instructions after which execution does not fall through to
    [pc + size] (control flow, ecall, ebreak). *)

val predecode : ?base:int -> string -> t list
(** Static linear sweep of a raw code string into closed blocks;
    undecodable parcels close the current block and are skipped a
    halfword at a time.  [base] offsets the recorded addresses. *)

val iter_insts : t list -> f:(pa:int -> Roload_isa.Inst.t -> size:int -> unit) -> unit
(** Iterate every decoded instruction of [blocks] in address order. *)
