(** Architectural CPU state: integer register file, program counter, and
    retirement/cycle counters. Register x0 reads as zero and ignores
    writes. *)

type t

val create : unit -> t
val get : t -> Roload_isa.Reg.t -> int64
val set : t -> Roload_isa.Reg.t -> int64 -> unit

val regs : t -> Bytes.t
(** The live register file, [regs_bytes] long: register [i] is stored
    little-endian at byte [8 * i].  The trace-compiled engine reads and
    writes it with the stdlib [Bytes] int64 primitives, which never box.
    Bytes 0..7 are x0 and must stay zero: readers may load them freely,
    writers must skip register 0.  The identity never changes. *)

val regs_bytes : int
(** Size of a register file in bytes (32 registers × 8). *)

val save_regs : t -> Bytes.t -> unit
(** Copy the live register file into a saved one (a task's context). *)

val load_regs : t -> Bytes.t -> unit
(** Copy a saved register file into the live one, in place. *)

val set_saved : Bytes.t -> Roload_isa.Reg.t -> int64 -> unit
(** Write one register of a saved register file; x0 writes are
    ignored. *)

val pc : t -> int
val set_pc : t -> int -> unit
val instret : t -> int
val cycles : t -> int
val add_cycles : t -> int -> unit
val retire : t -> unit

val retire_n : t -> int -> unit
(** Retire [n] instructions at once — the trace engine's batched
    accounting; equivalent to [n] calls to {!retire}. *)

val reset : t -> unit
val dump : t -> string

type image

val snapshot : t -> image

val restore : t -> image -> unit
(** Blits into the existing register file (identity preserved — the
    machine's run-time record names it) and resets pc/instret/cycles to
    the image. *)
