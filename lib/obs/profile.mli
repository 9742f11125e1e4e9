(** Hot-block profiler presentation: ranking and rendering of per-block
    cycle attribution collected by the traced engine. *)

type block = {
  pa : int;
  entries : int;
  cycles : int64;
  instructions : int64;
  disasm : string list;  (** pre-rendered by the machine layer *)
}

val top : ?n:int -> block list -> block list
(** The [n] (default 10) hottest blocks by cycles, ties broken by
    address. *)

val render : ?n:int -> block list -> string
(** The top-N table with each block's disassembly indented beneath its
    row. *)
