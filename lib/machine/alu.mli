(** RV64 integer arithmetic semantics, including the M-extension edge
    cases (division by zero, signed overflow). *)

val sext32 : int64 -> int64
val op : Roload_isa.Inst.alu_op -> int64 -> int64 -> int64
val op_w : Roload_isa.Inst.alu_w_op -> int64 -> int64 -> int64
val mulop : Roload_isa.Inst.mul_op -> int64 -> int64 -> int64
val mulop_w : Roload_isa.Inst.mul_w_op -> int64 -> int64 -> int64
val mulhu : int64 -> int64 -> int64
val mulh : int64 -> int64 -> int64
val mulhsu : int64 -> int64 -> int64
