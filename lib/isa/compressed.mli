(** RVC (16-bit) encodings for the compressible subset, including the
    paper's [c.ld.ro] (reserved funct3=100 slot of quadrant 0, 5-bit key).

    Only layout-independent instructions are compressed (no [c.j] /
    [c.beqz] / [c.bnez]), so the assembler can compress in one pass before
    the linker assigns addresses. *)

val decode : int -> (Inst.t, string) result
(** Decode a 16-bit parcel to its expanded 32-bit-equivalent instruction.
    The all-zero parcel is illegal, per the RISC-V spec. *)

val try_compress : Inst.t -> int option
(** [try_compress inst] is the 16-bit encoding when one exists in the
    supported subset, and [None] otherwise.  Guarantee:
    [decode (try_compress i) = Ok i'] where [i'] has identical semantics
    (it may normalize, e.g. [c.mv] expands to [addi]). *)
