(** Sv39 page-table entries extended with the ROLoad page key, stored in
    the reserved top 10 bits (paper §III-A). *)

type t = private int64
(** The raw 64-bit entry.  Private, so the MMU's translation core can
    read the bits directly (no call, no boxing) while every entry is
    still built through this module. *)

val invalid_pte : t

val make : ppn:int -> perms:Perm.t -> user:bool -> key:int -> t
(** A leaf PTE (A set; D mirrors W). Raises [Invalid_argument] if [key]
    exceeds 10 bits. *)

val make_table : ppn:int -> t
(** A non-leaf pointer PTE (V set, R/W/X clear). *)

val valid : t -> bool
val readable : t -> bool
val writable : t -> bool
val executable : t -> bool
val user : t -> bool
val global : t -> bool
val accessed : t -> bool
val dirty : t -> bool
val is_leaf : t -> bool
val ppn : t -> int
val key : t -> int
val perms : t -> Perm.t
val with_perms : t -> Perm.t -> t
val with_key : t -> int -> t

val flip_key_bit : t -> bit:int -> t
(** Fault-injection backdoor (roload-chaos): the PTE with bit [bit] of
    its 10-bit key field inverted.  Raises [Invalid_argument] when [bit]
    is outside the key field. *)

val to_int64 : t -> int64
val of_int64 : int64 -> t
val to_string : t -> string

(** Field layout, for code that reads a [t]'s bits directly. *)

val r_bit : int
val w_bit : int
val x_bit : int
val u_bit : int
val ppn_lo : int
val ppn_width : int
val key_width : int
val key_lo : int
