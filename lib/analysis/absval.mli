(** Abstract value-set domain for roload-prove, and the static
    verifier's only one (lint layer 2 reads {!Prove}'s values; see the
    precision ladder in [prove.mli]).  Named pointees are kept across
    loads through abstract memory and across call boundaries via
    function summaries, and the domain distinguishes

    - non-pointer numbers ([Num]) from pointers, and
    - the implicit zero of a not-yet-written writable cell
      ([Zero_init]) from numbers the program computed,

    which is what lets the elision pass decide between an unguarded and
    a zero-guarded hoisted check. *)

type elem =
  | Glob of string  (** address of (or into) the named global *)
  | Frame  (** address into some stack frame (collapsed) *)
  | Fun of string  (** code address of the named function *)
  | Heap  (** address into the heap (collapsed) *)
  | Num  (** non-pointer number written by program code *)
  | Zero_init  (** the zero a writable cell holds before its first store *)

type t =
  | Any  (** top: any value at all *)
  | Set of elem list  (** sorted, deduplicated; clamped to [max_elems] *)

val max_elems : int
val bottom : t
val any : t
val of_elem : elem -> t
val of_list : elem list -> t
val join : t -> t -> t
val equal : t -> t -> bool
val is_bottom : t -> bool

val elems : t -> elem list option
(** [None] for [Any]. *)

val mem : elem -> t -> bool
(** [Any] contains every element. *)

val is_pointer : elem -> bool
(** [Glob]/[Frame]/[Fun]/[Heap]; false for [Num]/[Zero_init]. *)

val pointers : t -> elem list option
(** The pointer-shaped elements; [None] for [Any]. *)

val has_numeric : t -> bool
(** Whether the value may be a non-pointer number (incl. [Any]). *)

val arith : t -> t -> t
(** Abstract add/sub: a numeric offset does not pollute the pointee set
    ([base + i*8] still points into [base]); a [Num] mixed into the
    pointer side keeps the marker so consumers stay conservative, while
    a [Zero_init] there contributes nothing (zero plus an offset is a
    near-null address whose access faults — the null page is unmapped). *)

val elem_to_string : elem -> string
val to_string : t -> string
