(** A user-mode process: address space, memory accounting, status and
    console output. *)

type status = Running | Exited of int | Killed of Signal.t

type t

val page : int
val stack_top : int
val stack_pages : int
val mmap_base : int

val stack_guard_pages : int

val mmap_limit : int
(** First address the mmap region may never reach: the guard band of
    {!stack_guard_pages} below the stack. *)

val create :
  exe:Roload_obj.Exe.t ->
  page_table:Roload_mem.Page_table.t ->
  mmu:Roload_mem.Mmu.t ->
  phys:Roload_mem.Phys_mem.t ->
  brk:int ->
  t

(** {2 Snapshots} *)

type image

val snapshot : t -> image
(** Capture all mutable process state by value (break, mmap cursor,
    memory accounting, status, console output).  The address space is
    snapshot separately at the memory layer. *)

val fork :
  image ->
  exe:Roload_obj.Exe.t ->
  page_table:Roload_mem.Page_table.t ->
  mmu:Roload_mem.Mmu.t ->
  phys:Roload_mem.Phys_mem.t ->
  t
(** A fresh process in the captured state, wired to an already-forked
    address space. *)

val status : t -> status
val output : t -> string
val append_output : t -> string -> unit

val clear_output : t -> unit
(** Empty the console buffer (the in-kernel fork path: a child does not
    inherit the parent's already-written output). *)

val exe : t -> Roload_obj.Exe.t
val mmu : t -> Roload_mem.Mmu.t
val page_table : t -> Roload_mem.Page_table.t
val set_status : t -> status -> unit
(** First status transition wins; later ones are ignored. *)

val account_mapped : t -> int -> unit
val peak_pages : t -> int
val peak_kib : t -> int
val brk : t -> int
val set_brk : t -> int -> unit

val init_brk : t -> int -> unit
(** Set the post-load break (also records it as the heap origin). *)

val heap_bytes : t -> int
(** Bytes the heap has grown past the post-load break, [brk - brk_start]. *)

val alloc_mmap_region : t -> int -> int option
(** Reserve address space for N pages; [None] when the region would
    cross {!mmap_limit} (the stack guard).  The cursor only moves on
    success. *)

val retract_mmap_region : t -> addr:int -> npages:int -> unit
(** Roll back the most recent {!alloc_mmap_region} after a
    partial-failure unwind. *)

val mapped_pages : t -> int

val accounting : t -> int * int
(** [(mapped_pages, peak_pages)] — captured before an all-or-nothing
    syscall so a failed one can {!rollback_accounting}. *)

val rollback_accounting : t -> mapped:int -> peak:int -> unit

val translate : t -> int -> int
(** Kernel-privileged translation (raises [Not_found] when unmapped). *)

val read_bytes : t -> va:int -> len:int -> string
val read_u64 : t -> va:int -> int64
val kernel_write_bytes : t -> va:int -> string -> unit

exception Attack_blocked of string

val page_writable : t -> int -> bool

val attacker_write : t -> va:int -> string -> unit
(** The attacker's primitive under the paper's threat model: arbitrary
    writes restricted to actually-writable pages.  Raises
    {!Attack_blocked} otherwise. *)

val attacker_write_u64 : t -> va:int -> int64 -> unit
