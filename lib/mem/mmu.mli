(** The MMU front-end: TLBs, page-table walks, and the access check with
    the ROLoad extension — the read-only + key condition evaluated in
    parallel with (and ANDed into) the conventional permission check
    (paper §II-E1, §III-A). *)

type fault =
  | Page_fault of { va : int; access : Perm.access }
      (** Conventional fault: unmapped page or permission violation. *)
  | Roload_fault of { va : int; key_requested : int; page_key : int; page_perms : Perm.t }
      (** The page is mapped and loadable but fails the ROLoad read-only or
          key condition — the new fault class the kernel turns into
          SIGSEGV. *)

val fault_to_string : fault -> string

type translation = { pa : int; tlb_hit : bool; walk_steps : int }

type t

val create :
  page_table:Page_table.t ->
  itlb_entries:int ->
  dtlb_entries:int ->
  roload_check_enabled:bool ->
  t

val itlb : t -> Tlb.t
val dtlb : t -> Tlb.t
val page_table : t -> Page_table.t

type fault_counts = {
  mutable page_faults : int;
  mutable roload_key_mismatch : int;  (** read-only page, wrong key *)
  mutable roload_not_readonly : int;  (** pointee page writable/executable *)
}

val fault_counts : t -> fault_counts
(** Cumulative triage counts; every fault [translate] returns is counted
    exactly once. *)

val translate_pa : t -> access:Perm.access -> int -> int
(** The translation core.  Translate a user-mode virtual address and
    return the physical address, or [-1] on a fault, which is then
    counted in {!fault_counts} and readable through {!last_fault}.
    {!walk_steps} holds the PTE fetches this call paid (0 on a TLB hit).
    Fetches consult the I-TLB, data accesses the D-TLB; on a miss the
    Sv39 walk runs and the result is cached.  Allocates nothing unless it
    walks or faults. *)

val walk_steps : t -> int
(** PTE fetches performed by the last {!translate_pa} (0 on a TLB hit). *)

val last_fault : t -> fault
(** The fault of the last {!translate_pa} that returned [-1]. *)

val translate : t -> access:Perm.access -> int -> (translation, fault) result
(** {!translate_pa} as a result value, for callers off the hot path. *)

val fetch_handle : t -> int -> Tlb.handle
(** The I-TLB entry that served the last fetch translation of [va]'s
    page — valid right after a successful [translate_pa ~access:Fetch va],
    for the trace engine's batched same-page I-TLB accounting. *)

val invalidate : t -> va:int -> unit
(** Drop cached translations of [va]'s page from both TLBs. *)

val flush : t -> unit

type image
(** Both TLB images plus the fault triage counters. *)

val snapshot : t -> image

val restore : t -> image -> unit
(** Restore TLBs and fault counters in place.  The internal same-page
    memos are not captured — they are accounting-neutral, so no counter
    ever observes them. *)
