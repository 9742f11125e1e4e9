(** Fully-associative TLB with true-LRU replacement.  Entries cache whole
    leaf PTEs, including the ROLoad key field. *)

type t

type stats = { mutable hits : int; mutable misses : int; mutable flushes : int }

val create : name:string -> entries:int -> t
val name : t -> string
val size : t -> int
val stats : t -> stats

val set_observer : t -> (vpn:int -> hit:bool -> unit) option -> unit
(** Optional tracing tap, fired once per accounted lookup (including
    handle rehits).  Observers must not touch TLB state; with no observer
    the hot-path cost is a single option check. *)

val lookup : t -> int -> Pte.t option
(** [lookup t vpn] returns the cached leaf PTE and updates LRU/stats. *)

type handle
(** Names a TLB entry, for the same-page fast paths. *)

val no_handle : handle
(** The absent entry: never valid, so {!rehit} always refuses it.
    Compare with [==]. *)

val pte : handle -> Pte.t
(** The leaf PTE the entry holds now. *)

val lookup_entry : t -> int -> handle
(** Exactly {!lookup}, returning the hit entry, or {!no_handle} on a
    miss.  Never allocates. *)

val peek : t -> vpn:int -> handle
(** The entry caching [vpn] ({!no_handle} if none), with no accounting
    whatsoever (no clock tick, no recency update, no stats). *)

val rehit : t -> vpn:int -> handle -> bool
(** Replay a hit on [handle] with the exact accounting [lookup] performs
    (clock tick, recency, hit counter) — provided the entry still caches
    [vpn].  Returns [false] with {i no} accounting otherwise; the caller
    must then fall back to [lookup], keeping observable TLB state
    identical to a plain [lookup] sequence. *)

val rehit_many : t -> vpn:int -> handle -> n:int -> bool
(** [n] consecutive {!rehit}s on the same entry, batched into O(1) state
    updates (clock advanced by [n], recency at the final clock value,
    [n] hits counted) — the trace engine's per-segment I-TLB accounting.
    Returns [false] with {i no} accounting when the entry no longer
    caches [vpn]; [true] without accounting when [n <= 0]. *)

val insert : t -> vpn:int -> pte:Pte.t -> handle
(** Fill the first invalid entry, else evict the least recently used
    one; returns the entry written.  Callers insert only on a miss. *)

val corrupt : t -> vpn:int -> f:(Pte.t -> Pte.t) -> bool
(** Fault-injection backdoor (roload-chaos): mutate the cached PTE of the
    entry holding [vpn] in place, with no accounting — a soft error
    striking a resident TLB entry.  [false] when [vpn] is not cached. *)

val invalidate : t -> vpn:int -> unit
val flush : t -> unit
val reset_stats : t -> unit
val occupancy : t -> int

type image
(** Deep copy of entries + LRU clock + statistics; immutable once taken. *)

val snapshot : t -> image

val restore : t -> image -> unit
(** Overwrite [t]'s entries/clock/stats with the image, in place (entry
    identity is preserved, so outstanding handles safely revalidate or
    fall back through {!rehit}'s guard).  The observer is untouched. *)
