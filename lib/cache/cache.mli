(** Set-associative write-back cache timing model (tags only), true-LRU
    replacement within each set. *)

type config = { size_bytes : int; ways : int; line_bytes : int }

val kib : int -> int

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
  mutable dropped_writebacks : int;
      (** writebacks suppressed by the fault-injection interceptor *)
}

type t

val create : config -> t
(** Raises [Invalid_argument] on non-power-of-two geometry. *)

val stats : t -> stats

val set_observer :
  t -> (addr:int -> write:bool -> hit:bool -> writeback:bool -> unit) option -> unit
(** Optional tracing tap, fired once per access (including handle rehits)
    with the access outcome.  Observers must not touch cache state; with
    no observer the hot-path cost is a single option check. *)

val set_writeback_interceptor : t -> (addr:int -> bool) option -> unit
(** Fault-injection backdoor (roload-chaos): consulted once per would-be
    writeback with the evicted line's base address; returning [true]
    silently discards the dirty line (no writeback, no penalty) and
    counts it in [dropped_writebacks].  With [None] (the default) the
    cache is bit-identical to one without the hook. *)

type outcome = Hit | Miss of { writeback : bool }

val access : t -> addr:int -> write:bool -> outcome
(** One access.  Never allocates (the outcomes are shared constants). *)

type handle
(** A reusable cell naming the line (by index) that serviced an access and
    the tag it then held, for the fetch fast paths. *)

val handle : unit -> handle
(** A fresh handle naming no line ({!rehit} refuses it). *)

val access_into : t -> addr:int -> write:bool -> handle -> outcome
(** Exactly [access], additionally pointing the handle at the line that
    now holds the address. *)

val rehit : t -> handle -> bool
(** Replay a read hit on the handled line with the exact accounting [access]
    performs (clock tick, recency, hit counter) — provided the line is still
    valid with the same tag.  Returns [false] with {i no} accounting otherwise;
    the caller must then fall back to [access]. *)

val rehit_many : t -> handle -> n:int -> bool
(** [n] consecutive {!rehit}s on the handled line, batched into O(1)
    state updates — the trace engine's per-chunk fetch accounting.
    Returns [false] with {i no} accounting when the line no longer holds
    the tag; [true] without accounting when [n <= 0]. *)

val flush : t -> unit
val reset_stats : t -> unit

type image
(** Copies of the tag store, clock and statistics; immutable once taken. *)

val snapshot : t -> image

val of_image : image -> t
(** A fresh cache holding the image's tag store, clock and statistics,
    with no observer or writeback interceptor.  Handles taken on another
    cache revalidate by index and tag through {!rehit}'s guard or fall
    back. *)
