(** The prototype's memory hierarchy (Table II): 32 KiB 8-way L1I/L1D
    backed by DRAM, exposed as cycle costs per physical access. *)

type latencies = { l1_hit : int; miss_penalty : int; writeback_penalty : int }

val default_latencies : latencies

type t

val default_l1_config : Cache.config

val create :
  ?icache_config:Cache.config ->
  ?dcache_config:Cache.config ->
  ?latencies:latencies ->
  unit ->
  t

val icache : t -> Cache.t
val dcache : t -> Cache.t

val access_ifetch : t -> pa:int -> int
(** Cycle cost of fetching at physical address [pa] (0 on a hit). *)

val ifetch_into : t -> pa:int -> Cache.handle -> int
(** [access_ifetch] additionally pointing the handle at the I-cache line
    now holding [pa], for the same-line fetch fast path. *)

val rehit_ifetch : t -> Cache.handle -> bool
(** Replay a same-line fetch hit with exact accounting ([true], hit cost is
    always 0 cycles), or report [false] with no accounting — the caller then
    falls back to [access_ifetch]. *)

val rehit_ifetch_many : t -> Cache.handle -> n:int -> bool
(** [n] same-line fetch rehits batched into O(1) accounting (each costs 0
    cycles); [false] with no accounting when the line was evicted. *)

val access_data : t -> pa:int -> write:bool -> int

type image

val snapshot : t -> image

val of_image : latencies:latencies -> image -> t
(** A fresh hierarchy holding the image's tag stores, clocks and
    statistics. *)
