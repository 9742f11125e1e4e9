(* The prototype's memory hierarchy (paper Table II): 32 KiB 8-way L1I$ and
   L1D$ backed by DRAM.  Exposes cycle costs per access; the executor's
   timing model adds them to the instruction base cost. *)

type latencies = {
  l1_hit : int; (* extra cycles for a D-side L1 hit (load-use) *)
  miss_penalty : int; (* cycles to fill a line from DRAM *)
  writeback_penalty : int; (* extra cycles when the victim is dirty *)
}

let default_latencies = { l1_hit = 1; miss_penalty = 30; writeback_penalty = 10 }

type t = {
  icache : Cache.t;
  dcache : Cache.t;
  lat : latencies;
}

let default_l1_config = { Cache.size_bytes = Cache.kib 32; ways = 8; line_bytes = 64 }

let create ?(icache_config = default_l1_config) ?(dcache_config = default_l1_config)
    ?(latencies = default_latencies) () =
  {
    icache = Cache.create icache_config;
    dcache = Cache.create dcache_config;
    lat = latencies;
  }

let icache t = t.icache
let dcache t = t.dcache

let cost_of t outcome ~hit_cost =
  match outcome with
  | Cache.Hit -> hit_cost
  | Cache.Miss { writeback } ->
    hit_cost + t.lat.miss_penalty + if writeback then t.lat.writeback_penalty else 0

(* Instruction fetch: hits are pipelined (no extra cost). *)
let access_ifetch t ~pa = cost_of t (Cache.access t.icache ~addr:pa ~write:false) ~hit_cost:0

(* Fetch fast path: [ifetch_into] additionally points [h] at the I-cache
   line now holding [pa]; [rehit_ifetch] replays a same-line hit (0
   cycles, exact hit accounting) or reports [false] with no accounting. *)
let ifetch_into t ~pa h =
  cost_of t (Cache.access_into t.icache ~addr:pa ~write:false h) ~hit_cost:0

let rehit_ifetch t h = Cache.rehit t.icache h
let rehit_ifetch_many t h ~n = Cache.rehit_many t.icache h ~n

(* Data access: L1 hits cost the load-use latency. *)
let access_data t ~pa ~write =
  cost_of t (Cache.access t.dcache ~addr:pa ~write) ~hit_cost:t.lat.l1_hit

type image = { i_icache : Cache.image; i_dcache : Cache.image }

let snapshot t = { i_icache = Cache.snapshot t.icache; i_dcache = Cache.snapshot t.dcache }

let of_image ~latencies img =
  {
    icache = Cache.of_image img.i_icache;
    dcache = Cache.of_image img.i_dcache;
    lat = latencies;
  }
