(* A set-associative write-back cache timing model (tags only — data flows
   through the flat physical memory; the cache decides how many cycles an
   access costs).  True-LRU within each set. *)

type config = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
}

let kib n = n * 1024

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
  mutable dropped_writebacks : int;
      (* writebacks suppressed by the fault-injection interceptor *)
}

type t = {
  config : config;
  ways : int;
  (* The tag store, flat: line [set * ways + way] of every set. *)
  tags : int array;
  last_use : int array;
  flags : Bytes.t; (* bit 0 valid, bit 1 dirty *)
  num_sets : int;
  index_bits : int;
  offset_bits : int;
  mutable clock : int;
  mutable last_line : int; (* line the last access left holding its address *)
  stats : stats;
  (* Optional tracing tap, fired once per access with the outcome.  A
     generic closure (not an obs type) keeps this library free of an
     observability dependency; observers must not touch cache state. *)
  mutable observer : (addr:int -> write:bool -> hit:bool -> writeback:bool -> unit) option;
  (* Fault-injection backdoor (roload-chaos): consulted once per would-be
     writeback with the victim line's base address; returning [true]
     silently discards the dirty line instead of writing it back (and the
     writeback penalty is not charged).  [None] — the only state outside
     a campaign — leaves behavior bit-identical to a hook-free cache. *)
  mutable wb_interceptor : (addr:int -> bool) option;
}

(* [create] and [of_image]: a cache over the given tag store. *)
let build config ~tags ~last_use ~flags ~clock ~stats =
  let num_sets = config.size_bytes / (config.ways * config.line_bytes) in
  let log2 = Roload_util.Bits.log2_exact in
  { config; ways = config.ways; tags; last_use; flags; num_sets; index_bits = log2 num_sets;
    offset_bits = log2 config.line_bytes; clock; last_line = 0; stats;
    observer = None; wb_interceptor = None }

let create config =
  let { size_bytes; ways; line_bytes } = config in
  if size_bytes <= 0 || ways <= 0 || line_bytes <= 0 then invalid_arg "Cache.create";
  if not (Roload_util.Bits.is_power_of_two line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two";
  let num_sets = size_bytes / (ways * line_bytes) in
  if num_sets * ways * line_bytes <> size_bytes then
    invalid_arg "Cache.create: size must be ways * lines * line_bytes";
  if not (Roload_util.Bits.is_power_of_two num_sets) then
    invalid_arg "Cache.create: number of sets must be a power of two";
  let lines = num_sets * ways in
  build config ~tags:(Array.make lines 0) ~last_use:(Array.make lines 0)
    ~flags:(Bytes.make lines '\000') ~clock:0
    ~stats:{ hits = 0; misses = 0; writebacks = 0; dropped_writebacks = 0 }

let stats t = t.stats
let set_observer t obs = t.observer <- obs
let set_writeback_interceptor t f = t.wb_interceptor <- f

let notify t ~addr ~write ~hit ~writeback =
  match t.observer with
  | None -> ()
  | Some f -> f ~addr ~write ~hit ~writeback

type outcome = Hit | Miss of { writeback : bool }

(* The outcomes are shared constants, so an access never allocates. *)
let miss_clean = Miss { writeback = false }
let miss_dirty = Miss { writeback = true }

let valid = 1
let dirty = 2 (* only ever set together with [valid] *)
let flag t i = Char.code (Bytes.unsafe_get t.flags i)
let set_flag t i f = Bytes.unsafe_set t.flags i (Char.unsafe_chr f)

(* Victim among lines [i, stop) of one set: the first invalid line, else
   the least recently used one (the first on a tie). *)
let rec victim t i stop best =
  if i >= stop then best
  else if flag t i land valid = 0 then i
  else
    victim t (i + 1) stop
      (if Array.unsafe_get t.last_use i < Array.unsafe_get t.last_use best then i else best)

(* One access; [t.last_line] is left naming the line that now holds
   [addr], for [access_into]. *)
let access t ~addr ~write =
  t.clock <- t.clock + 1;
  let line_addr = addr lsr t.offset_bits in
  let index = line_addr land (t.num_sets - 1) in
  let tag = line_addr lsr t.index_bits in
  let base = index * t.ways in
  let stop = base + t.ways in
  let i = ref base in
  while !i < stop && not (Array.unsafe_get t.tags !i = tag && flag t !i land valid <> 0) do
    incr i
  done;
  let i = !i in
  if i < stop then begin
    t.last_line <- i;
    Array.unsafe_set t.last_use i t.clock;
    if write then set_flag t i (valid lor dirty);
    t.stats.hits <- t.stats.hits + 1;
    notify t ~addr ~write ~hit:true ~writeback:false;
    Hit
  end
  else begin
    t.stats.misses <- t.stats.misses + 1;
    let v = victim t base stop base in
    t.last_line <- v;
    let writeback =
      flag t v = valid lor dirty
      &&
      match t.wb_interceptor with
      | None -> true
      | Some drop ->
        (* base address of the victim line being evicted *)
        let victim_addr =
          ((Array.unsafe_get t.tags v lsl t.index_bits) lor index) lsl t.offset_bits
        in
        if drop ~addr:victim_addr then begin
          t.stats.dropped_writebacks <- t.stats.dropped_writebacks + 1;
          false
        end
        else true
    in
    if writeback then t.stats.writebacks <- t.stats.writebacks + 1;
    Array.unsafe_set t.tags v tag;
    set_flag t v (if write then valid lor dirty else valid);
    Array.unsafe_set t.last_use v t.clock;
    notify t ~addr ~write ~hit:false ~writeback;
    if writeback then miss_dirty else miss_clean
  end

(* Handles for the fetch fast paths.  A handle names the line (by index)
   that serviced an access and the tag it then held; [rehit] replays a
   read hit on it with the exact accounting [access] would have performed
   (clock tick, recency, hit counter) provided that line is still valid
   with the same tag.  Otherwise it does no accounting and the caller
   falls back to [access], so observable cache state is identical to
   always calling [access].  [access_into] re-points a handle in place,
   so the fetch path allocates nothing; a fresh one carries tag -1,
   which no line ever holds. *)

type handle = { mutable h_line : int; mutable h_tag : int; mutable h_addr : int }

let handle () = { h_line = 0; h_tag = -1; h_addr = 0 }

let access_into t ~addr ~write h =
  let outcome = access t ~addr ~write in
  h.h_line <- t.last_line;
  h.h_tag <- Array.unsafe_get t.tags t.last_line;
  h.h_addr <- addr;
  outcome

let rehit t h =
  let i = h.h_line in
  if t.tags.(i) = h.h_tag && flag t i land valid <> 0 then begin
    t.clock <- t.clock + 1;
    Array.unsafe_set t.last_use i t.clock;
    t.stats.hits <- t.stats.hits + 1;
    notify t ~addr:h.h_addr ~write:false ~hit:true ~writeback:false;
    true
  end
  else false

(* [n] consecutive rehits on the same line, batched into O(1) state
   updates: the clock advances by [n], the line's recency lands on the
   final clock value, and [n] hits are counted — exactly the state [n]
   sequential [rehit]s leave behind.  The observer still fires once per
   accounted access. *)
let rehit_many t h ~n =
  let i = h.h_line in
  if n <= 0 then true
  else if t.tags.(i) = h.h_tag && flag t i land valid <> 0 then begin
    t.clock <- t.clock + n;
    Array.unsafe_set t.last_use i t.clock;
    t.stats.hits <- t.stats.hits + n;
    (match t.observer with
    | None -> ()
    | Some f ->
      for _ = 1 to n do
        f ~addr:h.h_addr ~write:false ~hit:true ~writeback:false
      done);
    true
  end
  else false

let flush t = Bytes.fill t.flags 0 (Bytes.length t.flags) '\000'

let reset_stats t =
  t.stats.hits <- 0;
  t.stats.misses <- 0;
  t.stats.writebacks <- 0;
  t.stats.dropped_writebacks <- 0

(* ---- snapshots ----
   A copy of the three tag-store arrays (tags-only, so this is small)
   plus the clock and the statistics.  [of_image] builds a fresh cache
   over copies of them; a handle carried over revalidates by index and
   tag through [rehit]'s guard or falls back, the same contract live
   eviction relies on.  The observer and the one-shot writeback
   interceptor are per-run wiring and are not captured. *)

type image = {
  i_config : config;
  i_tags : int array;
  i_last_use : int array;
  i_flags : Bytes.t;
  i_clock : int;
  i_stats : stats; (* a private copy, never mutated *)
}

let copy_stats s = { s with hits = s.hits }

let snapshot t =
  {
    i_config = t.config;
    i_tags = Array.copy t.tags;
    i_last_use = Array.copy t.last_use;
    i_flags = Bytes.copy t.flags;
    i_clock = t.clock;
    i_stats = copy_stats t.stats;
  }

let of_image img =
  build img.i_config ~tags:(Array.copy img.i_tags)
    ~last_use:(Array.copy img.i_last_use) ~flags:(Bytes.copy img.i_flags) ~clock:img.i_clock
    ~stats:(copy_stats img.i_stats)
