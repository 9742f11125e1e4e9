(* A set-associative write-back cache timing model (tags only — data flows
   through the flat physical memory; the cache decides how many cycles an
   access costs).  True-LRU within each set. *)

type config = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
}

let kib n = n * 1024

type line = { mutable tag : int; mutable valid : bool; mutable dirty : bool; mutable last_use : int }

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
  mutable dropped_writebacks : int;
      (* writebacks suppressed by the fault-injection interceptor *)
}

type t = {
  config : config;
  sets : line array array; (* sets.(index).(way) *)
  num_sets : int;
  index_bits : int;
  offset_bits : int;
  mutable clock : int;
  mutable last_way : int; (* way of the line the last access left holding its address *)
  stats : stats;
  name : string;
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

let create ~name config =
  let { size_bytes; ways; line_bytes } = config in
  if size_bytes <= 0 || ways <= 0 || line_bytes <= 0 then invalid_arg "Cache.create";
  if not (Roload_util.Bits.is_power_of_two line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two";
  let num_sets = size_bytes / (ways * line_bytes) in
  if num_sets * ways * line_bytes <> size_bytes then
    invalid_arg "Cache.create: size must be ways * lines * line_bytes";
  if not (Roload_util.Bits.is_power_of_two num_sets) then
    invalid_arg "Cache.create: number of sets must be a power of two";
  {
    config;
    sets =
      Array.init num_sets (fun _ ->
          Array.init ways (fun _ -> { tag = 0; valid = false; dirty = false; last_use = 0 }));
    num_sets;
    index_bits = Roload_util.Bits.log2_exact num_sets;
    offset_bits = Roload_util.Bits.log2_exact line_bytes;
    clock = 0;
    last_way = 0;
    stats = { hits = 0; misses = 0; writebacks = 0; dropped_writebacks = 0 };
    name;
    observer = None;
    wb_interceptor = None;
  }

let name t = t.name
let config t = t.config
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

(* Victim: the first invalid way, else the least recently used one (the
   first on a tie). *)
let rec victim_way set i best =
  if i >= Array.length set then best
  else
    let l = Array.unsafe_get set i in
    if not l.valid then i
    else
      victim_way set (i + 1)
        (if l.last_use < (Array.unsafe_get set best).last_use then i else best)

(* One access; [t.last_way] is left naming the way of the line that now
   holds [addr], for [access_into]. *)
let access t ~addr ~write =
  t.clock <- t.clock + 1;
  let line_addr = addr lsr t.offset_bits in
  let index = line_addr land (t.num_sets - 1) in
  let tag = line_addr lsr t.index_bits in
  let set = t.sets.(index) in
  let way = ref (-1) and i = ref 0 in
  while !way < 0 && !i < Array.length set do
    let l = Array.unsafe_get set !i in
    if l.valid && l.tag = tag then way := !i;
    incr i
  done;
  let way = !way in
  if way >= 0 then begin
    let line = Array.unsafe_get set way in
    t.last_way <- way;
    line.last_use <- t.clock;
    if write then line.dirty <- true;
    t.stats.hits <- t.stats.hits + 1;
    notify t ~addr ~write ~hit:true ~writeback:false;
    Hit
  end
  else begin
    t.stats.misses <- t.stats.misses + 1;
    let way = victim_way set 0 0 in
    let v = Array.unsafe_get set way in
    t.last_way <- way;
    let writeback =
      v.valid && v.dirty
      &&
      match t.wb_interceptor with
      | None -> true
      | Some drop ->
        (* base address of the victim line being evicted *)
        let victim_addr = ((v.tag lsl t.index_bits) lor index) lsl t.offset_bits in
        if drop ~addr:victim_addr then begin
          t.stats.dropped_writebacks <- t.stats.dropped_writebacks + 1;
          false
        end
        else true
    in
    if writeback then t.stats.writebacks <- t.stats.writebacks + 1;
    v.tag <- tag;
    v.valid <- true;
    v.dirty <- write;
    v.last_use <- t.clock;
    notify t ~addr ~write ~hit:false ~writeback;
    if writeback then miss_dirty else miss_clean
  end

(* Handles for the fetch fast paths.  A handle names the line that
   serviced an access; [rehit] replays a read hit on it with the exact
   accounting [access] would have performed (clock tick, recency, hit
   counter) provided the line still holds the same tag.  Otherwise it
   does no accounting and the caller falls back to [access], so
   observable cache state is identical to always calling [access].  A
   handle is a reusable mutable cell that [access_into] re-points, so the
   fetch path allocates nothing; a fresh one names no line. *)

type handle = { mutable h_line : line; mutable h_tag : int; mutable h_addr : int }

let no_line = { tag = -1; valid = false; dirty = false; last_use = 0 }
let handle () = { h_line = no_line; h_tag = -1; h_addr = 0 }

let access_into t ~addr ~write h =
  let outcome = access t ~addr ~write in
  let line_addr = addr lsr t.offset_bits in
  h.h_line <- Array.unsafe_get t.sets.(line_addr land (t.num_sets - 1)) t.last_way;
  h.h_tag <- line_addr lsr t.index_bits;
  h.h_addr <- addr;
  outcome

let rehit t h =
  let line = h.h_line in
  if line.valid && line.tag = h.h_tag then begin
    t.clock <- t.clock + 1;
    line.last_use <- t.clock;
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
  let line = h.h_line in
  if n <= 0 then true
  else if line.valid && line.tag = h.h_tag then begin
    t.clock <- t.clock + n;
    line.last_use <- t.clock;
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

let flush t =
  Array.iter (Array.iter (fun l -> l.valid <- false; l.dirty <- false)) t.sets

let reset_stats t =
  t.stats.hits <- 0;
  t.stats.misses <- 0;
  t.stats.writebacks <- 0;
  t.stats.dropped_writebacks <- 0

let miss_rate t =
  let total = t.stats.hits + t.stats.misses in
  if total = 0 then 0.0 else float_of_int t.stats.misses /. float_of_int total

(* ---- snapshots ----
   Deep copy of every line (tags-only, so this is small) plus the clock
   and the statistics.  Restore mutates the existing line records in
   place, preserving handle identity: an outstanding handle revalidates
   against the restored tag through [rehit]'s guard or falls back, the
   same contract live eviction relies on.  The observer and the one-shot
   writeback interceptor are per-run wiring and are not captured. *)

type image = {
  i_lines : (int * bool * bool * int) array array; (* (tag, valid, dirty, last_use) *)
  i_clock : int;
  i_hits : int;
  i_misses : int;
  i_writebacks : int;
  i_dropped_writebacks : int;
}

let snapshot t =
  {
    i_lines =
      Array.map (Array.map (fun l -> (l.tag, l.valid, l.dirty, l.last_use))) t.sets;
    i_clock = t.clock;
    i_hits = t.stats.hits;
    i_misses = t.stats.misses;
    i_writebacks = t.stats.writebacks;
    i_dropped_writebacks = t.stats.dropped_writebacks;
  }

let restore t img =
  if
    Array.length img.i_lines <> Array.length t.sets
    || (Array.length t.sets > 0
       && Array.length img.i_lines.(0) <> Array.length t.sets.(0))
  then invalid_arg "Cache.restore: geometry mismatch";
  Array.iteri
    (fun si ways ->
      Array.iteri
        (fun wi (tag, valid, dirty, last_use) ->
          let l = t.sets.(si).(wi) in
          l.tag <- tag;
          l.valid <- valid;
          l.dirty <- dirty;
          l.last_use <- last_use)
        ways)
    img.i_lines;
  t.clock <- img.i_clock;
  t.stats.hits <- img.i_hits;
  t.stats.misses <- img.i_misses;
  t.stats.writebacks <- img.i_writebacks;
  t.stats.dropped_writebacks <- img.i_dropped_writebacks
