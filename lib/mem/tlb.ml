(* A fully-associative TLB with true-LRU replacement.  Each entry caches a
   leaf PTE — including the ROLoad key field, mirroring the hardware change
   of paper §III-A ("we also add the newly introduced key field … to each
   TLB entry"). *)

type entry = { mutable vpn : int; mutable pte : Pte.t; mutable last_use : int; mutable valid : bool }

type stats = { mutable hits : int; mutable misses : int; mutable flushes : int }

type t = {
  entries : entry array;
  mutable clock : int;
  stats : stats;
  name : string;
  (* Optional tracing tap, fired once per accounted lookup (including
     handle rehits).  A generic closure keeps this library free of an
     observability dependency; observers must not touch TLB state. *)
  mutable observer : (vpn:int -> hit:bool -> unit) option;
}

let create ~name ~entries:n =
  if n <= 0 then invalid_arg "Tlb.create";
  {
    entries =
      Array.init n (fun _ -> { vpn = -1; pte = Pte.invalid_pte; last_use = 0; valid = false });
    clock = 0;
    stats = { hits = 0; misses = 0; flushes = 0 };
    name;
    observer = None;
  }

let name t = t.name
let size t = Array.length t.entries
let stats t = t.stats
let set_observer t obs = t.observer <- obs

let notify t ~vpn ~hit =
  match t.observer with None -> () | Some f -> f ~vpn ~hit

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* Handles.  A handle names the entry that produced a hit; [rehit] replays a
   hit on it with the exact accounting [lookup] would have performed (clock
   tick, recency update, hit counter), provided the entry still caches
   [vpn].  If it does not — the entry was invalidated or recycled — [rehit]
   performs no accounting at all and the caller falls back to the full
   lookup, so the observable TLB state is identical to always calling
   [lookup].  [no_handle] stands for "no entry": it is never valid, so
   every guard refuses it, and nothing ever writes to it.

   Every scan below is a plain loop over the entry array returning an
   index, and misses return [no_handle] rather than an option: the MMU
   calls these on every access, so they must not allocate. *)

type handle = entry

let no_handle = { vpn = -1; pte = Pte.invalid_pte; last_use = 0; valid = false }
let pte (e : handle) = e.pte

let rec find entries vpn i =
  if i >= Array.length entries then -1
  else
    let e = Array.unsafe_get entries i in
    if e.valid && e.vpn = vpn then i else find entries vpn (i + 1)

let lookup_entry t vpn =
  let i = find t.entries vpn 0 in
  if i >= 0 then begin
    let e = Array.unsafe_get t.entries i in
    e.last_use <- tick t;
    t.stats.hits <- t.stats.hits + 1;
    notify t ~vpn ~hit:true;
    e
  end
  else begin
    t.stats.misses <- t.stats.misses + 1;
    notify t ~vpn ~hit:false;
    no_handle
  end

let lookup t vpn =
  let e = lookup_entry t vpn in
  if e == no_handle then None else Some e.pte

(* Locate the entry caching [vpn] without touching stats, clock or recency. *)
let peek t ~vpn =
  let i = find t.entries vpn 0 in
  if i < 0 then no_handle else Array.unsafe_get t.entries i

let rehit t ~vpn (e : handle) =
  if e.valid && e.vpn = vpn then begin
    e.last_use <- tick t;
    t.stats.hits <- t.stats.hits + 1;
    notify t ~vpn ~hit:true;
    true
  end
  else false

(* [n] consecutive rehits on the same entry, batched into O(1) state
   updates.  Each individual rehit ticks the clock and stamps the entry's
   recency with the new clock value, so [n] of them in a row leave the
   clock advanced by [n] and the recency at the final value — exactly
   what this computes.  The observer (when attached) still fires once per
   accounted lookup. *)
let rehit_many t ~vpn (e : handle) ~n =
  if n <= 0 then true
  else if e.valid && e.vpn = vpn then begin
    t.clock <- t.clock + n;
    e.last_use <- t.clock;
    t.stats.hits <- t.stats.hits + n;
    (match t.observer with
    | None -> ()
    | Some f ->
      for _ = 1 to n do
        f ~vpn ~hit:true
      done);
    true
  end
  else false

(* Replacement victim: the first invalid slot, else the least recently
   used entry (the first one on a tie). *)
let rec victim entries i best =
  if i >= Array.length entries then best
  else
    let e = Array.unsafe_get entries i in
    if not e.valid then i
    else
      victim entries (i + 1)
        (if e.last_use < (Array.unsafe_get entries best).last_use then i else best)

let insert t ~vpn ~pte =
  let e = Array.unsafe_get t.entries (victim t.entries 0 0) in
  e.vpn <- vpn;
  e.pte <- pte;
  e.valid <- true;
  e.last_use <- tick t;
  e

(* Fault-injection backdoor (roload-chaos): mutate the cached leaf PTE of
   the entry holding [vpn] in place, with no accounting whatsoever (no
   clock tick, no stats, no recency) — this models a soft error striking
   the TLB's key/permission bits while the entry stays resident.  Returns
   whether an entry was corrupted; [false] means [vpn] is not currently
   cached and the fault landed in thin air. *)
let corrupt t ~vpn ~f =
  let e = peek t ~vpn in
  if e == no_handle then false
  else begin
    e.pte <- f e.pte;
    true
  end

(* Invalidate a single translation (used by mprotect/mprotect_key — an
   sfence.vma analogue). *)
let invalidate t ~vpn =
  Array.iter (fun e -> if e.valid && e.vpn = vpn then e.valid <- false) t.entries

let flush t =
  Array.iter (fun e -> e.valid <- false) t.entries;
  t.stats.flushes <- t.stats.flushes + 1

let reset_stats t =
  t.stats.hits <- 0;
  t.stats.misses <- 0;
  t.stats.flushes <- 0

(* ---- snapshots ----
   The image is a deep copy of every entry plus the LRU clock and the
   statistics, so a restored TLB replays byte-identically (same hits,
   misses, evictions).  Restore mutates the existing entry records in
   place: outstanding handles keep their identity, and [rehit]'s
   [valid && vpn = vpn] guard makes any stale handle fall back to a full
   lookup — exactly the contract live invalidation already relies on.
   The observer is deliberately not captured (it is per-run wiring). *)

type image = {
  i_entries : (int * Pte.t * int * bool) array;
  i_clock : int;
  i_hits : int;
  i_misses : int;
  i_flushes : int;
}

let snapshot t =
  {
    i_entries = Array.map (fun e -> (e.vpn, e.pte, e.last_use, e.valid)) t.entries;
    i_clock = t.clock;
    i_hits = t.stats.hits;
    i_misses = t.stats.misses;
    i_flushes = t.stats.flushes;
  }

let restore t img =
  if Array.length img.i_entries <> Array.length t.entries then
    invalid_arg "Tlb.restore: size mismatch";
  Array.iteri
    (fun i (vpn, pte, last_use, valid) ->
      let e = t.entries.(i) in
      e.vpn <- vpn;
      e.pte <- pte;
      e.last_use <- last_use;
      e.valid <- valid)
    img.i_entries;
  t.clock <- img.i_clock;
  t.stats.hits <- img.i_hits;
  t.stats.misses <- img.i_misses;
  t.stats.flushes <- img.i_flushes

let occupancy t =
  Array.fold_left (fun acc e -> if e.valid then acc + 1 else acc) 0 t.entries
