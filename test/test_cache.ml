(* Cache-model tests: geometry, hit/miss behaviour, LRU, write-backs. *)

module Cache = Roload_cache.Cache
module Hierarchy = Roload_cache.Hierarchy

let mk ?(size = 1024) ?(ways = 2) ?(line = 64) () =
  Cache.create { Cache.size_bytes = size; ways; line_bytes = line }

let test_geometry_validation () =
  Alcotest.check_raises "non-pow2 line"
    (Invalid_argument "Cache.create: line size must be a power of two") (fun () ->
      ignore (Cache.create { Cache.size_bytes = 1024; ways = 2; line_bytes = 48 }))

let test_hit_miss () =
  let c = mk () in
  (match Cache.access c ~addr:0 ~write:false with
  | Cache.Miss _ -> ()
  | Cache.Hit -> Alcotest.fail "cold access must miss");
  (match Cache.access c ~addr:32 ~write:false with
  | Cache.Hit -> ()
  | Cache.Miss _ -> Alcotest.fail "same line must hit");
  match Cache.access c ~addr:64 ~write:false with
  | Cache.Miss _ -> ()
  | Cache.Hit -> Alcotest.fail "next line must miss"

let test_lru_within_set () =
  (* 1024 B, 2-way, 64 B lines -> 8 sets; addresses with the same index
     bits land in the same set every 512 bytes *)
  let c = mk () in
  ignore (Cache.access c ~addr:0 ~write:false);
  ignore (Cache.access c ~addr:512 ~write:false);
  (* touch 0 so 512 is the LRU way *)
  ignore (Cache.access c ~addr:0 ~write:false);
  ignore (Cache.access c ~addr:1024 ~write:false);
  (* now 0 must still hit, 512 must miss *)
  (match Cache.access c ~addr:0 ~write:false with
  | Cache.Hit -> ()
  | Cache.Miss _ -> Alcotest.fail "MRU way evicted");
  match Cache.access c ~addr:512 ~write:false with
  | Cache.Miss _ -> ()
  | Cache.Hit -> Alcotest.fail "LRU way survived"

let test_writeback () =
  let c = mk () in
  ignore (Cache.access c ~addr:0 ~write:true);
  ignore (Cache.access c ~addr:512 ~write:false);
  (* evicting the dirty line must report a write-back *)
  match Cache.access c ~addr:1024 ~write:false with
  | Cache.Miss { writeback = true } -> ()
  | Cache.Miss { writeback = false } -> Alcotest.fail "dirty eviction must write back"
  | Cache.Hit -> Alcotest.fail "expected miss"

let test_stats_and_flush () =
  let c = mk () in
  ignore (Cache.access c ~addr:0 ~write:false);
  ignore (Cache.access c ~addr:0 ~write:false);
  let st = Cache.stats c in
  Alcotest.(check int) "hits" 1 st.Cache.hits;
  Alcotest.(check int) "misses" 1 st.Cache.misses;
  Cache.flush c;
  match Cache.access c ~addr:0 ~write:false with
  | Cache.Miss _ -> ()
  | Cache.Hit -> Alcotest.fail "flush must empty the cache"

let test_hierarchy_costs () =
  let h = Hierarchy.create () in
  let miss_cost = Hierarchy.access_data h ~pa:0 ~write:false in
  let hit_cost = Hierarchy.access_data h ~pa:0 ~write:false in
  Alcotest.(check bool) "miss costs more" true (miss_cost > hit_cost);
  Alcotest.(check int) "hit = l1 latency" Hierarchy.default_latencies.Hierarchy.l1_hit hit_cost;
  let f1 = Hierarchy.access_ifetch h ~pa:4096 in
  let f2 = Hierarchy.access_ifetch h ~pa:4096 in
  Alcotest.(check bool) "ifetch miss positive" true (f1 > 0);
  Alcotest.(check int) "ifetch hit free" 0 f2

(* properties *)
let prop_counters_consistent =
  QCheck.Test.make ~count:200 ~name:"hits + misses = accesses"
    QCheck.(small_list (pair (int_bound 8191) bool))
    (fun accesses ->
      let c = mk () in
      List.iter (fun (addr, write) -> ignore (Cache.access c ~addr ~write)) accesses;
      let st = Cache.stats c in
      st.Cache.hits + st.Cache.misses = List.length accesses)

let prop_repeat_hits =
  QCheck.Test.make ~count:200 ~name:"immediate re-access of any address hits"
    QCheck.(int_bound 100_000)
    (fun addr ->
      let c = mk () in
      ignore (Cache.access c ~addr ~write:false);
      match Cache.access c ~addr ~write:false with
      | Cache.Hit -> true
      | Cache.Miss _ -> false)

let prop_deterministic =
  QCheck.Test.make ~count:100 ~name:"replaying a trace gives identical stats"
    QCheck.(small_list (pair (int_bound 65535) bool))
    (fun trace ->
      let run () =
        let c = mk () in
        List.iter (fun (addr, write) -> ignore (Cache.access c ~addr ~write)) trace;
        let st = Cache.stats c in
        (st.Cache.hits, st.Cache.misses, st.Cache.writebacks)
      in
      run () = run ())

(* property: [Cache.rehit]'s documented contract — replaying a read hit
   through a captured handle, with a full [access] as the fallback on
   refusal, is observably identical to always calling [access]: same
   hit/miss/writeback counters and the same LRU state afterwards.  The
   trace is drawn from a small address window (two sets' worth of
   conflicting lines) so handles regularly go stale through eviction. *)
let prop_rehit_exact_accounting =
  let arb =
    QCheck.make
      ~print:(fun (before, addr, between) ->
        Printf.sprintf "[%s] addr=%d [%s]"
          (String.concat ";" (List.map (fun (a, w) -> Printf.sprintf "%d%s" a (if w then "w" else "r")) before))
          addr
          (String.concat ";" (List.map (fun (a, w) -> Printf.sprintf "%d%s" a (if w then "w" else "r")) between)))
      QCheck.Gen.(
        triple
          (list_size (int_bound 24) (pair (int_bound 4095) bool))
          (int_bound 4095)
          (list_size (int_bound 24) (pair (int_bound 4095) bool)))
  in
  QCheck.Test.make ~count:300 ~name:"Cache.rehit = access (accounting, LRU, fallback)" arb
    (fun (before, addr, between) ->
      let a = mk () in
      let b = mk () in
      let replay (ad, w) =
        ignore (Cache.access a ~addr:ad ~write:w);
        ignore (Cache.access b ~addr:ad ~write:w)
      in
      List.iter replay before;
      (* capture the handle with identical accounting on both caches *)
      let handle = Cache.handle () in
      ignore (Cache.access_into a ~addr ~write:false handle);
      ignore (Cache.access b ~addr ~write:false);
      List.iter replay between;
      let oa =
        if Cache.rehit a handle then Cache.Hit
        else Cache.access a ~addr ~write:false
      in
      let ob = Cache.access b ~addr ~write:false in
      let stats_eq () =
        let sa = Cache.stats a and sb = Cache.stats b in
        sa.Cache.hits = sb.Cache.hits && sa.Cache.misses = sb.Cache.misses
        && sa.Cache.writebacks = sb.Cache.writebacks
      in
      oa = ob
      && stats_eq ()
      (* same LRU state: a conflict-heavy tail behaves identically *)
      && List.for_all
           (fun (ad, w) ->
             Cache.access a ~addr:ad ~write:w = Cache.access b ~addr:ad ~write:w
             && stats_eq ())
           [ (addr, false); (addr + 512, true); (addr + 1024, false);
             (addr, false); (addr + 1536, true); (addr + 512, false) ])

(* property: [Cache.rehit_many h ~n] is [n] sequential [rehit]s — same
   verdict, statistics, line recency and clock (compared through the
   snapshot image, which captures them), and the same observer firings.
   The handle is captured mid-history and the history goes on before the
   replay, so it is sometimes stale; both sides must then refuse without
   accounting. *)
let prop_rehit_many =
  let trace = QCheck.Gen.(list_size (int_bound 16) (pair (int_bound 4095) bool)) in
  let arb =
    QCheck.make
      ~print:(fun (before, addr, between, n) ->
        let show l =
          String.concat ";" (List.map (fun (a, w) -> Printf.sprintf "%d%s" a (if w then "w" else "r")) l)
        in
        Printf.sprintf "[%s] addr=%d [%s] n=%d" (show before) addr (show between) n)
      QCheck.Gen.(quad trace (int_bound 4095) trace (int_range (-1) 6))
  in
  QCheck.Test.make ~count:300 ~name:"Cache.rehit_many = n x rehit (state, clock, observer)" arb
    (fun (before, addr, between, n) ->
      let a = mk () and b = mk () in
      let log_a = ref [] and log_b = ref [] in
      let tap log =
        Some (fun ~addr ~write ~hit ~writeback -> log := (addr, write, hit, writeback) :: !log)
      in
      Cache.set_observer a (tap log_a);
      Cache.set_observer b (tap log_b);
      let replay (ad, w) =
        ignore (Cache.access a ~addr:ad ~write:w);
        ignore (Cache.access b ~addr:ad ~write:w)
      in
      List.iter replay before;
      let ha = Cache.handle () and hb = Cache.handle () in
      ignore (Cache.access_into a ~addr ~write:false ha);
      ignore (Cache.access_into b ~addr ~write:false hb);
      List.iter replay between;
      let batched = Cache.rehit_many a ha ~n in
      let one_by_one = ref true in
      for _ = 1 to n do
        if not (Cache.rehit b hb) then one_by_one := false
      done;
      batched = !one_by_one
      && Cache.snapshot a = Cache.snapshot b
      && !log_a = !log_b)

(* ---------- Cache = reference LRU model ----------

   An independent reference: each set is a list of resident lines,
   most recently used first, holding (line address, dirty).  A miss in a
   full set evicts the list's last element.  Way placement and the clock
   do not exist in the model: the clock gives every valid line of a set
   its own recency stamp, so neither the LRU tie rule nor the choice
   among invalid ways is observable here.  The cache must agree with
   the model on every outcome, the statistics, the writeback interceptor's victim addresses
   and the observer log.  Handle replays are compared as "rehit, else
   fall back to access_into", the callers' contract: a rehit that
   succeeds must find the line resident in the model. *)

type model = {
  m_sets : (int * bool) list array;
  m_ways : int;
  m_line : int;
  mutable m_hits : int;
  mutable m_misses : int;
  mutable m_writebacks : int;
  mutable m_dropped : int;
}

let model_copy m = { m with m_sets = Array.copy m.m_sets }

let model_resident m addr =
  let la = addr / m.m_line in
  List.mem_assoc la m.m_sets.(la mod Array.length m.m_sets)

(* One access; [drop] is the interceptor (None: none installed),
   [victims] logs the addresses it was consulted with, [log] the
   observer events. *)
let model_access m ~drop ~victims ~log ~addr ~write =
  let la = addr / m.m_line in
  let si = la mod Array.length m.m_sets in
  let lines = m.m_sets.(si) in
  match List.assoc_opt la lines with
  | Some d ->
    m.m_hits <- m.m_hits + 1;
    m.m_sets.(si) <- (la, d || write) :: List.remove_assoc la lines;
    log := (addr, write, true, false) :: !log;
    Cache.Hit
  | None ->
    m.m_misses <- m.m_misses + 1;
    let kept, writeback =
      if List.length lines < m.m_ways then (lines, false)
      else
        let rev = List.rev lines in
        let victim_la, victim_dirty = List.hd rev in
        let writeback =
          victim_dirty
          &&
          match drop with
          | None -> true
          | Some chosen ->
            let va = victim_la * m.m_line in
            victims := va :: !victims;
            if va = chosen then (m.m_dropped <- m.m_dropped + 1; false) else true
        in
        (List.rev (List.tl rev), writeback)
    in
    if writeback then m.m_writebacks <- m.m_writebacks + 1;
    m.m_sets.(si) <- (la, write) :: kept;
    log := (addr, write, false, writeback) :: !log;
    Cache.Miss { writeback }

let prop_reference_model =
  let geometries = [ (256, 1, 32); (512, 2, 64); (1024, 4, 32); (2048, 8, 64) ] in
  let gen_op (size, ways, line) =
    let open QCheck.Gen in
    (* two sets, each contended by [ways + 2] lines *)
    let nsets = size / (ways * line) in
    let addr =
      map3
        (fun set tag off -> ((((tag * nsets) + set) * line) + off))
        (int_bound 1) (int_bound (ways + 1)) (int_bound (line - 1))
    in
    frequency
      [
        (8, map2 (fun a w -> `Access (a, w)) addr bool);
        (3, map (fun a -> `Access_into a) addr);
        (3, return `Rehit);
        (3, map (fun n -> `Rehit_many n) (int_range (-1) 6));
        (1, return `Fresh_handle);
        (1, return `Flush);
        (1, return `Reset_stats);
        (2, return `Snapshot);
        (2, return `Of_image);
        (1, map (fun a -> `Intercept (Some (a / line * line))) addr);
        (1, return (`Intercept None));
      ]
  in
  let show = function
    | `Access (a, w) -> Printf.sprintf "%d%s" a (if w then "w" else "r")
    | `Access_into a -> Printf.sprintf "into %d" a
    | `Rehit -> "rehit"
    | `Rehit_many n -> Printf.sprintf "rehit*%d" n
    | `Fresh_handle -> "fresh"
    | `Flush -> "flush"
    | `Reset_stats -> "reset"
    | `Snapshot -> "snap"
    | `Of_image -> "of_image"
    | `Intercept None -> "no-drop"
    | `Intercept (Some a) -> Printf.sprintf "drop %d" a
  in
  let arb =
    QCheck.make
      ~print:(fun ((size, ways, line), ops) ->
        Printf.sprintf "%dB %d-way %dB lines: [%s]" size ways line
          (String.concat "; " (List.map show ops)))
      QCheck.Gen.(
        oneofl geometries >>= fun g ->
        map (fun ops -> (g, ops)) (list_size (int_range 1 120) (gen_op g)))
  in
  QCheck.Test.make ~count:500 ~name:"Cache = reference LRU model" arb
    (fun ((size_bytes, ways, line_bytes), ops) ->
      let c = ref (Cache.create { Cache.size_bytes; ways; line_bytes }) in
      let m =
        ref
          {
            m_sets = Array.make (size_bytes / (ways * line_bytes)) [];
            m_ways = ways;
            m_line = line_bytes;
            m_hits = 0;
            m_misses = 0;
            m_writebacks = 0;
            m_dropped = 0;
          }
      in
      let log_c = ref [] and log_m = ref [] in
      let victims_c = ref [] and victims_m = ref [] in
      let drop = ref None in
      (* the observer and the interceptor are per-run wiring: a cache
         built from an image gets them again *)
      let wire () =
        Cache.set_observer !c
          (Some
             (fun ~addr ~write ~hit ~writeback -> log_c := (addr, write, hit, writeback) :: !log_c));
        Cache.set_writeback_interceptor !c
          (Option.map
             (fun chosen ~addr ->
               victims_c := addr :: !victims_c;
               addr = chosen)
             !drop)
      in
      wire ();
      let h = Cache.handle () and h_addr = ref None in
      let saved = ref None in
      let model_access ~addr ~write =
        model_access !m ~drop:!drop ~victims:victims_m ~log:log_m ~addr ~write
      in
      (* [n] read replays of the handled line: batched when the line is
         still there, else one [access_into] and the rest batched *)
      let replay n addr =
        let resident = model_resident !m addr in
        let first = model_access ~addr ~write:false in
        for _ = 2 to n do
          ignore (model_access ~addr ~write:false)
        done;
        let ok = if n = 1 then Cache.rehit !c h else Cache.rehit_many !c h ~n in
        ((not ok) || resident)
        && (ok
           || Cache.access_into !c ~addr ~write:false h = first
              && Cache.rehit_many !c h ~n:(n - 1))
      in
      let step = function
        | `Access (addr, write) -> Cache.access !c ~addr ~write = model_access ~addr ~write
        | `Access_into addr ->
          h_addr := Some addr;
          Cache.access_into !c ~addr ~write:false h = model_access ~addr ~write:false
        | `Rehit -> (
          match !h_addr with
          | None -> not (Cache.rehit !c h)
          | Some addr -> replay 1 addr)
        | `Rehit_many n -> (
          match !h_addr with
          | None -> Cache.rehit_many !c h ~n = (n <= 0)
          | Some _ when n <= 0 -> Cache.rehit_many !c h ~n
          | Some addr -> replay n addr)
        | `Fresh_handle ->
          (* a handle never re-pointed names no line *)
          let fresh = Cache.handle () in
          (not (Cache.rehit !c fresh)) && not (Cache.rehit_many !c fresh ~n:3)
        | `Flush ->
          Cache.flush !c;
          Array.fill !m.m_sets 0 (Array.length !m.m_sets) [];
          true
        | `Reset_stats ->
          Cache.reset_stats !c;
          !m.m_hits <- 0;
          !m.m_misses <- 0;
          !m.m_writebacks <- 0;
          !m.m_dropped <- 0;
          true
        | `Snapshot ->
          saved := Some (Cache.snapshot !c, model_copy !m);
          true
        | `Of_image ->
          (match !saved with
          | None -> ()
          | Some (img, mm) ->
            c := Cache.of_image img;
            wire ();
            m := model_copy mm);
          true
        | `Intercept target ->
          drop := target;
          wire ();
          true
      in
      let stats_agree () =
        let s = Cache.stats !c in
        s.Cache.hits = !m.m_hits && s.Cache.misses = !m.m_misses
        && s.Cache.writebacks = !m.m_writebacks
        && s.Cache.dropped_writebacks = !m.m_dropped
      in
      List.for_all (fun op -> step op && stats_agree ()) ops
      && !log_c = !log_m && !victims_c = !victims_m)

let suite =
  [
    Alcotest.test_case "geometry validation" `Quick test_geometry_validation;
    Alcotest.test_case "hit/miss" `Quick test_hit_miss;
    Alcotest.test_case "lru within a set" `Quick test_lru_within_set;
    Alcotest.test_case "write-back on dirty eviction" `Quick test_writeback;
    Alcotest.test_case "stats and flush" `Quick test_stats_and_flush;
    Alcotest.test_case "hierarchy costs" `Quick test_hierarchy_costs;
    Seeded.to_alcotest prop_counters_consistent;
    Seeded.to_alcotest prop_repeat_hits;
    Seeded.to_alcotest prop_deterministic;
    Seeded.to_alcotest prop_rehit_exact_accounting;
    Seeded.to_alcotest prop_rehit_many;
    Seeded.to_alcotest prop_reference_model;
  ]
