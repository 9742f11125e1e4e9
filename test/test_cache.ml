(* Cache-model tests: geometry, hit/miss behaviour, LRU, write-backs. *)

module Cache = Roload_cache.Cache
module Hierarchy = Roload_cache.Hierarchy

let mk ?(size = 1024) ?(ways = 2) ?(line = 64) () =
  Cache.create ~name:"t" { Cache.size_bytes = size; ways; line_bytes = line }

let test_geometry_validation () =
  Alcotest.check_raises "non-pow2 line"
    (Invalid_argument "Cache.create: line size must be a power of two") (fun () ->
      ignore (Cache.create ~name:"x" { Cache.size_bytes = 1024; ways = 2; line_bytes = 48 }))

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
  Alcotest.(check (float 0.001)) "miss rate" 0.5 (Cache.miss_rate c);
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
  ]
