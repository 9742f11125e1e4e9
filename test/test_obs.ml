(* Observability tests: the tracer/profiler must be a pure side channel
   (bit-identical measurements with and without it), metrics snapshots
   must agree with a recount from the single-step reference engine on
   random programs under every scheme, and the exporters (Chrome JSON,
   text dump, hot-block table) must stay well-formed. *)

module Machine = Roload_machine.Machine
module Pass = Roload_passes.Pass
module System = Core.System
module Event = Roload_obs.Event
module Tracer = Roload_obs.Tracer
module Metrics = Roload_obs.Metrics
module Profile = Roload_obs.Profile

let compile ?(scheme = Pass.Vcall) ~name src =
  Core.Toolchain.compile_exe
    ~options:{ Core.Toolchain.default_options with scheme }
    ~name src

(* virtual dispatch in a loop plus recursion: exercises ld.ro, the
   block cache, both TLBs, syscalls and printing in one small program *)
let workload_src =
  {|
int fib(int n) {
  if (n < 2) return n;
  return fib(n - 1) + fib(n - 2);
}
class A { virtual int m(int x) { return x + 1; } };
class B : A { virtual int m(int x) { return x * 2; } };
int main() {
  A *p = new B;
  int total = 0;
  int i;
  for (i = 0; i < 20; i = i + 1) { total = total + p->m(i); }
  print_int(total + fib(12));
  print_char('\n');
  return 0;
}
|}

(* ---------- tracing off == tracing on, for every engine ---------- *)

let test_trace_is_side_channel () =
  let exe = compile ~name:"obs_side" workload_src in
  (* threshold 1: the untraced traced-engine run compiles traces, the
     tracer-on run drives the whole program through the per-slot tier *)
  Test_engine.with_hot_threshold 1 @@ fun () ->
  List.iter
    (fun (engine, ctx) ->
      let plain = System.run ~engine ~variant:System.Processor_kernel_modified exe in
      let tracer = Tracer.create () in
      let traced =
        System.run ~engine ~tracer ~profile:true
          ~variant:System.Processor_kernel_modified exe
      in
      Test_engine.check_same_measurement (ctx ^ ": traced vs untraced") plain traced;
      (* [core_equal], not structural equality: attaching a tracer makes
         the traced engine fall back to per-instruction dispatch, so the
         trace_* convenience counters legitimately differ — every
         architectural counter must not *)
      if not (Metrics.core_equal plain.System.metrics traced.System.metrics) then
        Alcotest.failf "%s: metrics differ between traced and untraced runs" ctx;
      if Tracer.emitted tracer = 0 then
        Alcotest.failf "%s: tracer attached but no events emitted" ctx)
    [ (Machine.Single_step, "single"); (Machine.Traced, "traced") ]

(* ---------- the ring buffer itself ---------- *)

let test_ring_buffer () =
  let tr = Tracer.create ~capacity:4 () in
  let now = ref 0L in
  Tracer.set_clock tr (fun () -> !now);
  for i = 1 to 6 do
    now := Int64.of_int (10 * i);
    Tracer.emit tr (Event.Block_decode { pa = i })
  done;
  Alcotest.(check int) "length" 4 (Tracer.length tr);
  Alcotest.(check int) "emitted" 6 (Tracer.emitted tr);
  Alcotest.(check int) "dropped" 2 (Tracer.dropped tr);
  let seen = ref [] in
  Tracer.iter tr (fun ~ts ev ->
      match ev with
      | Event.Block_decode { pa } -> seen := (ts, pa) :: !seen
      | _ -> Alcotest.fail "unexpected event kind");
  Alcotest.(check (list (pair int64 int)))
    "oldest-first window"
    [ (30L, 3); (40L, 4); (50L, 5); (60L, 6) ]
    (List.rev !seen);
  Tracer.clear tr;
  Alcotest.(check int) "cleared" 0 (Tracer.length tr)

(* ---------- exporters ---------- *)

let contains = Test_engine.contains

let count_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else if String.sub hay i nn = needle then go (i + nn) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let traced_run () =
  let exe = compile ~name:"obs_export" workload_src in
  let tracer = Tracer.create () in
  let m =
    System.run ~tracer ~profile:true ~variant:System.Processor_kernel_modified exe
  in
  (tracer, m)

let test_chrome_json () =
  let tracer, _ = traced_run () in
  let doc = Tracer.to_chrome_json tracer in
  Alcotest.(check bool) "traceEvents" true (contains doc "\"traceEvents\"");
  Alcotest.(check bool) "instant phase" true (contains doc "\"ph\": \"i\"");
  Alcotest.(check bool) "thread names" true (contains doc "thread_name");
  Alcotest.(check bool) "ld.ro events" true (contains doc "\"ld.ro\"");
  Alcotest.(check bool) "balanced braces" true
    (count_substring doc "{" = count_substring doc "}");
  (* one JSON object per retained event plus the four lane-name
     metadata records *)
  Alcotest.(check int) "event count"
    (Tracer.length tracer + 4)
    (count_substring doc "\"ph\":")

let test_text_dump () =
  let tracer, _ = traced_run () in
  let doc = Tracer.to_text tracer in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' doc) in
  (* header plus one line per retained event *)
  Alcotest.(check bool) "one line per event" true
    (List.length lines > Tracer.length tracer);
  Alcotest.(check bool) "syscall visible" true (contains doc "syscall:")

let test_profiler () =
  let _, m = traced_run () in
  let blocks = m.System.profile in
  if blocks = [] then Alcotest.fail "profiler returned no blocks";
  let top = Profile.top ~n:5 blocks in
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      (a.Profile.cycles > b.Profile.cycles
      || (a.Profile.cycles = b.Profile.cycles && a.Profile.pa <= b.Profile.pa))
      && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "top sorted by cycles" true (sorted top);
  let total =
    List.fold_left (fun acc b -> Int64.add acc b.Profile.instructions) 0L blocks
  in
  Alcotest.(check bool) "attributes instructions" true (total > 0L);
  Alcotest.(check bool) "within run total" true (total <= m.System.instructions);
  let rendered = Profile.render ~n:3 blocks in
  Alcotest.(check bool) "render has header" true (contains rendered "hot blocks:");
  Alcotest.(check bool) "render has addresses" true (contains rendered "0x")

(* ---------- faults reach the metrics and the trace ---------- *)

let vptr_inject_src =
  {|
class A { virtual int m(int x) { return x + 7; } };
int fake[2];
int main() {
  A *p = new A;
  fake[0] = 0;
  fake[1] = 0;
  *((int *)p) = (int)fake;
  print_int(p->m(1));
  return 0;
}
|}

let test_fault_events () =
  let exe = compile ~scheme:Pass.Vcall ~name:"obs_fault" vptr_inject_src in
  let tracer = Tracer.create () in
  let m = System.run ~tracer ~variant:System.Processor_kernel_modified exe in
  (match m.System.status with
  | Roload_kernel.Process.Killed _ -> ()
  | _ -> Alcotest.failf "vptr injection not killed: %s" (System.status_string m));
  Alcotest.(check bool) "roload fault counted" true
    (Metrics.roload_faults m.System.metrics > 0);
  let doc = Tracer.to_text tracer in
  Alcotest.(check bool) "fault event traced" true (contains doc "ld.ro fault");
  Alcotest.(check bool) "kernel triage traced" true (contains doc "fault:roload")

(* ---------- metrics: traced engine == single-step recount ---------- *)

let check_metrics_consistency ctx (m : System.measurement) =
  let mt = m.System.metrics in
  let chk name a b = Alcotest.(check int) (ctx ^ ": " ^ name) a b in
  Alcotest.(check int64)
    (ctx ^ ": instructions")
    m.System.instructions mt.Metrics.instructions;
  Alcotest.(check int64) (ctx ^ ": cycles") m.System.cycles mt.Metrics.cycles;
  chk "roloads" m.System.roloads_executed mt.Metrics.roloads;
  chk "key classes sum to roloads"
    (mt.Metrics.roload_key0 + mt.Metrics.roload_vtable_unified
   + mt.Metrics.roload_typed + mt.Metrics.roload_return_sites)
    mt.Metrics.roloads;
  chk "icache accesses" m.System.icache.System.accesses
    (mt.Metrics.icache_hits + mt.Metrics.icache_misses);
  chk "dcache accesses" m.System.dcache.System.accesses
    (mt.Metrics.dcache_hits + mt.Metrics.dcache_misses);
  chk "itlb accesses" m.System.itlb.System.accesses
    (mt.Metrics.itlb_hits + mt.Metrics.itlb_misses);
  chk "dtlb accesses" m.System.dtlb.System.accesses
    (mt.Metrics.dtlb_hits + mt.Metrics.dtlb_misses)

let prop_metrics_agree =
  QCheck.Test.make ~count:15
    ~name:"metrics: traced snapshots == single-step recount"
    Test_engine.arb_case
    (fun (src, scheme) ->
      let exe =
        Core.Toolchain.compile_exe
          ~options:{ Core.Toolchain.default_options with scheme }
          ~name:"rand_obs" src
      in
      let ctx = Pass.scheme_name scheme in
      let variant = System.Processor_kernel_modified in
      let stepped = System.run ~engine:Machine.Single_step ~variant exe in
      let traced =
        Test_engine.with_hot_threshold 1 (fun () ->
            System.run ~engine:Machine.Traced ~variant exe)
      in
      check_metrics_consistency (ctx ^ "/single") stepped;
      check_metrics_consistency (ctx ^ "/traced") traced;
      Alcotest.(check string)
        (ctx ^ ": engine tags")
        "single/traced"
        (stepped.System.metrics.Metrics.engine ^ "/" ^ traced.System.metrics.Metrics.engine);
      if not (Metrics.core_equal traced.System.metrics stepped.System.metrics) then
        Alcotest.failf "%s: metrics diverge between engines:\n%s\nvs\n%s" ctx
          (Metrics.to_json traced.System.metrics)
          (Metrics.to_json stepped.System.metrics);
      true)

let test_metrics_json () =
  let _, m = traced_run () in
  let doc = Metrics.to_json m.System.metrics in
  Alcotest.(check bool) "has cycles" true (contains doc "\"cycles\":");
  (match Roload_util.Json.scan_int64_values ~key:"cycles" doc with
  | [ c ] -> Alcotest.(check int64) "cycles scan" m.System.cycles c
  | other -> Alcotest.failf "expected one cycles value, got %d" (List.length other));
  let labeled =
    [ { Metrics.workload = "w\"1"; scheme = "vcall/full"; m = m.System.metrics } ]
  in
  let log = Metrics.log_to_json labeled in
  Alcotest.(check bool) "log escapes workload" true (contains log "w\\\"1");
  Alcotest.(check bool) "log has scheme" true (contains log "vcall/full")

let suite =
  [
    Alcotest.test_case "tracing is a pure side channel" `Quick
      test_trace_is_side_channel;
    Alcotest.test_case "ring buffer window + drop accounting" `Quick test_ring_buffer;
    Alcotest.test_case "chrome trace export" `Quick test_chrome_json;
    Alcotest.test_case "text trace export" `Quick test_text_dump;
    Alcotest.test_case "hot-block profiler" `Quick test_profiler;
    Alcotest.test_case "faults reach metrics and trace" `Quick test_fault_events;
    Alcotest.test_case "metrics snapshot json" `Quick test_metrics_json;
    Seeded.to_alcotest prop_metrics_agree;
  ]
