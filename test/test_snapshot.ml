(* Snapshot correctness: the differential-state test harness for the
   copy-on-write machine snapshots.

   The contract under test, on every scheme and every engine:

   - replay-exactness: run N instructions, snapshot, run the parent to
     completion, then fork the snapshot and run the fork to completion —
     both runs match an uninterrupted one, and the fork is
     byte-identical to the parent (status, output, console, instret,
     cycles, and the {e full} metrics snapshot, caches/TLBs/trace
     counters included, so it runs the traces the image holds), also
     when the program forks after the snapshot.  An image survives a
     parent that ran on, and any number of uses;

   - multi-task exactness: a kernel with several live tasks — a forked
     child, or a supervised server paused at a request hand-out —
     captures every task, and forks taken before and after the parent
     served on all end as an uninterrupted run does;

   - fork-isolation: forks of one snapshot are fully independent —
     running the parent or a sibling to completion never perturbs a
     fork, which still reproduces the captured run exactly;

   - diff-localization: a single planted bit flip in one fork is
     reported by the page-level comparator as exactly the tampered
     page/offset, while untouched twin forks diff empty. *)

module Machine = Roload_machine.Machine
module Kernel = Roload_kernel.Kernel
module Process = Roload_kernel.Process
module Snapshot = Roload_kernel.Snapshot
module Phys_mem = Roload_mem.Phys_mem
module Pass = Roload_passes.Pass
module Metrics = Roload_obs.Metrics
module System = Core.System

let all_engines =
  [ Machine.Single_step; Machine.Traced ]

let compile ~scheme src =
  Core.Toolchain.compile_exe
    ~options:{ Core.Toolchain.default_options with scheme }
    ~name:"snap" src

let boot ?engine exe =
  let machine =
    Machine.create ?engine (System.machine_config System.Processor_kernel_modified)
  in
  let kernel = Kernel.create ~machine ~config:(System.kernel_config System.Processor_kernel_modified) in
  let process = Kernel.load kernel exe in
  Kernel.schedule kernel process;
  (machine, kernel, process)

let budget = 10_000_000L

let run_to limit kernel process =
  Kernel.run ~limit:{ Kernel.max_instructions = limit } kernel process

let metrics ~machine ~kernel ~process =
  System.snapshot_metrics ~machine ~kernel ~mmu:(Process.mmu process)

let outcome_str (o : Kernel.run_outcome) =
  Printf.sprintf "%s instret=%Ld cycles=%Ld out=%S"
    (match o.Kernel.status with
    | Process.Exited n -> Printf.sprintf "exit %d" n
    | Process.Killed sg -> Roload_kernel.Signal.to_string sg
    | Process.Running -> "running")
    o.Kernel.instructions o.Kernel.cycles o.Kernel.output

(* ---------- replay-exactness + fork-isolation property ---------- *)

let gen_case rs =
  let open QCheck.Gen in
  let src = Test_engine.gen_source rs in
  let scheme = oneofl Pass.all_schemes rs in
  let engine = oneofl all_engines rs in
  let pause = Int64.of_int (1 + int_bound 4000 rs) in
  (src, scheme, engine, pause)

let arb_case =
  QCheck.make gen_case ~print:(fun (src, scheme, engine, pause) ->
      Printf.sprintf "// scheme %s engine %s pause %Ld\n%s" (Pass.scheme_name scheme)
        (Machine.engine_name engine) pause src)

(* Pause, capture, and run the parent on to its end: the paused run
   matches an uninterrupted one.  Returns the parent's end and the
   snapshot. *)
let check_pause_exact ~ctx (src, scheme, engine, pause) =
  let exe = compile ~scheme src in
  let uninterrupted =
    let _, kernel, process = boot ~engine exe in
    outcome_str (run_to budget kernel process)
  in
  let machine, kernel, process = boot ~engine exe in
  ignore (run_to pause kernel process);
  let snap = Snapshot.capture ~machine ~kernel ~process in
  let final = run_to budget kernel process in
  Alcotest.(check string)
    (ctx ^ ": paused run matches an uninterrupted one")
    uninterrupted (outcome_str final);
  ((final, metrics ~machine ~kernel ~process, Kernel.console kernel), snap)

(* A fork of [snap] ends byte-identically to [parent_end], the end the
   parent reached from the same capture. *)
let check_fork_exact ~ctx snap ((final, met, console) : Kernel.run_outcome * Metrics.t * string) =
  let fm, fk, fp = Snapshot.fork snap in
  let ffinal = run_to budget fk fp in
  let fmet = metrics ~machine:fm ~kernel:fk ~process:fp in
  Alcotest.(check string)
    (ctx ^ ": fork replays the captured run")
    (outcome_str final) (outcome_str ffinal);
  Alcotest.(check string)
    (ctx ^ ": full metrics identical in a fork")
    (Metrics.to_json met) (Metrics.to_json fmet);
  Alcotest.(check string) (ctx ^ ": console replays in a fork") console (Kernel.console fk)

(* The cache tag store and decode/block table sizes of a machine. *)
let code_state m =
  ( Roload_cache.Hierarchy.snapshot (Machine.hierarchy m),
    Machine.cached_decodes m,
    Machine.cached_blocks m )

(* Twin forks: run one to completion; the other must still hold the
   captured memory bit-for-bit (CoW pages never leak between forks) and
   [fresh], the code state of a fork taken before any fork of [snap]
   ran (no fork may alias the image's cache arrays or code tables). *)
let check_fork_isolation ~ctx ~fresh snap =
  let am, ak, ap = Snapshot.fork snap in
  let bm, _bk, _bp = Snapshot.fork snap in
  ignore (run_to budget ak ap);
  ignore am;
  let untouched = Phys_mem.snapshot (Machine.mem bm) in
  Alcotest.(check int)
    (ctx ^ ": sibling fork unperturbed by a completed twin")
    0
    (List.length (Phys_mem.diff_images (Snapshot.mem_image snap) untouched));
  Alcotest.(check bool)
    (ctx ^ ": sibling caches and code tables unperturbed by a completed twin")
    true
    (code_state bm = fresh)

let check_roundtrip ((_, scheme, engine, _) as case) =
  let ctx = Printf.sprintf "%s/%s" (Pass.scheme_name scheme) (Machine.engine_name engine) in
  Test_engine.with_hot_threshold 1 (fun () ->
      let parent_end, snap = check_pause_exact ~ctx case in
      let fresh = code_state (let m, _, _ = Snapshot.fork snap in m) in
      check_fork_exact ~ctx snap parent_end;
      check_fork_exact ~ctx:(ctx ^ ", second use") snap parent_end;
      check_fork_isolation ~ctx ~fresh snap)

let prop_snapshot_roundtrip =
  QCheck.Test.make ~count:12
    ~name:"snapshot/fork: byte-identical replay on all schemes x engines"
    arb_case
    (fun case ->
      check_roundtrip case;
      true)

(* A one-task snapshot taken before the program forks: a fork of it,
   taken after the parent's child came and went, must replay the
   fork/wait exactly.  After the fork the parent first touches pages it
   never used before, so it must take TLB misses through its own page
   table. *)
let fork_src =
  {|
int fresh[4096];
int main() {
  int pid = fork();
  if (pid == 0) { print_int(41); exit(3); }
  int i = 0;
  while (i < 4096) { fresh[i] = i; i = i + 512; }
  int st = wait();
  print_int(st + fresh[512]);
  print_char('\n');
  return 0;
}
|}

let fork_exe () = compile ~scheme:Pass.Icall fork_src

(* Step one instruction at a time from [from] until [cond] holds;
   returns the instret reached. *)
let step_until ~from kernel process cond =
  let rec step n =
    ignore (run_to n kernel process);
    if cond () then n
    else if Int64.compare n budget < 0 then step (Int64.succ n)
    else Alcotest.fail "condition never reached"
  in
  step from

let child_forked kernel () =
  match Kernel.task_statuses kernel with [ _; (_, Process.Running) ] -> true | _ -> false

let boot_to_fork () =
  let machine, kernel, process = boot (fork_exe ()) in
  let forked_at = step_until ~from:1L kernel process (child_forked kernel) in
  (machine, kernel, process, forked_at)

let test_forking_roundtrip () =
  let _, _, _, forked_at = boot_to_fork () in
  (* the last pause at which the root is still the only task *)
  let pause = Int64.pred forked_at in
  List.iter (fun engine -> check_roundtrip (fork_src, Pass.Icall, engine, pause)) all_engines

let check_core ctx a b =
  match Metrics.core_diff a b with
  | None -> ()
  | Some (field, x, y) -> Alcotest.failf "%s: %s differs (%s, expected %s)" ctx field y x

(* With the child alive the table holds two live tasks.  A capture
   there forks and replays on the parent exactly, and forks again after
   the parent ran on: every task's process and TLBs are in the
   image. *)
let test_two_live_tasks_roundtrip () =
  List.iter
    (fun engine ->
      let exe = fork_exe () in
      let m0, k0, p0 = boot ~engine exe in
      let reference = outcome_str (run_to budget k0 p0) in
      let met0 = metrics ~machine:m0 ~kernel:k0 ~process:p0 in
      let machine, kernel, process = boot ~engine exe in
      ignore (step_until ~from:1L kernel process (child_forked kernel));
      let snap = Snapshot.capture ~machine ~kernel ~process in
      let check what (machine, kernel, process) =
        let ctx = Printf.sprintf "%s: two live tasks, %s" (Machine.engine_name engine) what in
        Alcotest.(check string) (ctx ^ " replay") reference
          (outcome_str (run_to budget kernel process));
        check_core ctx met0 (metrics ~machine ~kernel ~process);
        Alcotest.(check string) (ctx ^ " console") (Kernel.console k0) (Kernel.console kernel)
      in
      check "fork" (Snapshot.fork snap);
      check "parent" (machine, kernel, process);
      check "fork after the parent ran" (Snapshot.fork snap))
    all_engines

(* ---------- the serving ladder ---------- *)

(* The supervised 4-worker server the server campaign strikes, with a
   quantum small enough that pauses land inside slices. *)
let server_exe =
  lazy
    (compile ~scheme:Pass.Icall
       (Roload_workloads.Server_like.source_workers ~workers:4 ~scale:1))

let server_time_slice = 1_000
let server_limit = { Kernel.max_instructions = 2_000_000_000L }

let boot_server engine =
  System.boot_server ~engine ~shards:1
    ~supervision:{ Kernel.max_restarts = 3; deadline_cycles = 5_000_000L }
    ~variant:System.Processor_kernel_modified
    ~requests:(Roload_workloads.Server_like.requests ~seed:1L ~count:400)
    (Lazy.force server_exe)

let serve ?pause_at_handout (_, kernel, _) =
  Kernel.run_all ~limit:server_limit ~time_slice:server_time_slice ?pause_at_handout kernel

(* What a finished server run is judged by. *)
type served = {
  outcome : string;
  core : Metrics.t;
  console : string;
  records : Kernel.request_record array;
  checksum : int64;
  restarts : int;
  statuses : (int * Process.status) list;
}

let finish ((machine, kernel, process) as system) =
  let outcome = outcome_str (serve system) in
  {
    outcome;
    core = metrics ~machine ~kernel ~process;
    console = Kernel.console kernel;
    records = Kernel.request_records kernel;
    checksum = Kernel.server_checksum kernel;
    restarts = Kernel.restarts_total kernel;
    statuses = Kernel.task_statuses kernel;
  }

let check_served ctx expected got =
  Alcotest.(check string) (ctx ^ ": root outcome") expected.outcome got.outcome;
  check_core ctx expected.core got.core;
  Alcotest.(check string) (ctx ^ ": console") expected.console got.console;
  Alcotest.(check bool) (ctx ^ ": request records") true (expected.records = got.records);
  Alcotest.(check int64) (ctx ^ ": server checksum") expected.checksum got.checksum;
  Alcotest.(check int) (ctx ^ ": restarts") expected.restarts got.restarts;
  Alcotest.(check bool) (ctx ^ ": task statuses") true (expected.statuses = got.statuses)

let handouts kernel =
  Array.fold_left
    (fun n (r : Kernel.request_record) -> n + r.Kernel.rr_handouts)
    0 (Kernel.request_records kernel)

(* A server paused at hand-out [k], captured there. *)
let pause_server system k =
  let machine, kernel, process = system in
  ignore (serve ~pause_at_handout:k system);
  Alcotest.(check int) (Printf.sprintf "paused at hand-out %d" k) k (handouts kernel);
  Snapshot.capture ~machine ~kernel ~process

(* One serving ladder with rungs at hand-outs 1, 100, 250 and 399: the
   parent served on from the last rung, and two forks of each rung taken
   after it, all end exactly as an uninterrupted run does. *)
let test_server_ladder () =
  List.iter
    (fun engine ->
      let reference = finish (boot_server engine) in
      let parent = boot_server engine in
      let rungs = List.map (fun k -> (k, pause_server parent k)) [ 1; 100; 250; 399 ] in
      let ctx = Machine.engine_name engine in
      check_served (ctx ^ ": parent served on") reference (finish parent);
      List.iter
        (fun (k, snap) ->
          let ctx = Printf.sprintf "%s: rung %d" ctx k in
          check_served (ctx ^ ", fork") reference (finish (Snapshot.fork snap));
          check_served (ctx ^ ", second fork") reference (finish (Snapshot.fork snap)))
        rungs)
    all_engines

let kill_a_worker (_, kernel, _) =
  match Kernel.worker_pids kernel with
  | pid :: _ ->
    Alcotest.(check bool) "a worker was killed" true
      (Kernel.kill_task kernel ~pid ~info:"chaos")
  | [] -> Alcotest.fail "no worker to kill"

(* A worker killed in one fork is reincarnated there and nowhere else:
   a sibling fork ends exactly as an uninterrupted run does, and so does
   a fork taken after the same kill put a new incarnation in the
   parent's table. *)
let test_server_fork_isolation () =
  let reference = finish (boot_server Machine.Traced) in
  let parent = boot_server Machine.Traced in
  let snap = pause_server parent 100 in
  let struck = Snapshot.fork snap and sibling = Snapshot.fork snap in
  kill_a_worker struck;
  Alcotest.(check int) "the struck fork restarted its worker" 1 (finish struck).restarts;
  check_served "sibling of a struck fork" reference (finish sibling);
  kill_a_worker parent;
  Alcotest.(check int) "the struck parent restarted its worker" 1 (finish parent).restarts;
  check_served "fork after a strike in the parent" reference (finish (Snapshot.fork snap))

(* ---------- diff localization ---------- *)

let victim_exe scheme = compile ~scheme Roload_security.Victim.source

let test_diff_localization () =
  let exe = victim_exe Pass.Vcall in
  let machine, kernel, process = boot exe in
  ignore (run_to 2_000L kernel process);
  let snap = Snapshot.capture ~machine ~kernel ~process in
  let am, _ak, _ap = Snapshot.fork snap in
  let bm, _bk, _bp = Snapshot.fork snap in
  (* untouched twins diff empty *)
  let im_a () = Phys_mem.snapshot (Machine.mem am) in
  let im_b () = Phys_mem.snapshot (Machine.mem bm) in
  Alcotest.(check int) "twin forks diff empty" 0
    (List.length (Phys_mem.diff_images (im_a ()) (im_b ())));
  (* plant a single backdoor bit flip in fork A: bit 11 of the word at
     0x5008 flips byte 0x5009 (bit 3 of it) *)
  let addr = 0x5008 and bit = 11 in
  Phys_mem.flip_bit (Machine.mem am) ~addr ~bit;
  (match Phys_mem.diff_images (im_b ()) (im_a ()) with
  | [ d ] ->
    Alcotest.(check int) "tampered page" (addr lsr Phys_mem.page_shift) d.Phys_mem.page;
    Alcotest.(check int) "first differing byte" (addr + (bit / 8)) d.Phys_mem.addr;
    Alcotest.(check bool) "bytes really differ" true
      (d.Phys_mem.a_byte <> d.Phys_mem.b_byte)
  | ds -> Alcotest.failf "expected exactly one differing page, got %d" (List.length ds));
  (* the tampered fork no longer matches the snapshot either, at the same spot *)
  (match Phys_mem.diff_images (Snapshot.mem_image snap) (im_a ()) with
  | [ d ] ->
    Alcotest.(check int) "tampered page vs snapshot" (addr lsr Phys_mem.page_shift)
      d.Phys_mem.page
  | ds ->
    Alcotest.failf "expected exactly one page vs snapshot, got %d" (List.length ds));
  (* fork B stayed clean against the snapshot *)
  Alcotest.(check int) "clean twin still diffs empty vs snapshot" 0
    (List.length (Phys_mem.diff_images (Snapshot.mem_image snap) (im_b ())))

(* ---------- images outlive their parent ---------- *)

(* Snapshot at two different frontiers of one run, run the parent to its
   end, then hop between the frontiers by forking: every fork reaches
   the parent's end, and an image survives any number of uses. *)
let test_snapshot_ladder () =
  let exe = victim_exe Pass.Icall in
  let machine, kernel, process = boot exe in
  ignore (run_to 1_000L kernel process);
  let early = Snapshot.capture ~machine ~kernel ~process in
  ignore (run_to 3_000L kernel process);
  let late = Snapshot.capture ~machine ~kernel ~process in
  let parent_end = outcome_str (run_to budget kernel process) in
  let finish snap =
    let _, fk, fp = Snapshot.fork snap in
    outcome_str (run_to budget fk fp)
  in
  List.iteri
    (fun i (what, snap) ->
      Alcotest.(check string) (Printf.sprintf "%s image, use %d" what i) parent_end (finish snap))
    [ ("early", early); ("late", late); ("early", early); ("late", late) ]

(* ---------- the ladder's chaos victim ---------- *)

(* The ICall chaos victim paused mid-run (it exits at about 3,900
   instructions), as a campaign's snapshot ladder holds it. *)
let paused_chaos_victim () =
  let exe = Roload_inject.Campaign.compile_victim Pass.Icall in
  let machine, kernel, process = boot ~engine:Machine.Traced exe in
  let paused = run_to 1_500L kernel process in
  Alcotest.(check bool) "victim paused mid-run" true
    (paused.Kernel.status = Process.Running);
  (machine, kernel, process)

(* The random programs of the round-trip property often end before
   their pause; this twin run is guaranteed to decode new code. *)
let test_victim_fork_isolation () =
  let machine, kernel, process = paused_chaos_victim () in
  let snap = Snapshot.capture ~machine ~kernel ~process in
  let fresh = code_state (let m, _, _ = Snapshot.fork snap in m) in
  check_fork_isolation ~ctx:"chaos victim" ~fresh snap

(* At hot threshold 1 the paused victim already holds compiled traces.
   A fork copies them with the image, so it compiles no more than the
   parent that ran on: every metric ends equal, trace counters
   included. *)
let test_victim_fork_keeps_traces () =
  Test_engine.with_hot_threshold 1 (fun () ->
      let machine, kernel, process = paused_chaos_victim () in
      Alcotest.(check bool) "traces compiled before the pause" true
        (Machine.traces_compiled machine > 0);
      let snap = Snapshot.capture ~machine ~kernel ~process in
      let final = run_to budget kernel process in
      check_fork_exact ~ctx:"chaos victim" snap
        (final, metrics ~machine ~kernel ~process, Kernel.console kernel))

(* Host words allocated so far, minor and direct major alike; each call
   first empties the minor heap, so a difference of two calls is exact. *)
let words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Host words one capture plus one fork allocate: the deterministic
   proxy for what a campaign cell pays to leave the snapshot ladder.
   Images cost what the machine holds (touched pages, memoized decodes,
   a flat cache tag store), not what its tables could hold. *)
let test_image_allocation () =
  let machine, kernel, process = paused_chaos_victim () in
  (* settle the major GC first: a cycle that ends inside the measured
     region charges it several thousand words of the runtime's own *)
  Gc.full_major ();
  let before = words () in
  let snap = Snapshot.capture ~machine ~kernel ~process in
  let forked = Snapshot.fork snap in
  let used = words () -. before in
  ignore (Sys.opaque_identity forked);
  if used > 12_000. then
    Alcotest.failf "capture + fork allocated %.0f words (gate: 12000)" used

(* The same gate for the paused server: one capture plus one fork of
   all five tasks (the root and four supervised workers with their birth
   certificates) and the request device.  Measured at 25,631 words; the
   gate leaves 9 % over that. *)
let test_server_image_allocation () =
  let ((machine, kernel, process) as parent) = boot_server Machine.Traced in
  ignore (serve ~pause_at_handout:100 parent);
  Gc.full_major ();
  let before = words () in
  let snap = Snapshot.capture ~machine ~kernel ~process in
  let forked = Snapshot.fork snap in
  let used = words () -. before in
  ignore (Sys.opaque_identity forked);
  if used > 28_000. then
    Alcotest.failf "server capture + fork allocated %.0f words (gate: 28000)" used

(* At the default hot threshold the victim's loop is compiled by the
   pause, so a fork of the ladder snapshot inherits warm traces: most of
   what it retires runs in them, and it compiles little or nothing of
   its own.  A threshold that equals the loop count would compile the
   loop's traces on its last iteration and enter none. *)
let test_victim_fork_runs_warm () =
  let machine, kernel, process = paused_chaos_victim () in
  let snap = Snapshot.capture ~machine ~kernel ~process in
  let fm, fk, fp = Snapshot.fork snap in
  let retires0 = Machine.trace_retires fm in
  let instret0 = Roload_machine.Cpu.instret (Machine.cpu fm) in
  Gc.full_major ();
  let before = words () in
  let final = run_to budget fk fp in
  let used = words () -. before in
  Alcotest.(check bool) "fork ran to its end" true (final.Kernel.status = Process.Exited 0);
  let retired = Roload_machine.Cpu.instret (Machine.cpu fm) - instret0 in
  let in_traces = Machine.trace_retires fm - retires0 in
  if 2 * in_traces <= retired then
    Alcotest.failf "fork ran %d of %d instructions in traces (need more than half)"
      in_traces retired;
  if used > 12_000. then
    Alcotest.failf "running the fork allocated %.0f words (gate: 12000)" used

let suite =
  [
    Seeded.to_alcotest prop_snapshot_roundtrip;
    Alcotest.test_case "capture + fork allocation gate" `Quick test_image_allocation;
    Alcotest.test_case "paused victim: forks share no cache or code table" `Quick
      test_victim_fork_isolation;
    Alcotest.test_case "diff localizes a planted bit flip" `Quick test_diff_localization;
    Alcotest.test_case "snapshot ladder: hop between frontiers" `Quick
      test_snapshot_ladder;
    Alcotest.test_case "one-task snapshot replays a later fork" `Quick
      test_forking_roundtrip;
    Alcotest.test_case "two live tasks round-trip through a snapshot" `Quick
      test_two_live_tasks_roundtrip;
    Alcotest.test_case "paused victim: a fork runs the parent's traces" `Quick
      test_victim_fork_keeps_traces;
    Alcotest.test_case "paused victim: a fork at the default threshold runs warm" `Quick
      test_victim_fork_runs_warm;
    Alcotest.test_case "serving ladder: forks are exact" `Quick
      test_server_ladder;
    Alcotest.test_case "serving ladder: a strike in one fork stays there" `Quick
      test_server_fork_isolation;
    Alcotest.test_case "serving ladder: capture + fork allocation gate" `Quick
      test_server_image_allocation;
  ]
