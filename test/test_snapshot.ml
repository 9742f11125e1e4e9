(* Snapshot correctness: the differential-state test harness for the
   copy-on-write machine snapshots.

   The contract under test, on every scheme and every engine:

   - restore-exactness: run N instructions, snapshot, run to completion,
     restore, run to completion again — both runs match an uninterrupted
     one, and the second is byte-identical to the first (status, output,
     instret, cycles, and the {e full} metrics snapshot, caches/TLBs/
     trace counters included), also when the program forks after the
     snapshot;

   - a kernel with a live task besides the root cannot be captured;

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

(* ---------- restore-exactness + fork-isolation property ---------- *)

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

let check_restore_exact ~ctx (src, scheme, engine, pause) =
  let exe = compile ~scheme src in
  let uninterrupted, console =
    let _, kernel, process = boot ~engine exe in
    let o = run_to budget kernel process in
    (o, Kernel.console kernel)
  in
  let machine, kernel, process = boot ~engine exe in
  ignore (run_to pause kernel process);
  let snap = Snapshot.capture ~machine ~kernel ~process in
  let final1 = run_to budget kernel process in
  let met1 = metrics ~machine ~kernel ~process in
  Alcotest.(check string)
    (ctx ^ ": paused run matches an uninterrupted one")
    (outcome_str uninterrupted) (outcome_str final1);
  Snapshot.restore snap ~machine ~kernel ~process;
  let final2 = run_to budget kernel process in
  let met2 = metrics ~machine ~kernel ~process in
  Alcotest.(check string)
    (ctx ^ ": replay after restore is identical")
    (outcome_str final1) (outcome_str final2);
  Alcotest.(check string)
    (ctx ^ ": full metrics identical after restore")
    (Metrics.to_json met1) (Metrics.to_json met2);
  Alcotest.(check string) (ctx ^ ": console replays after restore") console
    (Kernel.console kernel);
  (final1, met1, snap)

let check_fork_exact ~ctx snap (final1 : Kernel.run_outcome) (met1 : Metrics.t) =
  let fm, fk, fp = Snapshot.fork snap in
  let ffinal = run_to budget fk fp in
  let fmet = metrics ~machine:fm ~kernel:fk ~process:fp in
  Alcotest.(check string)
    (ctx ^ ": fork replays the captured run")
    (outcome_str final1) (outcome_str ffinal);
  (* trace counters may legitimately differ (forks drop parent-bound
     compiled traces and re-earn them), so forks are compared on
     architectural equality *)
  Alcotest.(check bool)
    (ctx ^ ": fork metrics architecturally identical")
    true
    (Metrics.core_equal met1 fmet)

let check_fork_isolation ~ctx snap =
  (* twin forks: run one to completion, the other must still hold the
     captured memory bit-for-bit (CoW pages never leak between forks) *)
  let am, ak, ap = Snapshot.fork snap in
  let bm, _bk, _bp = Snapshot.fork snap in
  ignore (run_to budget ak ap);
  ignore am;
  let untouched = Phys_mem.snapshot (Machine.mem bm) in
  Alcotest.(check int)
    (ctx ^ ": sibling fork unperturbed by a completed twin")
    0
    (List.length (Phys_mem.diff_images (Snapshot.mem_image snap) untouched))

let check_roundtrip ((_, scheme, engine, _) as case) =
  let ctx = Printf.sprintf "%s/%s" (Pass.scheme_name scheme) (Machine.engine_name engine) in
  Test_engine.with_hot_threshold 1 (fun () ->
      let final1, met1, snap = check_restore_exact ~ctx case in
      check_fork_exact ~ctx snap final1 met1;
      check_fork_isolation ~ctx snap)

let prop_snapshot_roundtrip =
  QCheck.Test.make ~count:12
    ~name:"snapshot/restore/fork: byte-identical replay on all schemes x engines"
    arb_case
    (fun case ->
      check_roundtrip case;
      true)

(* A one-task snapshot taken before the program forks: restore and fork
   must drop the child created after the capture and replay the
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

(* The child has printed but not exited, so it holds the CPU. *)
let child_on_cpu kernel () =
  match Kernel.task_process kernel 2 with
  | Some p -> Process.output p <> "" && Process.status p = Process.Running
  | None -> false

let boot_to_fork () =
  let machine, kernel, process = boot (fork_exe ()) in
  let forked_at = step_until ~from:1L kernel process (child_forked kernel) in
  (machine, kernel, process, forked_at)

let test_forking_roundtrip () =
  let _, _, _, forked_at = boot_to_fork () in
  (* the last pause at which the root is still the only task *)
  let pause = Int64.pred forked_at in
  List.iter (fun engine -> check_roundtrip (fork_src, Pass.Icall, engine, pause)) all_engines;
  (* restoring while the child holds the CPU must reinstall the root's
     address space and trace table *)
  List.iter
    (fun engine ->
      Test_engine.with_hot_threshold 1 (fun () ->
          let exe = fork_exe () in
          let m0, k0, p0 = boot ~engine exe in
          let uninterrupted = outcome_str (run_to budget k0 p0) in
          let met0 = metrics ~machine:m0 ~kernel:k0 ~process:p0 in
          let machine, kernel, process = boot ~engine exe in
          ignore (run_to pause kernel process);
          let snap = Snapshot.capture ~machine ~kernel ~process in
          ignore (step_until ~from:pause kernel process (child_on_cpu kernel));
          Snapshot.restore snap ~machine ~kernel ~process;
          let ctx = Machine.engine_name engine ^ ": restored mid-child" in
          Alcotest.(check string) (ctx ^ " replay") uninterrupted
            (outcome_str (run_to budget kernel process));
          Alcotest.(check bool) (ctx ^ " metrics architecturally identical") true
            (Metrics.core_equal met0 (metrics ~machine ~kernel ~process))))
    all_engines

(* With the child alive the table holds two live tasks: refused. *)
let test_two_live_tasks_rejected () =
  let machine, kernel, process, _ = boot_to_fork () in
  match Snapshot.capture ~machine ~kernel ~process with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "snapshot of a kernel with two live tasks must be refused"

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

(* ---------- restore composes with the in-place machine ---------- *)

(* Snapshot at two different frontiers of one run and hop between them:
   restores are repeatable and an image survives any number of uses. *)
let test_snapshot_ladder () =
  let exe = victim_exe Pass.Icall in
  let machine, kernel, process = boot exe in
  ignore (run_to 1_000L kernel process);
  let early = Snapshot.capture ~machine ~kernel ~process in
  ignore (run_to 3_000L kernel process);
  let late = Snapshot.capture ~machine ~kernel ~process in
  let finish () = outcome_str (run_to budget kernel process) in
  let from_late = finish () in
  Snapshot.restore early ~machine ~kernel ~process;
  let from_early = finish () in
  Snapshot.restore late ~machine ~kernel ~process;
  let from_late2 = finish () in
  Snapshot.restore early ~machine ~kernel ~process;
  let from_early2 = finish () in
  Alcotest.(check string) "late image replays" from_late from_late2;
  Alcotest.(check string) "early image replays" from_early from_early2;
  Alcotest.(check string) "both frontiers reach the same end" from_late from_early

let suite =
  [
    Seeded.to_alcotest prop_snapshot_roundtrip;
    Alcotest.test_case "diff localizes a planted bit flip" `Quick test_diff_localization;
    Alcotest.test_case "snapshot ladder: hop between frontiers" `Quick
      test_snapshot_ladder;
    Alcotest.test_case "one-task snapshot replays a later fork" `Quick
      test_forking_roundtrip;
    Alcotest.test_case "two live tasks cannot be snapshot" `Quick
      test_two_live_tasks_rejected;
  ]
