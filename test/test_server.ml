(* Multi-process kernel tests: fork/wait/exit semantics, the request
   device, and the scheduler-determinism contract — the same program and
   request stream must produce byte-identical results across execution
   engines and time slices, and the server checksum must be identical
   across hardening schemes even though the request partition differs. *)

module Kernel = Roload_kernel.Kernel
module Process = Roload_kernel.Process
module Machine = Roload_machine.Machine
module Config = Roload_machine.Config
module Pass = Roload_passes.Pass
module Server = Roload_workloads.Server_like
module System = Core.System
module Toolchain = Core.Toolchain

let compile ?(scheme = Pass.Unprotected) ~name src =
  let options = { Toolchain.default_options with scheme } in
  Toolchain.compile_exe ~options ~name src

let serve ?time_slice ?engine ?shards ?supervision ?configure
    ?(scheme = Pass.Unprotected) ~requests src =
  let exe = compile ~scheme ~name:"mp" src in
  System.run_server ?time_slice ?engine ?shards ?supervision ?configure
    ~variant:System.Processor_kernel_modified ~requests exe

(* force immediate trace compilation inside [f], restoring afterwards *)
let with_hot_threshold n f =
  let prev = Machine.default_hot_threshold () in
  Machine.set_default_hot_threshold n;
  Fun.protect ~finally:(fun () -> Machine.set_default_hot_threshold prev) f

let all_exited statuses =
  List.for_all
    (fun (_pid, st) -> match st with Process.Exited _ -> true | _ -> false)
    statuses

(* ---- fork/wait basics ---- *)

let fork_wait_src =
  {|
int main() {
  int pid = fork();
  if (pid == 0) { exit(7); }
  int st = wait();
  print_int(st);
  print_char('\n');
  return 0;
}
|}

let test_fork_wait () =
  let m, stats = serve ~requests:[||] fork_wait_src in
  Alcotest.(check string) "parent reaps the child's status" "7\n" stats.System.console;
  Alcotest.(check string) "root exits cleanly" "exit 0" (System.status_string m);
  Alcotest.(check int) "two tasks ran" 2 (List.length stats.System.task_statuses);
  Alcotest.(check bool) "all tasks exited" true (all_exited stats.System.task_statuses)

let wait_no_children_src =
  {|
int main() {
  int r = wait();
  print_int(r);
  print_char('\n');
  return 0;
}
|}

let test_wait_echild () =
  let _m, stats = serve ~requests:[||] wait_no_children_src in
  Alcotest.(check string) "wait with no children returns ECHILD" "-10\n"
    stats.System.console

(* fan-out: every child gets a distinct pid and its own address space;
   the parent's counter is unaffected by child increments *)
let fork_isolation_src =
  {|
int counter;

int main() {
  counter = 100;
  int pid1 = fork();
  if (pid1 == 0) { counter = counter + 1; exit(counter % 256); }
  int pid2 = fork();
  if (pid2 == 0) { counter = counter + 2; exit(counter % 256); }
  int a = wait();
  int b = wait();
  print_int(a + b);
  print_char('\n');
  print_int(counter);
  print_char('\n');
  return 0;
}
|}

let test_fork_isolation () =
  let _m, stats = serve ~requests:[||] fork_isolation_src in
  (* children exit 101 and 102 (reap order independent of schedule
     because we sum); the parent's copy stays 100 *)
  Alcotest.(check string) "copied address spaces diverge independently" "203\n100\n"
    stats.System.console

(* ---- the request device ---- *)

let drain_src =
  {|
int main() {
  int r = read_request();
  while (r >= 0) {
    print_int(r);
    print_char('\n');
    r = read_request();
  }
  return 0;
}
|}

let test_request_drain () =
  let m, stats = serve ~requests:[| 5; 6; 7 |] drain_src in
  Alcotest.(check string) "payloads arrive in order" "5\n6\n7\n" stats.System.console;
  Alcotest.(check int) "all requests served" 3 stats.System.served;
  Alcotest.(check int) "every latency recorded" 3 (Array.length stats.System.latencies);
  Array.iter
    (fun l -> Alcotest.(check bool) "latency positive" true (l > 0L))
    stats.System.latencies;
  Alcotest.(check string) "clean exit" "exit 0" (System.status_string m)

(* ---- wait semantics regressions ---- *)

(* Three children exit (and become zombies) while the parent burns a
   delay loop; the parent's waits must then reap them in pid order, and
   a fourth wait must return ECHILD.  Guards the reap path against the
   supervision rework: reincarnation must never resurrect a zombie, and
   externally-killed tasks must still reach the zombie state the parent
   reaps. *)
let multi_zombie_src =
  {|
int main() {
  int i = 0;
  int pid = 1;
  while (i < 3 && pid != 0) {
    pid = fork();
    i = i + 1;
  }
  if (pid == 0) { exit(40 + i); }
  int d = 0;
  int j = 0;
  while (j < 100000) { d = (d + j) % 97; j = j + 1; }
  if (d < 0) { exit(1); }
  print_int(wait());
  print_char('\n');
  print_int(wait());
  print_char('\n');
  print_int(wait());
  print_char('\n');
  print_int(wait());
  print_char('\n');
  return 0;
}
|}

let test_multi_zombie_reap_order () =
  let m, stats = serve ~requests:[||] multi_zombie_src in
  Alcotest.(check string)
    "zombies reaped in pid order, then ECHILD" "41\n42\n43\n-10\n"
    stats.System.console;
  Alcotest.(check string) "root exits cleanly" "exit 0" (System.status_string m);
  Alcotest.(check bool) "all tasks exited" true (all_exited stats.System.task_statuses)

(* ---- supervision: restart, redelivery, deadline ---- *)

(* two workers acking every request explicitly; the root prints the
   kernel-side checksum, which survives worker kills *)
let supervised_src =
  {|
int main() {
  int i = 0;
  int pid = 1;
  while (i < 2 && pid != 0) {
    pid = fork();
    i = i + 1;
  }
  if (pid == 0) {
    int r = read_request();
    while (r >= 0) {
      int k = 0;
      int acc = r;
      while (k < 2000) { acc = (acc * 31 + k) % 1000003; k = k + 1; }
      int ok = complete_request(acc);
      if (ok < 0) { exit(90); }
      r = read_request();
    }
    exit(0);
  }
  i = 0;
  while (i < 2) {
    int st = wait();
    if (st < -100) { exit(1); }
    i = i + 1;
  }
  print_int(server_checksum());
  print_char('\n');
  return 0;
}
|}

let supervision ?(max_restarts = 2) ?(deadline_cycles = 0L) () =
  { Kernel.max_restarts; Kernel.deadline_cycles }

let test_supervised_restart_redelivers () =
  let requests = [| 3; 1; 4; 1; 5; 9; 2; 6 |] in
  let _, clean = serve ~supervision:(supervision ()) ~requests supervised_src in
  Alcotest.(check int) "baseline needs no restart" 0 clean.System.restarts;
  let killed = ref false in
  let configure kernel =
    (* kill a worker that holds an in-flight request (never the hook's
       caller, whose previous request was just implicitly acked) — its
       death must force a redelivery *)
    Kernel.set_request_hook kernel ~at:4 (fun k ->
        match
          List.find_opt (fun pid -> Kernel.task_inflight k pid >= 0) (Kernel.worker_pids k)
        with
        | Some pid -> killed := Kernel.kill_task k ~pid ~info:"chaos"
        | None -> ())
  in
  let m, stats =
    serve ~supervision:(supervision ()) ~configure ~requests supervised_src
  in
  Alcotest.(check bool) "the chaos kill landed" true !killed;
  Alcotest.(check string) "root exits cleanly" "exit 0" (System.status_string m);
  Alcotest.(check int) "exactly one supervised restart" 1 stats.System.restarts;
  Alcotest.(check int) "every request served" (Array.length requests)
    stats.System.served;
  Alcotest.(check string) "checksum identical to the clean run"
    clean.System.console stats.System.console;
  let redelivered =
    Array.fold_left
      (fun acc (rr : Kernel.request_record) -> acc + rr.Kernel.rr_redeliveries)
      0 stats.System.records
  in
  Alcotest.(check bool) "the in-flight request was redelivered" true (redelivered >= 1);
  Alcotest.(check bool) "all tasks exited" true (all_exited stats.System.task_statuses)

(* restart budget: a worker that dies on every delivery of one poisoned
   request is reincarnated exactly max_restarts times, then reaped as a
   normal zombie — the request stays lost and everything else is served *)
let hang_on_seven_src =
  {|
int main() {
  int pid = fork();
  if (pid == 0) {
    int r = read_request();
    while (r >= 0) {
      if (r == 7) {
        while (0 < 1) { r = r + 0; }
      }
      int ok = complete_request(r + 100);
      if (ok < 0) { exit(90); }
      r = read_request();
    }
    exit(0);
  }
  int st = wait();
  if (st < -100) { exit(1); }
  print_int(server_checksum());
  print_char('\n');
  return 0;
}
|}

let test_deadline_watchdog_bounded_restarts () =
  let requests = [| 5; 7; 6 |] in
  let m, stats =
    serve
      ~supervision:(supervision ~max_restarts:1 ~deadline_cycles:300_000L ())
      ~requests hang_on_seven_src
  in
  (* served: 105 and 106 commit; the poisoned 7 hangs its worker, the
     deadline watchdog kills it, the supervisor restarts it once, the
     redelivered 7 hangs again and the budget is spent *)
  Alcotest.(check string) "checksum of the two served requests" "211\n"
    stats.System.console;
  Alcotest.(check string) "root exits cleanly" "exit 0" (System.status_string m);
  Alcotest.(check int) "two of three served" 2 stats.System.served;
  Alcotest.(check int) "exactly one restart" 1 stats.System.restarts;
  let poisoned = stats.System.records.(1) in
  Alcotest.(check bool) "poisoned request never committed" true
    (poisoned.Kernel.rr_result = None);
  (* requeued on both deaths: once into the restarted worker's hands,
     once more when the budget-spent worker dies for good *)
  Alcotest.(check int) "poisoned request was redelivered twice" 2
    poisoned.Kernel.rr_redeliveries;
  (* the budget-spent worker's last incarnation died by the watchdog's
     signal; everything else exited *)
  let killed, exited =
    List.partition
      (fun (_pid, st) -> match st with Process.Killed _ -> true | _ -> false)
      stats.System.task_statuses
  in
  Alcotest.(check int) "one task died by signal" 1 (List.length killed);
  Alcotest.(check bool) "the rest exited" true (all_exited exited)

(* ---- scheduler determinism: engines and time slices ---- *)

let small_requests = Server.requests ~seed:42L ~count:400

let server_exe scheme =
  compile ~scheme ~name:"server" (Server.source ~scale:1)

let run_server_on ?time_slice ~engine exe =
  System.run_server ?time_slice ~engine ~variant:System.Processor_kernel_modified
    ~requests:small_requests exe

(* same interleaving => byte-identical measurement across both engines
   (the scheduler's determinism contract) *)
let test_engine_determinism () =
  let exe = server_exe Pass.Vcall in
  let single_m, single_s = run_server_on ~engine:Machine.Single_step exe in
  let traced_m, traced_s =
    with_hot_threshold 1 (fun () -> run_server_on ~engine:Machine.Traced exe)
  in
  let check_same ctx (a : System.measurement) (sa : System.server_stats)
      (b : System.measurement) (sb : System.server_stats) =
    Alcotest.(check string) (ctx ^ ": console") sa.System.console sb.System.console;
    Alcotest.(check int64) (ctx ^ ": cycles") a.System.cycles b.System.cycles;
    Alcotest.(check int64) (ctx ^ ": instructions") a.System.instructions
      b.System.instructions;
    Alcotest.(check int) (ctx ^ ": served") sa.System.served sb.System.served;
    Alcotest.(check (array int64))
      (ctx ^ ": latencies") sa.System.latencies sb.System.latencies
  in
  check_same "traced-vs-single" traced_m traced_s single_m single_s;
  Alcotest.(check int) "all requests served" (Array.length small_requests)
    single_s.System.served;
  Alcotest.(check bool) "all tasks exited" true (all_exited single_s.System.task_statuses)

(* a different time slice changes the interleaving, but the printed
   checksum is partition-independent by construction *)
let test_time_slice_invariance () =
  let exe = server_exe Pass.Unprotected in
  let _, s1 = run_server_on ~time_slice:5_000 ~engine:Machine.Traced exe in
  let _, s2 = run_server_on ~time_slice:20_000 ~engine:Machine.Traced exe in
  let _, s3 = run_server_on ~time_slice:50_000 ~engine:Machine.Traced exe in
  Alcotest.(check string) "5k vs 20k slice" s1.System.console s2.System.console;
  Alcotest.(check string) "20k vs 50k slice" s2.System.console s3.System.console;
  Alcotest.(check int) "served under 5k slice" (Array.length small_requests)
    s1.System.served

(* the checksum is also scheme-independent, even though each scheme's
   instruction stream (and hence request partition) differs *)
let test_scheme_invariance () =
  let run scheme =
    let _, s = run_server_on ~engine:Machine.Traced (server_exe scheme) in
    Alcotest.(check bool)
      (Pass.scheme_name scheme ^ ": all tasks exited")
      true
      (all_exited s.System.task_statuses);
    s.System.console
  in
  let stock = run Pass.Unprotected in
  Alcotest.(check string) "VCall checksum" stock (run Pass.Vcall);
  Alcotest.(check string) "ICall checksum" stock (run Pass.Icall)

(* ---- qcheck: the payload-multiset checksum is invariant under any
   seeded single-worker kill, on both engines ---- *)

let kill_requests = Server.requests ~seed:7L ~count:120
let kill_supervision = { Kernel.max_restarts = 2; Kernel.deadline_cycles = 0L }

let serve_with_kill ~engine ?at_slot exe =
  let configure =
    Option.map
      (fun (at, slot) kernel ->
        Kernel.set_request_hook kernel ~at (fun k ->
            match Kernel.worker_pids k with
            | [] -> ()
            | pids ->
              let pid = List.nth pids (slot mod List.length pids) in
              ignore (Kernel.kill_task k ~pid ~info:"chaos")))
      at_slot
  in
  System.run_server ~engine ?configure ~supervision:kill_supervision
    ~variant:System.Processor_kernel_modified ~requests:kill_requests exe

let prop_checksum_under_kill =
  let exe = server_exe Pass.Unprotected in
  let baseline =
    let _, s = serve_with_kill ~engine:Machine.Traced exe in
    s.System.console
  in
  QCheck.Test.make ~count:8
    ~name:"checksum invariant under any seeded worker kill, all engines"
    QCheck.(pair (int_range 5 100) (int_range 0 7))
    (fun (at, slot) ->
      List.for_all
        (fun engine ->
          let run () = serve_with_kill ~engine ~at_slot:(at, slot) exe in
          let _, s =
            if engine = Machine.Traced then with_hot_threshold 1 run else run ()
          in
          String.equal s.System.console baseline
          && s.System.served = Array.length kill_requests
          && all_exited s.System.task_statuses)
        [ Machine.Single_step; Machine.Traced ])

let suite =
  [
    Alcotest.test_case "fork/wait round trip" `Quick test_fork_wait;
    Alcotest.test_case "wait with no children => ECHILD" `Quick test_wait_echild;
    Alcotest.test_case "fork isolates address spaces" `Quick test_fork_isolation;
    Alcotest.test_case "request device drains in order" `Quick test_request_drain;
    Alcotest.test_case "wait reaps multiple zombies in pid order" `Quick
      test_multi_zombie_reap_order;
    Alcotest.test_case "supervised restart redelivers the in-flight request" `Quick
      test_supervised_restart_redelivers;
    Alcotest.test_case "deadline watchdog with bounded restarts" `Quick
      test_deadline_watchdog_bounded_restarts;
    Seeded.to_alcotest prop_checksum_under_kill;
    Alcotest.test_case "server identical across engines" `Slow test_engine_determinism;
    Alcotest.test_case "checksum invariant under time slice" `Slow
      test_time_slice_invariance;
    Alcotest.test_case "checksum invariant across schemes" `Slow test_scheme_invariance;
  ]
