(* Kernel tests: loader key application, brk, the key-aware mmap /
   mprotect syscalls, fault triage, and the attacker-primitive bounds. *)

module Kernel = Roload_kernel.Kernel
module Process = Roload_kernel.Process
module Signal = Roload_kernel.Signal
module Syscall = Roload_kernel.Syscall
module Machine = Roload_machine.Machine
module Config = Roload_machine.Config
module Linker = Roload_link.Linker
module Exe = Roload_obj.Exe

let build src = Linker.link [ Roload_asm.Assemble.assemble (Roload_asm.Asm_parser.parse src) ]

let fresh_kernel ?(config = Kernel.default_config) () =
  let machine = Machine.create Config.default in
  (machine, Kernel.create ~machine ~config)

let run ?kernel_config src =
  let _m, kernel = fresh_kernel ?config:kernel_config () in
  let _p, outcome = Kernel.exec kernel (build src) in
  outcome

let status_is_exit n (o : Kernel.run_outcome) =
  match o.Kernel.status with
  | Process.Exited m -> m = n
  | Process.Killed _ | Process.Running -> false

(* brk: growing the heap maps fresh zeroed rw pages *)
let brk_prog = {|
.text
_start:
  # t0 = current brk
  li a0, 0
  li a7, 214
  ecall
  mv t0, a0
  # grow by 8192
  li t4, 8192
  add a0, a0, t4
  li a7, 214
  ecall
  # store/load across the new pages (the second one via a computed base,
  # since 4096 exceeds the S-type immediate range)
  li t1, 77
  sd t1, 0(t0)
  li t3, 4096
  add t3, t0, t3
  sd t1, 0(t3)
  ld t2, 0(t3)
  mv a0, t2
  li a7, 93
  ecall
|}

let test_brk () =
  Alcotest.(check bool) "brk grows and maps" true (status_is_exit 77 (run brk_prog))

(* mmap with a key, then ld.ro with the matching key *)
let mmap_key_prog = {|
.text
_start:
  # mmap(0, 4096, PROT_READ|PROT_WRITE, 0, key=77)
  li a0, 0
  li a1, 4096
  li a2, 3
  li a3, 0
  li a4, 77
  li a7, 222
  ecall
  mv t0, a0
  # write the allowlist value while the page is writable
  li t1, 55
  sd t1, 0(t0)
  # mprotect(addr, 4096, PROT_READ, key=77): seal it read-only
  mv a0, t0
  li a1, 4096
  li a2, 1
  li a3, 77
  li a7, 226
  ecall
  # now ld.ro with the right key succeeds
  ld.ro t2, (t0), 77
  mv a0, t2
  li a7, 93
  ecall
|}

let test_mmap_mprotect_key () =
  Alcotest.(check bool) "runtime-keyed allowlist works" true
    (status_is_exit 55 (run mmap_key_prog))

(* the same program but loading with the wrong key must die with triage *)
let test_wrong_key_after_mprotect () =
  let src =
    Str.global_replace (Str.regexp_string "ld.ro t2, (t0), 77") "ld.ro t2, (t0), 78"
      mmap_key_prog
  in
  match (run src).Kernel.status with
  | Process.Killed (Signal.Sigsegv (Signal.Roload_violation { key_requested = 78; page_key = 77; _ })) -> ()
  | _ -> Alcotest.fail "expected triaged ROLoad SIGSEGV"

(* ld.ro before sealing (page still writable) must fault *)
let test_ldro_unsealed_page () =
  let src = {|
.text
_start:
  li a0, 0
  li a1, 4096
  li a2, 3
  li a3, 0
  li a4, 9
  li a7, 222
  ecall
  ld.ro t2, (a0), 9
  li a7, 93
  ecall
|} in
  match (run src).Kernel.status with
  | Process.Killed (Signal.Sigsegv (Signal.Roload_violation { page_perms; _ })) ->
    Alcotest.(check bool) "still writable" true page_perms.Roload_mem.Perm.w
  | _ -> Alcotest.fail "expected ROLoad fault on unsealed page"

(* stock kernel refuses key arguments (ENOSYS) *)
let test_stock_kernel_enosys () =
  let src = {|
.text
_start:
  li a0, 0
  li a1, 4096
  li a2, 3
  li a3, 0
  li a4, 7
  li a7, 222
  ecall
  # a0 is -ENOSYS (-38); return 1 if so
  li t0, -38
  li a1, 0
  bne a0, t0, fail
  li a1, 1
fail:
  mv a0, a1
  li a7, 93
  ecall
|} in
  Alcotest.(check bool) "stock kernel rejects keys" true
    (status_is_exit 1 (run ~kernel_config:Kernel.stock_kernel_config src))

let test_unknown_syscall () =
  let src = {|
.text
_start:
  li a7, 9999
  ecall
  li t0, -38
  li a1, 0
  bne a0, t0, fail
  li a1, 1
fail:
  mv a0, a1
  li a7, 93
  ecall
|} in
  Alcotest.(check bool) "unknown syscall is ENOSYS" true (status_is_exit 1 (run src))

let test_instruction_limit () =
  let src = ".text\n_start:\nspin:\n  j spin\n" in
  let _m, kernel = fresh_kernel () in
  let process = Kernel.load kernel (build src) in
  Kernel.schedule kernel process;
  let outcome = Kernel.run ~limit:{ Kernel.max_instructions = 1000L } kernel process in
  match outcome.Kernel.status with
  | Process.Running -> ()
  | _ -> Alcotest.fail "expected the limit to stop the loop"

(* ---- one dispatcher: exec is the one-task case of exec_all ----

   One program walks the whole syscall ABI — write, brk, mmap,
   mprotect, fork, wait, read_request with no device, complete_request
   with nothing in flight, and an unknown number.  Run under the
   unbounded-quantum [exec] and the time-sliced [exec_all], it must see
   the same return values, console bytes, instret and cycles. *)
let abi_prog = {|
.text
_start:
  li a0, 1
  la a1, msg
  li a2, 3
  li a7, 64
  ecall
  li a0, 0
  li a7, 214
  ecall
  li a0, 0
  li a1, 4096
  li a2, 3
  li a3, 0
  li a4, 0
  li a7, 222
  ecall
  mv s0, a0
  mv a0, s0
  li a1, 4096
  li a2, 1
  li a3, 0
  li a7, 226
  ecall
  li a7, 220
  ecall
  bnez a0, parent
  li a0, 5
  li a7, 93
  ecall
parent:
  li a0, 0
  li a7, 260
  ecall
  li a7, 1024
  ecall
  li a0, 7
  li a7, 1025
  ecall
  li a7, 999
  ecall
  li a0, 0
  li a7, 93
  ecall
.section .rodata
msg:
  .asciz "ok"
|}

let test_one_task_conformance () =
  let trace exec =
    let machine, kernel = fresh_kernel () in
    let tracer = Roload_obs.Tracer.create () in
    Machine.set_tracer machine (Some tracer);
    let _p, o = exec kernel (build abi_prog) in
    let rets = ref [] in
    Roload_obs.Tracer.iter tracer (fun ~ts:_ ev ->
        match ev with
        | Roload_obs.Event.Syscall { name; ret; _ } -> rets := (name, ret) :: !rets
        | _ -> ());
    (List.rev !rets, Kernel.console kernel, o)
  in
  let rets, console, o = trace (fun k exe -> Kernel.exec k exe) in
  let rets', console', o' = trace (fun k exe -> Kernel.exec_all k exe) in
  let show l = String.concat "; " (List.map (fun (n, r) -> Printf.sprintf "%s=%d" n r) l) in
  Alcotest.(check string) "same a0 sequence" (show rets) (show rets');
  Alcotest.(check string) "same console" console console';
  Alcotest.(check int64) "same instret" o.Kernel.instructions o'.Kernel.instructions;
  Alcotest.(check int64) "same cycles" o.Kernel.cycles o'.Kernel.cycles;
  Alcotest.(check bool) "root exits 0" true (status_is_exit 0 o);
  let ret_of n = List.assoc n rets in
  Alcotest.(check int) "write" 3 (ret_of "write");
  Alcotest.(check int) "fork returns the child pid" 2 (ret_of "fork");
  Alcotest.(check int) "wait reaps the child" 2 (ret_of "wait");
  Alcotest.(check int) "read_request without a device" (-1) (ret_of "read_request");
  Alcotest.(check int) "complete_request with nothing in flight" Syscall.einval
    (ret_of "complete_request");
  Alcotest.(check int) "unknown syscall" Syscall.enosys (ret_of "unknown(999)")

let test_loader_applies_keys () =
  let src = {|
.text
_start:
  li a7, 93
  ecall
.section .rodata.key.33
allow:
  .quad 1
|} in
  let _m, kernel = fresh_kernel () in
  let exe = build src in
  let process = Kernel.load kernel exe in
  let addr = Exe.find_symbol_exn exe "allow" in
  (match Roload_mem.Page_table.walk (Process.page_table process) addr with
  | Ok { pte; _ } -> Alcotest.(check int) "pte key" 33 (Roload_mem.Pte.key pte)
  | Error _ -> Alcotest.fail "allowlist page unmapped");
  (* the stock kernel loads the same image with key 0 *)
  let _m2, stock = fresh_kernel ~config:Kernel.stock_kernel_config () in
  let p2 = Kernel.load stock exe in
  match Roload_mem.Page_table.walk (Process.page_table p2) addr with
  | Ok { pte; _ } -> Alcotest.(check int) "stock key" 0 (Roload_mem.Pte.key pte)
  | Error _ -> Alcotest.fail "unmapped under stock kernel"

let test_attacker_primitive_bounds () =
  let src = {|
.text
_start:
  li a7, 93
  ecall
.section .rodata
ro_data:
  .quad 7
.data
rw_data:
  .quad 8
|} in
  let _m, kernel = fresh_kernel () in
  let exe = build src in
  let process = Kernel.load kernel exe in
  let rw = Exe.find_symbol_exn exe "rw_data" in
  let ro = Exe.find_symbol_exn exe "ro_data" in
  Process.attacker_write_u64 process ~va:rw 99L;
  Alcotest.(check int64) "rw write lands" 99L (Process.read_u64 process ~va:rw);
  (match Process.attacker_write_u64 process ~va:ro 99L with
  | exception Process.Attack_blocked _ -> ()
  | () -> Alcotest.fail "write to read-only memory must be blocked");
  match Process.attacker_write_u64 process ~va:0x7F000000 1L with
  | exception Process.Attack_blocked _ -> ()
  | () -> Alcotest.fail "write to unmapped memory must be blocked"

(* A read-only page shared by three address spaces (the parent forks
   twice), then made writable by each sharer in turn: the first two
   split off private copies, so the last one — the parent — keeps the
   original frame, with no refcount left on it, and reads back its own
   contents, not a child's store. *)
let shared_ro_prog = {|
.text
_start:
  la s1, ro_data
  li t0, -4096
  and s0, s1, t0
  li a7, 220
  ecall
  beqz a0, sharer
  li a7, 220
  ecall
  beqz a0, sharer
  li a0, 0
  li a7, 260
  ecall
  li a0, 0
  li a7, 260
  ecall
  call make_writable
  ld a0, 0(s1)
  li a7, 93
  ecall
sharer:
  call make_writable
  li t1, 99
  sd t1, 0(s1)
  li a0, 0
  li a7, 93
  ecall
make_writable:
  mv a0, s0
  li a1, 4096
  li a2, 3
  li a3, 0
  li a7, 226
  ecall
  ret
.section .rodata
ro_data:
  .quad 7
|}

let test_last_sharer_keeps_frame () =
  let _m, kernel = fresh_kernel () in
  let exe = build shared_ro_prog in
  let process = Kernel.load kernel exe in
  let va = Exe.find_symbol_exn exe "ro_data" in
  let frame () =
    match Roload_mem.Page_table.walk (Process.page_table process) va with
    | Ok { Roload_mem.Page_table.pte; _ } -> Roload_mem.Pte.ppn pte
    | Error _ -> Alcotest.fail "ro_data unmapped"
  in
  let original = frame () in
  Kernel.schedule kernel process;
  let o = Kernel.run kernel process in
  Alcotest.(check bool) "the parent reads its own contents" true (status_is_exit 7 o);
  Alcotest.(check int) "the last sharer keeps the original frame" original (frame ());
  Alcotest.(check (option int)) "no refcount left on the frame" None
    (Kernel.shared_frame_refs kernel original)

let test_memory_accounting () =
  let o = run brk_prog in
  Alcotest.(check bool) "peak includes stack" true
    (o.Kernel.peak_kib >= Process.stack_pages * 4)

let suite =
  [
    Alcotest.test_case "brk grows the heap" `Quick test_brk;
    Alcotest.test_case "mmap+mprotect with keys" `Quick test_mmap_mprotect_key;
    Alcotest.test_case "wrong key after mprotect" `Quick test_wrong_key_after_mprotect;
    Alcotest.test_case "ld.ro on unsealed page" `Quick test_ldro_unsealed_page;
    Alcotest.test_case "stock kernel ENOSYS on keys" `Quick test_stock_kernel_enosys;
    Alcotest.test_case "unknown syscall" `Quick test_unknown_syscall;
    Alcotest.test_case "instruction limit" `Quick test_instruction_limit;
    Alcotest.test_case "exec is the one-task case of exec_all" `Quick
      test_one_task_conformance;
    Alcotest.test_case "loader applies section keys" `Quick test_loader_applies_keys;
    Alcotest.test_case "attacker primitive bounds" `Quick test_attacker_primitive_bounds;
    Alcotest.test_case "memory accounting" `Quick test_memory_accounting;
    Alcotest.test_case "last of three sharers keeps the frame" `Quick
      test_last_sharer_keeps_frame;
  ]
