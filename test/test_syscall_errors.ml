(* Regression tests for the kernel's syscall error paths: the silent
   failures this PR fixed.  Each test encodes the pre-fix misbehavior —
   write() swallowing an unmapped buffer, mprotect() mutating pages
   before rejecting the range, mmap() walking into the stack, and
   partial out-of-frames failures leaving half-mapped regions behind. *)

module Kernel = Roload_kernel.Kernel
module Process = Roload_kernel.Process
module Syscall = Roload_kernel.Syscall
module Machine = Roload_machine.Machine
module Config = Roload_machine.Config
module Linker = Roload_link.Linker
module Page_table = Roload_mem.Page_table
module Pte = Roload_mem.Pte
module Perm = Roload_mem.Perm

let build src =
  Linker.link [ Roload_asm.Assemble.assemble (Roload_asm.Asm_parser.parse src) ]

let exec ?(machine_config = Config.default) src =
  let machine = Machine.create machine_config in
  let kernel = Kernel.create ~machine ~config:Kernel.default_config in
  Kernel.exec kernel (build src)

let status_is_exit n (o : Kernel.run_outcome) =
  match o.Kernel.status with
  | Process.Exited m -> m = n
  | Process.Killed _ | Process.Running -> false

(* ---- write(): buffer straddling the last mapped page => EFAULT ----

   mmap one page (lands at the deterministic mmap base), then write()
   16 bytes starting 6 bytes before its end.  The old kernel copied
   nothing, charged the copy cycles and returned len; the fixed one
   returns EFAULT (-14) and the console stays empty. *)
let write_straddle_prog =
  Printf.sprintf
    {|
.text
_start:
  # mmap(0, 4096, PROT_READ|PROT_WRITE, 0, key=0) -> t0
  li a0, 0
  li a1, 4096
  li a2, 3
  li a3, 0
  li a4, 0
  li a7, 222
  ecall
  mv t0, a0
  # write(1, t0+4090, 16): last 10 bytes are unmapped
  li a0, 1
  li t1, 4090
  add a1, t0, t1
  li a2, 16
  li a7, 64
  ecall
  li t2, %d
  li t3, 0
  bne a0, t2, write_done
  li t3, 1
write_done:
  mv a0, t3
  li a7, 93
  ecall
|}
    Syscall.efault

let test_write_efault () =
  let p, o = exec write_straddle_prog in
  Alcotest.(check bool) "write returns EFAULT" true (status_is_exit 1 o);
  Alcotest.(check string) "nothing reached the console" "" (Process.output p)

(* The EFAULT path must also skip the per-byte copy charge.  A huge
   len from a bad buffer cost len/16 cycles on the old kernel (65536
   cycles here); the fixed kernel fails the copy before charging. *)
let write_huge_efault_prog =
  Printf.sprintf
    {|
.text
_start:
  li a0, 0
  li a1, 4096
  li a2, 3
  li a3, 0
  li a4, 0
  li a7, 222
  ecall
  mv t0, a0
  # write(1, t0+4090, 1048576): mostly unmapped
  li a0, 1
  li t1, 4090
  add a1, t0, t1
  li a2, 1048576
  li a7, 64
  ecall
  li t2, %d
  li t3, 0
  bne a0, t2, huge_done
  li t3, 1
huge_done:
  mv a0, t3
  li a7, 93
  ecall
|}
    Syscall.efault

let test_write_efault_no_copy_charge () =
  let _p, o = exec write_huge_efault_prog in
  Alcotest.(check bool) "write returns EFAULT" true (status_is_exit 1 o);
  (* the whole program is a few dozen instructions plus two syscalls;
     the old kernel added len/16 = 65536 copy cycles on this path *)
  Alcotest.(check bool) "no copy cycles charged" true (o.Kernel.cycles < 50_000L)

(* ---- write(): only fds 1 and 2 exist => EBADF before the buffer ----

   mmap one page, then issue syscall [nr] as write(fd, page, 4096) and
   exit with its return value.  The old kernel ignored the fd: fd 3
   copied the page to the console and charged 4096/16 copy cycles.  The
   fixed kernel checks the fd first, so a bad-fd write costs exactly
   what an unknown syscall with the same arguments costs. *)
let write_fd_prog ~nr ~fd =
  Printf.sprintf
    {|
.text
_start:
  li a0, 0
  li a1, 4096
  li a2, 3
  li a3, 0
  li a4, 0
  li a7, 222
  ecall
  mv a1, a0
  li a0, %d
  li a2, 4096
  li a7, %d
  ecall
  li a7, 93
  ecall
|}
    fd nr

let test_write_ebadf () =
  let bad fd =
    let p, o = exec (write_fd_prog ~nr:Syscall.sys_write ~fd) in
    Alcotest.(check bool)
      (Printf.sprintf "write(%d) returns EBADF" fd)
      true
      (status_is_exit Syscall.ebadf o);
    Alcotest.(check string) (Printf.sprintf "fd %d: nothing reached the console" fd) ""
      (Process.output p);
    o
  in
  ignore (bad 0);
  let o = bad 3 in
  let _, unknown = exec (write_fd_prog ~nr:999 ~fd:3) in
  Alcotest.(check int64) "no copy cycles charged" unknown.Kernel.cycles o.Kernel.cycles;
  let p, o = exec (write_fd_prog ~nr:Syscall.sys_write ~fd:2) in
  Alcotest.(check bool) "write(2) still writes" true (status_is_exit 4096 o);
  Alcotest.(check int) "fd 2 reaches the console" 4096 (String.length (Process.output p))

(* ---- mprotect(): range ending in an unmapped page is all-or-nothing ----

   mmap one writable key-0 page, then mprotect() a two-page range (the
   second page is unmapped) asking for read-only with key 9.  The old
   kernel re-permed and re-keyed the first page before noticing, then
   returned EINVAL; the fixed one validates the whole range first, so
   the pre-call PTE must survive verbatim. *)
let mprotect_straddle_prog =
  Printf.sprintf
    {|
.text
_start:
  # mmap(0, 4096, PROT_READ|PROT_WRITE, 0, key=0) -> t0
  li a0, 0
  li a1, 4096
  li a2, 3
  li a3, 0
  li a4, 0
  li a7, 222
  ecall
  mv t0, a0
  # mprotect(t0, 8192, PROT_READ, key=9): second page unmapped
  mv a0, t0
  li a1, 8192
  li a2, 1
  li a3, 9
  li a7, 226
  ecall
  li t2, %d
  li t3, 0
  bne a0, t2, mp_done
  li t3, 1
mp_done:
  mv a0, t3
  li a7, 93
  ecall
|}
    Syscall.einval

let test_mprotect_all_or_nothing () =
  let p, o = exec mprotect_straddle_prog in
  Alcotest.(check bool) "mprotect returns EINVAL" true (status_is_exit 1 o);
  match Page_table.walk (Process.page_table p) Process.mmap_base with
  | Error _ -> Alcotest.fail "mapped page vanished"
  | Ok w ->
    Alcotest.(check bool) "page still writable" true (Pte.writable w.Page_table.pte);
    Alcotest.(check int) "key untouched" 0 (Pte.key w.Page_table.pte)

(* ---- mmap(): the region is capped below the stack guard ----

   Fill the entire mmap region in one call, then ask for one more page:
   the old kernel's unbounded cursor would hand out addresses marching
   into the stack; the fixed one returns ENOMEM. *)
let mmap_guard_prog =
  Printf.sprintf
    {|
.text
_start:
  # mmap the whole region up to the stack guard
  li a0, 0
  li a1, %d
  li a2, 3
  li a3, 0
  li a4, 0
  li a7, 222
  ecall
  blt a0, zero, guard_fail
  # one more page must be refused
  li a0, 0
  li a1, 4096
  li a2, 3
  li a3, 0
  li a4, 0
  li a7, 222
  ecall
  li t2, %d
  li t3, 0
  bne a0, t2, guard_done
  li t3, 1
guard_done:
  mv a0, t3
  li a7, 93
  ecall
guard_fail:
  li a0, 2
  li a7, 93
  ecall
|}
    (Process.mmap_limit - Process.mmap_base)
    Syscall.enomem

let test_mmap_stack_guard () =
  let p, o = exec mmap_guard_prog in
  Alcotest.(check bool) "second mmap returns ENOMEM" true (status_is_exit 1 o);
  (* the guard band below the stack stayed unmapped *)
  (match Page_table.walk (Process.page_table p) Process.mmap_limit with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "guard page got mapped");
  (* ... and the region really was filled right up to the limit *)
  match Page_table.walk (Process.page_table p) (Process.mmap_limit - Process.page) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "last in-bounds page missing"

(* ---- out-of-frames mid-mmap: the fresh range is unwound ----

   On a machine with only 2 MiB of physical memory (512 frames, ~75 of
   which the loader uses) a 500-page mmap runs out of frames partway
   through.  The old kernel left the first ~430 pages mapped and the
   accounting inflated; the fixed one unwinds them, rolls the
   accounting back and retracts the region cursor. *)
let small_machine = { Config.default with Config.phys_mem_bytes = 2 * 1024 * 1024 }

let mmap_unwind_prog =
  Printf.sprintf
    {|
.text
_start:
  # mmap(0, 500 pages, rw): fails partway through on a 512-frame machine
  li a0, 0
  li a1, 2048000
  li a2, 3
  li a3, 0
  li a4, 0
  li a7, 222
  ecall
  li t2, %d
  li t3, 0
  bne a0, t2, uw_done
  li t3, 1
uw_done:
  mv a0, t3
  li a7, 93
  ecall
|}
    Syscall.enomem

let test_mmap_out_of_frames_unwind () =
  let p, o = exec ~machine_config:small_machine mmap_unwind_prog in
  Alcotest.(check bool) "mmap returns ENOMEM" true (status_is_exit 1 o);
  (* all-or-nothing: nothing of the failed region stays mapped *)
  (match Page_table.walk (Process.page_table p) Process.mmap_base with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "partial mmap left pages mapped");
  (* accounting rolled back to exactly the page-table truth *)
  Alcotest.(check int) "accounting matches page table"
    (Page_table.mapped_pages (Process.page_table p))
    (Process.mapped_pages p);
  (* the cursor was retracted: the next reservation reuses the base *)
  match Process.alloc_mmap_region p 1 with
  | Some addr -> Alcotest.(check int) "cursor retracted" Process.mmap_base addr
  | None -> Alcotest.fail "cursor not retracted"

(* ---- out-of-frames mid-brk: same unwind, old break preserved ---- *)
let brk_unwind_prog = {|
.text
_start:
  # t0 = current brk
  li a0, 0
  li a7, 214
  ecall
  mv t0, a0
  # grow by 500 pages: out of frames partway through
  li t1, 2048000
  add a0, t0, t1
  li a7, 214
  ecall
  # a failed grow returns the old break unchanged
  li t3, 0
  bne a0, t0, brk_done
  li t3, 1
brk_done:
  mv a0, t3
  li a7, 93
  ecall
|}

let test_brk_out_of_frames_unwind () =
  let p, o = exec ~machine_config:small_machine brk_unwind_prog in
  Alcotest.(check bool) "brk reports the old break" true (status_is_exit 1 o);
  (* no page past the (old) break stays mapped *)
  let first_fresh = (Process.brk p + Process.page - 1) / Process.page * Process.page in
  (match Page_table.walk (Process.page_table p) first_fresh with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "partial brk left pages mapped");
  Alcotest.(check int) "accounting matches page table"
    (Page_table.mapped_pages (Process.page_table p))
    (Process.mapped_pages p)

let suite =
  [
    Alcotest.test_case "write: straddling buffer => EFAULT, empty console" `Quick
      test_write_efault;
    Alcotest.test_case "write: EFAULT path charges no copy cycles" `Quick
      test_write_efault_no_copy_charge;
    Alcotest.test_case "write: fd other than 1/2 => EBADF, nothing copied" `Quick
      test_write_ebadf;
    Alcotest.test_case "mprotect: invalid range leaves PTEs untouched" `Quick
      test_mprotect_all_or_nothing;
    Alcotest.test_case "mmap: region capped below the stack guard" `Quick
      test_mmap_stack_guard;
    Alcotest.test_case "mmap: out-of-frames failure unwinds the range" `Quick
      test_mmap_out_of_frames_unwind;
    Alcotest.test_case "brk: out-of-frames failure unwinds the range" `Quick
      test_brk_out_of_frames_unwind;
  ]
