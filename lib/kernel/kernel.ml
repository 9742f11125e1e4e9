(* The kernel: frame allocation, the program loader (which applies the
   executable's section keys to page-table entries), syscall servicing —
   including the key-aware mmap/mprotect — and trap triage.

   Two kernel variants exist, mirroring the paper's system matrix:
   [roload_kernel = false] is the stock kernel (no key plumbing, no ROLoad
   fault triage); [roload_kernel = true] is the modified kernel of §III-B.
   Kernel work is charged to the machine's cycle counter through a small
   cost model so the "processor+kernel modified" system of §V-B shows its
   (tiny) load-time key-setup overhead as a measurement, not an
   assumption. *)

module Perm = Roload_mem.Perm
module Page_table = Roload_mem.Page_table
module Mmu = Roload_mem.Mmu
module Phys_mem = Roload_mem.Phys_mem
module Machine = Roload_machine.Machine
module Cpu = Roload_machine.Cpu
module Trap = Roload_machine.Trap
module Config = Roload_machine.Config
module Exe = Roload_obj.Exe
module Reg = Roload_isa.Reg

type config = {
  roload_kernel : bool;
  syscall_cycles : int; (* trap entry/exit + dispatch *)
  page_map_cycles : int; (* per page mapped by the loader/mmap *)
  page_key_cycles : int; (* extra per page whose key is set (modified kernel) *)
  fault_cycles : int; (* page-fault handling before the process dies *)
  context_switch_cycles : int; (* scheduler: save/restore + address-space swap *)
  queue_cycles_per_waiter : int;
      (* request-device contention: serialization charged per hand-out for
         every other live worker assigned to the same shard *)
}

let default_config =
  {
    roload_kernel = true;
    syscall_cycles = 80;
    page_map_cycles = 25;
    page_key_cycles = 2;
    fault_cycles = 400;
    context_switch_cycles = 120;
    queue_cycles_per_waiter = 4;
  }

let stock_kernel_config = { default_config with roload_kernel = false }

(* ---- the process table ----

   A task is the scheduler's view of a process: its saved register file,
   its lifecycle state, and the request it is currently serving (if any).
   The classic states apply — ready, blocked in wait(), zombie (exited
   but unreaped), reaped. *)

type task_state =
  | Task_ready
  | Task_waiting (* blocked in wait(); pc still points at the ecall *)
  | Task_waiting_req (* blocked in read_request until a redelivery or drain *)
  | Task_zombie of int (* terminal status awaiting a parent's wait() *)
  | Task_reaped

(* A supervised worker's birth certificate: a pristine clone of its
   address space taken at fork time (the page-table root of the clone
   and its process state), plus the registers/pc it was born with.
   Reincarnation clones a fresh address space from the template's page
   table (the template itself is never scheduled and never mutated), so
   a restart starts from exactly the state the first incarnation did —
   tamper applied to a dead incarnation's PTEs/TLB/globals dies with it.
   The record is immutable plain data, so kernel images and their forks
   share it: the root names frames of whichever memory the kernel runs
   over. *)
type birth = {
  b_root : int; (* page-table root ppn of the template address space *)
  b_image : Process.image;
  b_regs : Bytes.t; (* saved register file (Cpu layout); never mutated *)
  b_pc : int;
}

(* A task's record is polymorphic in its process so that a kernel image
   holds the same record over a process image. *)
type 'p task_of = {
  pid : int;
  parent : int; (* 0 for the root task, which has no parent *)
  mutable proc : 'p; (* replaced wholesale on reincarnation *)
  t_regs : Bytes.t; (* saved register file (Cpu layout) *)
  mutable t_pc : int;
  mutable t_state : task_state;
  mutable t_inflight : int; (* request id being served; -1 when none *)
  mutable t_req_start : int64; (* cycle stamp when the request was handed out *)
  mutable t_restarts : int; (* reincarnations consumed by this pid *)
  mutable t_birth : birth option; (* present iff forked under supervision *)
}

type task = Process.t task_of

(* Supervision policy for forked workers: [max_restarts] bounds
   per-worker reincarnations; [deadline_cycles] > 0 arms the per-request
   watchdog (a worker whose inflight request is older than the deadline
   is killed at the next scheduler entry — deterministic, because cycle
   counts at kernel entries are exact across engines). *)
type supervision = {
  max_restarts : int;
  deadline_cycles : int64; (* 0 = no deadline watchdog *)
}

(* The simulated request-source device, sharded: pending ids live in
   per-shard FIFO queues (id mod shards); workers pull from their own
   shard first and steal in deterministic order when it runs dry.  The
   per-request arrays are the at-least-once delivery ledger. *)
type device = {
  d_stream : int array; (* payloads, by request id; never mutated *)
  d_queues : int Queue.t array; (* pending ids per shard *)
  mutable d_done : int; (* requests completed *)
  d_latencies : int64 array; (* by request id; -1 = unfinished *)
  d_handouts : int array;
  d_redeliveries : int array;
  d_completions : int array;
  d_has_result : bool array; (* an explicit ack committed a result *)
  d_result : int64 array; (* first committed result *)
  d_diverged : bool array; (* a later ack committed a different result *)
  mutable d_inflight : int; (* handed out, not yet acked *)
  mutable d_handouts_total : int; (* hand-outs across all requests (trigger clock) *)
  mutable d_committed_sum : int64; (* fold of first results, mod 1_000_003 *)
}

let copy_device d =
  {
    d with
    d_queues = Array.map Queue.copy d.d_queues;
    d_latencies = Array.copy d.d_latencies;
    d_handouts = Array.copy d.d_handouts;
    d_redeliveries = Array.copy d.d_redeliveries;
    d_completions = Array.copy d.d_completions;
    d_has_result = Array.copy d.d_has_result;
    d_result = Array.copy d.d_result;
    d_diverged = Array.copy d.d_diverged;
  }

let device_of_stream ~shards payloads =
  let n = Array.length payloads in
  let queues = Array.init shards (fun _ -> Queue.create ()) in
  for id = 0 to n - 1 do
    Queue.push id queues.(id mod shards)
  done;
  {
    d_stream = Array.copy payloads;
    d_queues = queues;
    d_done = 0;
    d_latencies = Array.make n (-1L);
    d_handouts = Array.make n 0;
    d_redeliveries = Array.make n 0;
    d_completions = Array.make n 0;
    d_has_result = Array.make n false;
    d_result = Array.make n 0L;
    d_diverged = Array.make n false;
    d_inflight = 0;
    d_handouts_total = 0;
    d_committed_sum = 0L;
  }

(* Where a paused run stands in the round-robin, so the next run
   continues it exactly: between slices (the next run enters the
   scheduler), inside the scheduled task's slice (which ends when
   instret reaches the stored value), or inside that slice with the
   task trapped into a syscall the kernel has not serviced yet (the
   machine already retired the ecall; the next run services it
   first). *)
type position = Between_slices | In_slice of int64 | In_syscall of int64

type t = {
  machine : Machine.t;
  config : config;
  mutable next_frame : int;
  mutable syscall_count : int;
  mutable tasks : task list; (* pid-ascending; the round-robin order; root first *)
  mutable next_pid : int;
  mutable scheduled : task option; (* whose registers live in the CPU *)
  mutable cursor : int; (* pid last given the CPU; the round robin continues after it *)
  mutable position : position;
  console : Buffer.t; (* interleaved write() output of every task *)
  mutable dev : device;
  mutable supervision : supervision option;
  mutable restart_count : int; (* reincarnations across all pids *)
  mutable req_hook : (int * (t -> unit)) option;
      (* one-shot chaos trigger: fires inside read_request just before
         hand-out number [at] (deterministic across engines) *)
  (* frames shared read-only across address spaces after fork, with the
     number of address spaces referencing them (only entries >= 2 are
     kept); mprotect splits a shared frame before granting write access *)
  frame_refs : (int, int) Hashtbl.t;
}

exception Out_of_frames

let create ~machine ~config =
  (* frame 0 stays unused so a PPN of 0 is never valid *)
  {
    machine;
    config;
    next_frame = 1;
    syscall_count = 0;
    tasks = [];
    next_pid = 1;
    scheduled = None;
    cursor = 0;
    position = Between_slices;
    console = Buffer.create 256;
    dev = device_of_stream ~shards:0 [||];
    supervision = None;
    restart_count = 0;
    req_hook = None;
    frame_refs = Hashtbl.create 64;
  }

let machine t = t.machine
let config t = t.config
let syscall_count t = t.syscall_count

(* Events ride the machine's tracer; the kernel and CPU share one
   timeline (kernel work is charged to the machine cycle counter). *)
let emit t ev =
  match Machine.tracer t.machine with
  | None -> ()
  | Some tr -> Roload_obs.Tracer.emit tr ev

let charge t cycles = Cpu.add_cycles (Machine.cpu t.machine) cycles
let cycles_now t = Int64.of_int (Cpu.cycles (Machine.cpu t.machine))

let alloc_frame t =
  let mem = Machine.mem t.machine in
  let frames = Phys_mem.size mem / Page_table.page_size in
  if t.next_frame >= frames then raise Out_of_frames;
  let f = t.next_frame in
  t.next_frame <- t.next_frame + 1;
  Phys_mem.fill mem ~addr:(f * Page_table.page_size) ~len:Page_table.page_size '\000';
  f

(* ---------- loader ---------- *)

let effective_key t key = if t.config.roload_kernel then key else 0

let map_fresh_page t process ~va ~perms ~key =
  let ppn = alloc_frame t in
  Page_table.map_page (Process.page_table process) ~va ~ppn ~perms ~user:true
    ~key:(effective_key t key);
  Process.account_mapped process 1;
  charge t t.config.page_map_cycles;
  if t.config.roload_kernel && key <> 0 then charge t t.config.page_key_cycles;
  ppn

(* An MMU over [page_table], sized and checked as the machine is. *)
let new_mmu t page_table =
  let c = Machine.config t.machine in
  Mmu.create ~page_table ~itlb_entries:c.Config.itlb_entries
    ~dtlb_entries:c.Config.dtlb_entries ~roload_check_enabled:c.Config.roload_processor

let load t exe =
  let mem = Machine.mem t.machine in
  let page_table = Page_table.create ~mem ~alloc_frame:(fun () -> alloc_frame t) in
  let mmu = new_mmu t page_table in
  let brk_start = ref 0 in
  let process = Process.create ~exe ~page_table ~mmu ~phys:mem ~brk:0 in
  (* map segments page by page, copying data *)
  List.iter
    (fun (seg : Exe.segment) ->
      let npages = Exe.segment_pages seg in
      for i = 0 to npages - 1 do
        let va = seg.Exe.vaddr + (i * Page_table.page_size) in
        let ppn = map_fresh_page t process ~va ~perms:seg.Exe.perms ~key:seg.Exe.key in
        let data_off = i * Page_table.page_size in
        let remaining = String.length seg.Exe.data - data_off in
        if remaining > 0 then begin
          let chunk = min remaining Page_table.page_size in
          Phys_mem.write_string mem ~addr:(ppn * Page_table.page_size)
            (String.sub seg.Exe.data data_off chunk)
        end
      done;
      brk_start := max !brk_start (seg.Exe.vaddr + (npages * Page_table.page_size)))
    exe.Exe.segments;
  Process.init_brk process !brk_start;
  (* map the stack *)
  let stack_base = Process.stack_top - (Process.stack_pages * Page_table.page_size) in
  for i = 0 to Process.stack_pages - 1 do
    ignore
      (map_fresh_page t process ~va:(stack_base + (i * Page_table.page_size)) ~perms:Perm.rw
         ~key:0)
  done;
  process

(* ---------- the task table ---------- *)

let new_task t ~pid ~parent proc ~regs ~pc =
  let tk =
    {
      pid;
      parent;
      proc;
      t_regs = Bytes.copy regs;
      t_pc = pc;
      t_state = Task_ready;
      t_inflight = -1;
      t_req_start = 0L;
      t_restarts = 0;
      t_birth = None;
    }
  in
  t.tasks <- t.tasks @ [ tk ];
  tk

(* Every run is a task-table run; a single-process run is the one-task
   case.  The root task is already on the CPU: its registers are the
   live CPU's and no context-switch cycles are charged. *)
let register_root t process =
  if t.tasks <> [] then invalid_arg "Kernel: a root task is already registered";
  let cpu = Machine.cpu t.machine in
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let tk = new_task t ~pid ~parent:0 process ~regs:(Cpu.regs cpu) ~pc:(Cpu.pc cpu) in
  t.scheduled <- Some tk

(* Install the process on the machine, initialize its CPU state and
   register it as the root task. *)
let schedule t process =
  Machine.set_mmu t.machine (Process.mmu process);
  let cpu = Machine.cpu t.machine in
  Cpu.set_pc cpu (Process.exe process).Exe.entry;
  Cpu.set cpu Reg.sp (Int64.of_int (Process.stack_top - 64));
  register_root t process

let spawn_root = schedule

(* ---- snapshots ----

   The image holds the whole task table: every task's scheduling record
   (registers, pc, state, inflight request, restarts, birth
   certificate) over an image of its process — state, MMU, page-table
   root and executable — plus the request device, supervision, the
   counters and the scheduler's position.  The scheduled task's live
   registers are the CPU's, which the machine snapshots; every page
   table lives in physical memory, which the machine snapshots too.
   The image names no live object, so it keeps no machine alive.  Hooks
   are not captured.

   A process is rebuilt from its image over a memory: a walker over the
   captured root, an MMU seeded from the captured one.  [fork] rebuilds
   every task's process over the forked memory; an image is never put
   back into a live kernel. *)

type proc_image = {
  pi_state : Process.image;
  pi_mmu : Mmu.image;
  pi_root : int; (* page-table root ppn *)
  pi_exe : Exe.t;
}

type image = {
  ik_config : config;
  ik_next_frame : int;
  ik_syscall_count : int;
  ik_next_pid : int;
  ik_tasks : proc_image task_of list; (* pid-ascending *)
  ik_scheduled : int; (* pid whose registers are the CPU's; 0 = none *)
  ik_cursor : int;
  ik_position : position;
  ik_frame_refs : (int, int) Hashtbl.t;
  ik_console : string;
  ik_dev : device;
  ik_supervision : supervision option;
  ik_restart_count : int;
}

let image_of_process p =
  {
    pi_state = Process.snapshot p;
    pi_mmu = Mmu.snapshot (Process.mmu p);
    pi_root = Page_table.root_ppn (Process.page_table p);
    pi_exe = Process.exe p;
  }

let snapshot t =
  {
    ik_config = t.config;
    ik_next_frame = t.next_frame;
    ik_syscall_count = t.syscall_count;
    ik_next_pid = t.next_pid;
    ik_tasks =
      List.map
        (fun tk -> { tk with proc = image_of_process tk.proc; t_regs = Bytes.copy tk.t_regs })
        t.tasks;
    ik_scheduled = (match t.scheduled with Some tk -> tk.pid | None -> 0);
    ik_cursor = t.cursor;
    ik_position = t.position;
    ik_frame_refs = Hashtbl.copy t.frame_refs;
    ik_console = Buffer.contents t.console;
    ik_dev = copy_device t.dev;
    ik_supervision = t.supervision;
    ik_restart_count = t.restart_count;
  }

let rebuild_process t pi =
  let mem = Machine.mem t.machine in
  let page_table =
    Page_table.with_root ~mem ~root_ppn:pi.pi_root ~alloc_frame:(fun () -> alloc_frame t)
  in
  let mmu = new_mmu t page_table in
  Mmu.restore mmu pi.pi_mmu;
  Process.fork pi.pi_state ~exe:pi.pi_exe ~page_table ~mmu ~phys:mem

(* A sibling kernel over [machine] in the captured state: every task's
   process rebuilt over the forked memory, and the scheduled task's
   address space put on the machine. *)
let fork img ~machine =
  let t = create ~machine ~config:img.ik_config in
  t.next_frame <- img.ik_next_frame;
  t.syscall_count <- img.ik_syscall_count;
  t.next_pid <- img.ik_next_pid;
  t.tasks <-
    List.map
      (fun tk -> { tk with proc = rebuild_process t tk.proc; t_regs = Bytes.copy tk.t_regs })
      img.ik_tasks;
  t.scheduled <- List.find_opt (fun tk -> tk.pid = img.ik_scheduled) t.tasks;
  t.cursor <- img.ik_cursor;
  t.position <- img.ik_position;
  Hashtbl.iter (Hashtbl.replace t.frame_refs) img.ik_frame_refs;
  Buffer.add_string t.console img.ik_console;
  t.dev <- copy_device img.ik_dev;
  t.supervision <- img.ik_supervision;
  t.restart_count <- img.ik_restart_count;
  Option.iter (fun tk -> Machine.attach_mmu t.machine (Process.mmu tk.proc)) t.scheduled;
  t

let find_task t pid = List.find_opt (fun tk -> tk.pid = pid) t.tasks
let task_process t pid = Option.map (fun tk -> tk.proc) (find_task t pid)

let pid_of t process =
  Option.map (fun tk -> tk.pid) (List.find_opt (fun tk -> tk.proc == process) t.tasks)

(* ---------- syscalls ---------- *)

(* Unwind a partially mapped fresh region: unmap whatever got mapped and
   roll the page accounting back, so a failed brk/mmap is all-or-nothing
   as far as the address space and the accounting are concerned.  The
   data frames already allocated leak — this kernel never frees frames,
   and intermediate page-table frames allocated along the way may since
   have become live for other mappings — which wastes simulated physical
   memory but can never alias a future mapping. *)
let unwind_fresh_range process ~first_va ~npages ~accounting =
  let page_table = Process.page_table process in
  let mapped, peak = accounting in
  for i = 0 to npages - 1 do
    let va = first_va + (i * Page_table.page_size) in
    match Page_table.walk page_table va with
    | Ok _ ->
      Page_table.unmap_page page_table ~va;
      Mmu.invalidate (Process.mmu process) ~va
    | Error (Page_table.Not_mapped | Page_table.Bad_alignment) -> ()
  done;
  Process.rollback_accounting process ~mapped ~peak

let handle_brk t process new_brk =
  let old_brk = Process.brk process in
  if new_brk <= old_brk then old_brk
  else begin
    let first = Roload_util.Bits.align_up old_brk Page_table.page_size in
    let last = Roload_util.Bits.align_up new_brk Page_table.page_size in
    let n = (last - first) / Page_table.page_size in
    let accounting = Process.accounting process in
    (try
       for i = 0 to n - 1 do
         ignore
           (map_fresh_page t process ~va:(first + (i * Page_table.page_size)) ~perms:Perm.rw
              ~key:0)
       done;
       Process.set_brk process new_brk
     with Out_of_frames ->
       (* failed grows leave no half-mapped pages behind *)
       unwind_fresh_range process ~first_va:first ~npages:n ~accounting);
    Process.brk process
  end

let handle_mmap t process ~len ~prot ~key =
  if len <= 0 then Syscall.einval
  else if key <> 0 && not t.config.roload_kernel then Syscall.enosys
  else begin
    let npages = (len + Page_table.page_size - 1) / Page_table.page_size in
    match Process.alloc_mmap_region process npages with
    | None -> Syscall.enomem (* the region would cross the stack guard *)
    | Some addr -> (
      let accounting = Process.accounting process in
      try
        for i = 0 to npages - 1 do
          ignore
            (map_fresh_page t process ~va:(addr + (i * Page_table.page_size))
               ~perms:(Syscall.perms_of_prot prot) ~key)
        done;
        addr
      with Out_of_frames ->
        unwind_fresh_range process ~first_va:addr ~npages ~accounting;
        Process.retract_mmap_region process ~addr ~npages;
        Syscall.enomem)
  end

(* A fresh frame holding a copy of frame [ppn], shared copy-on-write in
   host memory until either side is written. *)
let copy_frame t ppn =
  let fresh = alloc_frame t in
  Phys_mem.copy_page (Machine.mem t.machine) ~src:ppn ~dst:fresh;
  fresh

(* Copy-on-mprotect: a frame shared read-only across address spaces
   (fork) must be split before any process gains write access to it, or
   the writes would leak into the sibling address spaces.  Returns true
   when it installed a private copy (with the final perms/key). *)

let shared_frame_refs t ppn = Hashtbl.find_opt t.frame_refs ppn

let split_shared_frame t process ~va ~pte ~perms ~key =
  let ppn = Roload_mem.Pte.ppn pte in
  match Hashtbl.find_opt t.frame_refs ppn with
  | Some refs when refs >= 2 ->
    let fresh = copy_frame t ppn in
    Page_table.map_page (Process.page_table process) ~va ~ppn:fresh ~perms ~user:true ~key;
    if refs = 2 then Hashtbl.remove t.frame_refs ppn
    else Hashtbl.replace t.frame_refs ppn (refs - 1);
    charge t t.config.page_map_cycles;
    true
  | _ -> false

let handle_mprotect t process ~addr ~len ~prot ~key =
  if addr land (Page_table.page_size - 1) <> 0 || len < 0 then Syscall.einval
  else if key <> 0 && not t.config.roload_kernel then Syscall.enosys
  else begin
    let npages = (len + Page_table.page_size - 1) / Page_table.page_size in
    let page_table = Process.page_table process in
    (* validate the whole range up front: mprotect is all-or-nothing, so
       a failing call must leave every PTE exactly as it was *)
    let valid = ref true in
    for i = 0 to npages - 1 do
      match Page_table.walk page_table (addr + (i * Page_table.page_size)) with
      | Ok _ -> ()
      | Error (Page_table.Not_mapped | Page_table.Bad_alignment) -> valid := false
    done;
    if not !valid then Syscall.einval
    else begin
      let perms = Syscall.perms_of_prot prot in
      for i = 0 to npages - 1 do
        let va = addr + (i * Page_table.page_size) in
        let split =
          perms.Perm.w
          &&
          match Page_table.walk page_table va with
          | Ok { pte; _ } ->
            split_shared_frame t process ~va ~pte ~perms ~key:(effective_key t key)
          | Error _ -> false
        in
        if not split then begin
          (match Page_table.set_perms page_table ~va ~perms with
          | Ok () -> ()
          | Error _ -> assert false (* validated above *));
          if t.config.roload_kernel then
            match Page_table.set_key page_table ~va ~key with
            | Ok () -> ()
            | Error _ -> assert false
        end;
        if t.config.roload_kernel then charge t t.config.page_key_cycles;
        Mmu.invalidate (Process.mmu process) ~va
      done;
      0
    end
  end

(* Only the console descriptors exist; a bad fd is rejected before the
   buffer is looked at, so nothing is copied and nothing is charged. *)
let handle_write t process ~fd ~buf ~len =
  if fd <> 1 && fd <> 2 then Syscall.ebadf
  else if len < 0 then Syscall.einval
  else begin
    (* copy out through the page table; an unmapped byte anywhere in the
       buffer fails the whole write with EFAULT — nothing is copied and
       no copy cycles are charged *)
    match Process.read_bytes process ~va:buf ~len with
    | s ->
      Process.append_output process s;
      Buffer.add_string t.console s;
      charge t (len / 16);
      len
    | exception Not_found -> Syscall.efault
  end

(* ---------- trap triage ---------- *)

(* The fault path of the modified kernel (§III-B): ROLoad faults are
   distinguished from benign load faults and the process is killed with a
   SIGSEGV carrying the triage detail.  The stock kernel cannot decode the
   new fault class; it reports a plain access violation. *)
let signal_of_trap t (trap : Trap.t) : Signal.t option =
  match trap with
  | Trap.Ecall -> None
  | Trap.Breakpoint -> None
  | Trap.Illegal_instruction { pc; info } -> Some (Signal.Sigill { pc; info })
  | Trap.Misaligned_access { va; _ } -> Some (Signal.Sigbus { va })
  | Trap.Fetch_page_fault { va; _ } ->
    Some (Signal.Sigsegv (Signal.Access_violation { va; access = Perm.Fetch }))
  | Trap.Load_page_fault { va; _ } ->
    Some (Signal.Sigsegv (Signal.Access_violation { va; access = Perm.Load }))
  | Trap.Store_page_fault { va; _ } ->
    Some (Signal.Sigsegv (Signal.Access_violation { va; access = Perm.Store }))
  | Trap.Roload_page_fault { pc; va; key_requested; page_key; page_perms } ->
    if t.config.roload_kernel then
      Some
        (Signal.Sigsegv
           (Signal.Roload_violation { va; pc; key_requested; page_key; page_perms }))
    else
      (* stock kernel: same mechanical outcome (the access did fault), but
         without the dedicated triage *)
      Some (Signal.Sigsegv (Signal.Access_violation { va; access = Perm.Load }))

let triage_kind (signal : Signal.t) =
  match signal with
  | Signal.Sigill _ -> "sigill"
  | Signal.Sigbus _ -> "sigbus"
  | Signal.Sigsegv (Signal.Roload_violation _) -> "roload"
  | Signal.Sigsegv (Signal.Access_violation _) -> "segv"
  | Signal.Sigkill _ -> "kill"

let trap_pc (trap : Trap.t) =
  match trap with
  | Trap.Ecall | Trap.Breakpoint -> 0
  | Trap.Illegal_instruction { pc; _ }
  | Trap.Misaligned_access { pc; _ }
  | Trap.Fetch_page_fault { pc; _ }
  | Trap.Load_page_fault { pc; _ }
  | Trap.Store_page_fault { pc; _ }
  | Trap.Roload_page_fault { pc; _ } ->
    pc

(* ---------- run loop ---------- *)

type run_limit = { max_instructions : int64 }

let no_limit = { max_instructions = Int64.max_int }

type run_outcome = {
  status : Process.status;
  instructions : int64;
  cycles : int64;
  peak_kib : int;
  output : string;
}

let outcome_of t process =
  let cpu = Machine.cpu t.machine in
  {
    status = Process.status process;
    instructions = Int64.of_int (Cpu.instret cpu);
    cycles = Int64.of_int (Cpu.cycles cpu);
    peak_kib = Process.peak_kib process;
    output = Process.output process;
  }

(* ---------- the request device and the scheduler ---------- *)

let console t = Buffer.contents t.console

let set_requests ?(shards = 1) t payloads =
  t.dev <- device_of_stream ~shards:(max 1 shards) payloads

let requests_served t = t.dev.d_done

let request_latencies t =
  Array.of_seq (Seq.filter (fun l -> l >= 0L) (Array.to_seq t.dev.d_latencies))

(* Per-request delivery record (the availability table's raw material). *)
type request_record = {
  rr_payload : int;
  rr_handouts : int;
  rr_redeliveries : int;
  rr_completions : int;
  rr_result : int64 option; (* first explicitly committed result *)
  rr_diverged : bool; (* a later ack committed a different result *)
  rr_latency : int64; (* hand-out -> first completion, cycles; -1 = never *)
}

let request_records t =
  let d = t.dev in
  Array.init (Array.length d.d_stream) (fun id ->
      {
        rr_payload = d.d_stream.(id);
        rr_handouts = d.d_handouts.(id);
        rr_redeliveries = d.d_redeliveries.(id);
        rr_completions = d.d_completions.(id);
        rr_result = (if d.d_has_result.(id) then Some d.d_result.(id) else None);
        rr_diverged = d.d_diverged.(id);
        rr_latency = d.d_latencies.(id);
      })

let server_checksum t = t.dev.d_committed_sum
let set_supervision t sup = t.supervision <- sup
let restarts_total t = t.restart_count
let set_request_hook t ~at hook = t.req_hook <- Some (max 0 at, hook)

let task_statuses t = List.map (fun tk -> (tk.pid, Process.status tk.proc)) t.tasks
let task_restarts t = List.map (fun tk -> (tk.pid, tk.t_restarts)) t.tasks

let task_inflight t pid =
  match find_task t pid with Some tk -> tk.t_inflight | None -> -1

let worker_pids t =
  List.filter_map (fun tk -> if tk.parent <> 0 then Some tk.pid else None) t.tasks

let kill_task t ~pid ~info =
  match find_task t pid with
  | Some tk
    when (match tk.t_state with Task_zombie _ | Task_reaped -> false | _ -> true)
         && Process.status tk.proc = Process.Running ->
    Process.set_status tk.proc (Process.Killed (Signal.Sigkill { info }));
    true
  | _ -> false

(* Fork the parent's address space inside the same physical memory.
   Writable pages get their own frame at fork time ("copy on fork" in
   the simulated kernel, charged per mapping), though in host memory the
   copy is a copy-on-write share ([Phys_mem.copy_page]) until either
   side stores to it; read-only pages — text, rodata, the GFPT — share
   the parent's frame under a reference count, so the PA-keyed
   decode/block caches stay warm across the fork and a later
   mprotect-to-writable knows to split the frame first. *)
let clone_address_space t parent_pt =
  let mem = Machine.mem t.machine in
  let page_table = Page_table.create ~mem ~alloc_frame:(fun () -> alloc_frame t) in
  Page_table.iter_mappings parent_pt ~f:(fun ~va ~pte ->
      let ppn = Roload_mem.Pte.ppn pte in
      let child_ppn =
        if Roload_mem.Pte.writable pte then copy_frame t ppn
        else begin
          (match Hashtbl.find_opt t.frame_refs ppn with
          | Some n -> Hashtbl.replace t.frame_refs ppn (n + 1)
          | None -> Hashtbl.replace t.frame_refs ppn 2);
          ppn
        end
      in
      let key = Roload_mem.Pte.key pte in
      Page_table.map_page page_table ~va ~ppn:child_ppn
        ~perms:(Roload_mem.Pte.perms pte) ~user:(Roload_mem.Pte.user pte) ~key;
      charge t t.config.page_map_cycles;
      if t.config.roload_kernel && key <> 0 then charge t t.config.page_key_cycles);
  page_table

(* A process in state [image] over a copy of the address space
   [parent_pt] maps. *)
let clone_process t ~exe parent_pt image =
  let page_table = clone_address_space t parent_pt in
  let mmu = new_mmu t page_table in
  let child = Process.fork image ~exe ~page_table ~mmu ~phys:(Machine.mem t.machine) in
  Process.clear_output child;
  child

let context_switch t tk =
  match t.scheduled with
  | Some cur when cur == tk -> ()
  | prev ->
    let cpu = Machine.cpu t.machine in
    (match prev with
    | Some cur ->
      Cpu.save_regs cpu cur.t_regs;
      cur.t_pc <- Cpu.pc cpu
    | None -> ());
    Cpu.load_regs cpu tk.t_regs;
    Cpu.set_pc cpu tk.t_pc;
    Machine.attach_mmu t.machine (Process.mmu tk.proc);
    t.scheduled <- Some tk;
    charge t t.config.context_switch_cycles

(* How many requests are still queued across every shard. *)
let pending_requests t = Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.dev.d_queues

(* Wake every task blocked in read_request: a redelivery gave them work,
   or the stream drained and they must observe the -1. *)
let wake_req_waiters t =
  List.iter
    (fun tk -> if tk.t_state = Task_waiting_req then tk.t_state <- Task_ready)
    t.tasks

(* Ack the request [tk] is serving.  The first completion stamps the
   latency and counts the request served; an explicit ack ([result])
   additionally commits the result into the device's order-independent
   checksum (first committed result wins — later duplicates only set the
   divergence flag).  Implicit acks (next read_request, clean exit)
   carry no result. *)
let ack_request t tk ~result =
  if tk.t_inflight >= 0 then begin
    let d = t.dev in
    let id = tk.t_inflight in
    tk.t_inflight <- -1;
    d.d_inflight <- d.d_inflight - 1;
    let first = d.d_completions.(id) = 0 in
    d.d_completions.(id) <- d.d_completions.(id) + 1;
    if first then begin
      let latency = Int64.sub (cycles_now t) tk.t_req_start in
      d.d_latencies.(id) <- latency;
      d.d_done <- d.d_done + 1;
      emit t
        (Roload_obs.Event.Request_done { pid = tk.pid; id; latency = Int64.to_int latency })
    end;
    (match result with
    | Some r ->
      if not d.d_has_result.(id) then begin
        d.d_has_result.(id) <- true;
        d.d_result.(id) <- r;
        let m = 1_000_003L in
        let r' = Int64.rem (Int64.add (Int64.rem r m) m) m in
        d.d_committed_sum <- Int64.rem (Int64.add d.d_committed_sum r') m
      end
      else if d.d_result.(id) <> r then d.d_diverged.(id) <- true
    | None -> ());
    if pending_requests t = 0 && d.d_inflight = 0 then wake_req_waiters t
  end

(* A dead worker's un-acked request goes back to its shard queue
   (at-least-once delivery); anyone blocked on an empty device is woken
   to pick it up. *)
let requeue_inflight t tk =
  if tk.t_inflight >= 0 then begin
    let d = t.dev in
    let id = tk.t_inflight in
    tk.t_inflight <- -1;
    d.d_inflight <- d.d_inflight - 1;
    d.d_redeliveries.(id) <- d.d_redeliveries.(id) + 1;
    let shards = Array.length d.d_queues in
    if shards > 0 then Queue.push id d.d_queues.(id mod shards);
    emit t
      (Roload_obs.Event.Request_redelivered { id; attempt = d.d_redeliveries.(id) });
    wake_req_waiters t
  end

let make_zombie t tk status_code =
  tk.t_state <- Task_zombie status_code;
  match find_task t tk.parent with
  | Some p when p.t_state = Task_waiting -> p.t_state <- Task_ready
  | _ -> ()

(* Terminal path for a clean exit: the inflight request (if any) is
   implicitly acked — the worker finished the work, it just exited
   before asking for more. *)
let finish_task t tk status_code =
  ack_request t tk ~result:None;
  make_zombie t tk status_code

(* Reincarnate a supervised worker in place: fresh address space cloned
   from the birth template, registers/pc reset to the birth record, same
   pid (the parent's wait() accounting and the pid-ascending task order
   are untouched).  Each reincarnation still consumes a fresh pid number,
   so the pids of later forks stay what they always were. *)
let reincarnate t tk b =
  tk.t_restarts <- tk.t_restarts + 1;
  t.restart_count <- t.restart_count + 1;
  tk.proc <-
    clone_process t ~exe:(Process.exe tk.proc)
      (Page_table.with_root ~mem:(Machine.mem t.machine) ~root_ppn:b.b_root
         ~alloc_frame:(fun () -> alloc_frame t))
      b.b_image;
  Bytes.blit b.b_regs 0 tk.t_regs 0 Cpu.regs_bytes;
  tk.t_pc <- b.b_pc;
  tk.t_state <- Task_ready;
  tk.t_inflight <- -1;
  t.next_pid <- t.next_pid + 1;
  (* defeat [context_switch]'s same-task short-circuit: the next dispatch
     of this task must install the fresh MMU, not the dead one *)
  (match t.scheduled with Some cur when cur == tk -> t.scheduled <- None | _ -> ());
  charge t t.config.context_switch_cycles;
  emit t (Roload_obs.Event.Worker_restart { pid = tk.pid; restarts = tk.t_restarts })

(* Death by signal/kill: redeliver the un-acked inflight request, then
   either reincarnate (supervised, budget left) or zombify through the
   normal wait ABI. *)
let task_dead t tk status_code =
  requeue_inflight t tk;
  match (tk.t_birth, t.supervision) with
  | Some b, Some sup when tk.t_restarts < sup.max_restarts -> reincarnate t tk b
  | _ -> make_zombie t tk status_code

(* Retire a task whose process stopped running: a death by signal is
   triaged at [pc], a clean exit acks its request and zombifies. *)
let retire t tk ~pc =
  match Process.status tk.proc with
  | Process.Running -> ()
  | Process.Killed sg ->
    emit t (Roload_obs.Event.Fault_triage { kind = triage_kind sg; pc });
    task_dead t tk (-1)
  | Process.Exited code -> finish_task t tk code

(* Sweep for tasks killed outside their own execution (the deadline
   watchdog, an external chaos kill) and for a clean-exit status set by
   a hook; runs at every scheduler entry, before picking. *)
let reap_external t =
  List.iter
    (fun tk ->
      match tk.t_state with
      | Task_ready | Task_waiting | Task_waiting_req -> retire t tk ~pc:tk.t_pc
      | Task_zombie _ | Task_reaped -> ())
    t.tasks

(* The deadline watchdog: mark overdue workers killed; [reap_external]
   processes the deaths.  Checked at scheduler entries only, so the kill
   points are instret/cycle-exact across engines. *)
let check_deadlines t =
  match t.supervision with
  | Some { deadline_cycles; _ } when deadline_cycles > 0L ->
    let now = cycles_now t in
    List.iter
      (fun tk ->
        match tk.t_state with
        | (Task_ready | Task_waiting | Task_waiting_req)
          when tk.t_inflight >= 0
               && Process.status tk.proc = Process.Running
               && Int64.compare (Int64.sub now tk.t_req_start) deadline_cycles > 0 ->
          Process.set_status tk.proc (Process.Killed (Signal.Sigkill { info = "deadline" }))
        | _ -> ())
      t.tasks
  | _ -> ()

(* Write the 8-byte little-endian wait() status, all-or-nothing: an
   unmapped byte anywhere in the buffer means no write at all (the
   caller returns EFAULT without reaping the child). *)
let write_wait_status tk ~va status =
  match
    ignore (Process.translate tk.proc va);
    ignore (Process.translate tk.proc (va + 7))
  with
  | () ->
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int status);
    Process.kernel_write_bytes tk.proc ~va (Bytes.to_string b);
    true
  | exception Not_found -> false

type sched_decision =
  | Keep (* the task keeps the CPU inside its quantum *)
  | Switch (* the task blocked or exited: schedule someone else *)

(* The syscall dispatcher: the whole ABI (DESIGN.md §15), for the
   scheduled task [tk].  A blocking wait() or read_request deliberately
   does not advance the pc: the task re-executes the ecall when it is
   woken. *)
let handle_syscall t tk =
  let cpu = Machine.cpu t.machine in
  let arg r = Int64.to_int (Cpu.get cpu r) in
  charge t t.config.syscall_cycles;
  t.syscall_count <- t.syscall_count + 1;
  let num = arg Reg.a7 in
  let finish ret =
    emit t (Roload_obs.Event.Syscall { number = num; name = Syscall.name num; ret });
    Cpu.set cpu Reg.a0 (Int64.of_int ret);
    Cpu.set_pc cpu (Cpu.pc cpu + 4)
  in
  let keep ret =
    finish ret;
    Keep
  in
  if num = Syscall.sys_exit then begin
    let code = arg Reg.a0 in
    Process.set_status tk.proc (Process.Exited code);
    finish 0;
    finish_task t tk code;
    Switch
  end
  else if num = Syscall.sys_fork then begin
    let exe = Process.exe tk.proc and parent_pt = Process.page_table tk.proc in
    let image = Process.snapshot tk.proc in
    let child_proc = clone_process t ~exe parent_pt image in
    let pid = t.next_pid in
    t.next_pid <- pid + 1;
    (* the child resumes after the ecall with a0 = 0 *)
    let child =
      new_task t ~pid ~parent:tk.pid child_proc ~regs:(Cpu.regs cpu) ~pc:(Cpu.pc cpu + 4)
    in
    Cpu.set_saved child.t_regs Reg.a0 0L;
    (* under supervision, capture the child's birth certificate: a second
       pristine clone of the parent's address space plus the birth
       registers, so a crashed incarnation can be restarted from exactly
       this state no matter what was tampered in the meantime *)
    (match t.supervision with
    | Some _ ->
      let template = clone_process t ~exe parent_pt image in
      child.t_birth <-
        Some
          {
            b_root = Page_table.root_ppn (Process.page_table template);
            b_image = Process.snapshot template;
            b_regs = Bytes.copy child.t_regs;
            b_pc = child.t_pc;
          }
    | None -> ());
    keep pid
  end
  else if num = Syscall.sys_wait then begin
    let status_va = arg Reg.a0 in
    let child_of c = c.parent = tk.pid in
    let zombie =
      List.find_opt
        (fun c -> child_of c && match c.t_state with Task_zombie _ -> true | _ -> false)
        t.tasks
    in
    match zombie with
    | Some child ->
      let status = match child.t_state with Task_zombie s -> s | _ -> assert false in
      if status_va <> 0 && not (write_wait_status tk ~va:status_va status) then
        keep Syscall.efault
      else begin
        child.t_state <- Task_reaped;
        keep child.pid
      end
    | None ->
      let alive =
        List.exists
          (fun c ->
            child_of c
            &&
            match c.t_state with
            | Task_ready | Task_waiting | Task_waiting_req -> true
            | Task_zombie _ | Task_reaped -> false)
          t.tasks
      in
      if alive then begin
        tk.t_state <- Task_waiting;
        Switch
      end
      else keep Syscall.echild
  end
  else if num = Syscall.sys_read_request then begin
    (* asking for the next request implicitly acks the previous one *)
    ack_request t tk ~result:None;
    (* the chaos trigger fires here, once, just before hand-out [at] —
       the hand-out counter is the deterministic request-count clock *)
    (match t.req_hook with
    | Some (at, hook) when t.dev.d_handouts_total >= at ->
      t.req_hook <- None;
      hook t
    | _ -> ());
    if Process.status tk.proc <> Process.Running then begin
      (* the hook killed the calling task mid-syscall *)
      retire t tk ~pc:(Cpu.pc cpu);
      Switch
    end
    else begin
      let d = t.dev in
      let shards = Array.length d.d_queues in
      if shards = 0 then keep (-1)
      else begin
        let own = tk.pid mod shards in
        (* own shard first, then steal in deterministic scan order *)
        let rec pick i =
          if i >= shards then None
          else
            let s = (own + i) mod shards in
            if Queue.is_empty d.d_queues.(s) then pick (i + 1)
            else Some (Queue.pop d.d_queues.(s), s)
        in
        match pick 0 with
        | Some (id, shard) ->
          d.d_handouts.(id) <- d.d_handouts.(id) + 1;
          d.d_handouts_total <- d.d_handouts_total + 1;
          tk.t_inflight <- id;
          d.d_inflight <- d.d_inflight + 1;
          tk.t_req_start <- cycles_now t;
          (* modeled shard contention: hand-out serializes against every
             other live worker assigned to the same shard *)
          let waiters =
            List.fold_left
              (fun acc w ->
                if
                  w != tk && w.parent <> 0
                  && w.pid mod shards = shard
                  && (match w.t_state with
                     | Task_ready | Task_waiting_req -> true
                     | Task_waiting | Task_zombie _ | Task_reaped -> false)
                  && Process.status w.proc = Process.Running
                then acc + 1
                else acc)
              0 t.tasks
          in
          charge t (t.config.queue_cycles_per_waiter * waiters);
          keep d.d_stream.(id)
        | None ->
          if d.d_inflight > 0 then begin
            (* a dead worker may still return its request: block without
               advancing the pc and re-execute the ecall when woken *)
            tk.t_state <- Task_waiting_req;
            Switch
          end
          else keep (-1)
      end
    end
  end
  else if num = Syscall.sys_complete_request then begin
    if tk.t_inflight < 0 then keep Syscall.einval
    else begin
      ack_request t tk ~result:(Some (Cpu.get cpu Reg.a0));
      keep 0
    end
  end
  else if num = Syscall.sys_server_checksum then keep (Int64.to_int t.dev.d_committed_sum)
  else if num = Syscall.sys_write then
    keep (handle_write t tk.proc ~fd:(arg Reg.a0) ~buf:(arg Reg.a1) ~len:(arg Reg.a2))
  else if num = Syscall.sys_brk then keep (handle_brk t tk.proc (arg Reg.a0))
  else if num = Syscall.sys_mmap then
    keep (handle_mmap t tk.proc ~len:(arg Reg.a1) ~prot:(arg Reg.a2) ~key:(arg Reg.a4))
  else if num = Syscall.sys_mprotect then
    keep
      (handle_mprotect t tk.proc ~addr:(arg Reg.a0) ~len:(arg Reg.a1) ~prot:(arg Reg.a2)
         ~key:(arg Reg.a3))
  else keep Syscall.enosys

(* The one run loop.  Round-robin over the ready tasks, preempting on a
   fuel quantum ([Some n] retired instructions; [None] never preempts,
   so the scheduled task runs until it blocks, exits or dies).
   Deterministic by construction: the machine is instret-exact across
   engines, so the preemption points — and therefore the whole
   interleaving — are identical under single/block/traced execution.

   A run that stops inside a slice (the instruction limit or
   [pause_at_handout]) records its position, and the next run
   continues that slice instead of entering the scheduler, so a paused
   run retires exactly what an uninterrupted one does.  The exception is
   a scheduled task whose process was killed or exited from outside
   while paused: the next run enters the scheduler, which retires it.
   [pause_at_handout = k] stops at the ecall of the first read_request
   issued once [k] requests have been handed out, before the kernel
   services it: where a request hook armed at [k] would fire. *)
let run_tasks ~limit ?pause_at_handout ~quantum t =
  let cpu = Machine.cpu t.machine in
  let instret () = Int64.of_int (Cpu.instret cpu) in
  (* next ready task after the cursor pid, wrapping: t.tasks is
     pid-ascending, so the first match is the round-robin choice *)
  let pick_next () =
    let ready = List.filter (fun tk -> tk.t_state = Task_ready) t.tasks in
    match List.find_opt (fun tk -> tk.pid > t.cursor) ready with
    | Some tk -> Some tk
    | None -> ( match ready with tk :: _ -> Some tk | [] -> None)
  in
  let pause_due () =
    match pause_at_handout with
    | Some k ->
      t.dev.d_handouts_total >= k
      && Int64.to_int (Cpu.get cpu Reg.a7) = Syscall.sys_read_request
    | None -> false
  in
  let rec loop tk quantum_end =
    let remaining = Int64.sub limit.max_instructions (instret ()) in
    if Int64.compare remaining 0L <= 0 then
      t.position <- In_slice quantum_end (* out of global budget *)
    else begin
      let slice = Int64.sub quantum_end (instret ()) in
      if Int64.compare slice 0L <= 0 then begin
        t.cursor <- tk.pid;
        next ()
      end
      else begin
        let fuel64 = if Int64.compare slice remaining < 0 then slice else remaining in
        let fuel =
          if Int64.compare fuel64 (Int64.of_int max_int) >= 0 then max_int
          else Int64.to_int fuel64
        in
        match Machine.run_steps ~fuel t.machine with
        | Machine.Exhausted -> loop tk quantum_end (* budgets re-checked above *)
        | Machine.Trap Trap.Ecall ->
          if pause_due () then t.position <- In_syscall quantum_end
          else syscall tk quantum_end
        | Machine.Trap Trap.Breakpoint ->
          (* ebreak is an abort: kill the task *)
          let pc = Cpu.pc cpu in
          Process.set_status tk.proc
            (Process.Killed (Signal.Sigill { pc; info = "ebreak" }));
          retire t tk ~pc;
          next ()
        | Machine.Trap trap -> (
          charge t t.config.fault_cycles;
          match signal_of_trap t trap with
          | Some signal ->
            Process.set_status tk.proc (Process.Killed signal);
            retire t tk ~pc:(trap_pc trap);
            next ()
          | None -> loop tk quantum_end)
      end
    end
  and syscall tk quantum_end =
    match handle_syscall t tk with Keep -> loop tk quantum_end | Switch -> next ()
  and next () =
    check_deadlines t;
    reap_external t;
    match pick_next () with
    | None -> t.position <- Between_slices (* every task terminal, or everyone blocked *)
    | Some tk ->
      t.cursor <- tk.pid;
      context_switch t tk;
      loop tk
        (match quantum with
        | None -> Int64.max_int
        | Some n -> Int64.add (instret ()) (Int64.of_int n))
  in
  match (t.position, t.scheduled) with
  | In_slice quantum_end, Some tk when Process.status tk.proc = Process.Running ->
    loop tk quantum_end
  | In_syscall quantum_end, Some tk when Process.status tk.proc = Process.Running ->
    syscall tk quantum_end
  | _ -> next ()

(* Run until the scheduled process (and anything it forked) exits, is
   killed, or hits the instruction limit (which is how the attack tooling
   and every campaign ladder pause at a chosen retire). *)
let run ?(limit = no_limit) t process =
  if pid_of t process = None then
    invalid_arg "Kernel.run: process is not scheduled on this kernel";
  run_tasks ~limit ~quantum:None t;
  outcome_of t process

let run_all ?(limit = no_limit) ?(time_slice = 20_000) ?pause_at_handout t =
  match t.tasks with
  | [] -> invalid_arg "Kernel.run_all: no tasks (spawn_root/exec_all first)"
  | root :: _ ->
    run_tasks ~limit ?pause_at_handout ~quantum:(Some (max 1 time_slice)) t;
    outcome_of t root.proc

(* Convenience: load, schedule, run. *)
let exec ?limit t exe =
  let process = load t exe in
  schedule t process;
  (process, run ?limit t process)

let exec_all ?limit ?time_slice t exe =
  let process = load t exe in
  schedule t process;
  (process, run_all ?limit ?time_slice t)
