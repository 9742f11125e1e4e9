(** The kernel: frame allocation, the loader (applies section keys to
    PTEs), syscalls including key-aware mmap/mprotect, and trap triage.
    Kernel work is charged to the machine cycle counter through a small
    cost model, so the "+kernel" system's overhead is measured rather than
    assumed (paper §V-B). *)

type config = {
  roload_kernel : bool;
      (** false = stock kernel (no key plumbing, no ROLoad triage);
          true = the modified kernel of paper §III-B *)
  syscall_cycles : int;
  page_map_cycles : int;
  page_key_cycles : int;
  fault_cycles : int;
  context_switch_cycles : int;
      (** scheduler dispatch: register save and reload + address-space swap *)
  queue_cycles_per_waiter : int;
      (** request-device contention: cycles charged per hand-out for every
          other live worker assigned to the same shard *)
}

val default_config : config
val stock_kernel_config : config

type t

exception Out_of_frames

val create : machine:Roload_machine.Machine.t -> config:config -> t
val machine : t -> Roload_machine.Machine.t
val config : t -> config

val syscall_count : t -> int
(** Syscalls serviced by this kernel instance. *)

(** {2 Snapshots} *)

type image

val snapshot : t -> image
(** Capture the whole task table at one instant: every task's
    scheduling record (saved registers and pc, state, inflight request,
    request start, restarts, birth certificate) with its process state
    and MMU/TLB image — tasks off the CPU included — plus the request
    device, supervision, the restart count, the kernel's counters, its
    console and the scheduler's position (the cursor, the end of the
    current slice, and a trapped syscall not yet serviced).  The
    scheduled task's live registers and every page table belong to the
    machine, which snapshots them at its own layer; {!Snapshot.capture}
    composes the two.  Request hooks are not captured.  An image is
    resumed only through {!fork}. *)

val fork : image -> machine:Roload_machine.Machine.t -> t
(** A sibling kernel over a forked machine, in the captured state:
    every process (birth templates need none) is rebuilt over the
    forked memory with an MMU seeded from its image, and the scheduled
    task's MMU is installed on the machine.  No hook is armed.  The
    image stays valid for any number of forks, whatever the kernel it
    was taken from does next. *)

val pid_of : t -> Process.t -> int option
(** The pid of the task this process currently embodies. *)

val load : t -> Roload_obj.Exe.t -> Process.t
(** Map all segments (with keys when the kernel supports them), map the
    stack, set the initial brk. *)

val schedule : t -> Process.t -> unit
(** Install the process's MMU, initialize pc/sp and register the process
    as the root task (first pid).  Every run is a task-table run; a
    single-process run is the one-task case.
    @raise Invalid_argument if the kernel already has a root task. *)

type run_limit = { max_instructions : int64 }

val no_limit : run_limit

type run_outcome = {
  status : Process.status;
  instructions : int64;
  cycles : int64;
  peak_kib : int;
  output : string;
}

val run : ?limit:run_limit -> t -> Process.t -> run_outcome
(** Run the scheduler with an unbounded quantum — the scheduled task
    keeps the CPU until it blocks, exits or dies — until every task is
    done or the instruction limit is reached.  The limit counts the
    machine's retired instructions ({!Roload_machine.Cpu.instret}), so a
    caller pauses on an exact retire (attack tooling pauses there to
    corrupt memory).  A later call continues the paused
    slice of the task that was scheduled (see {!run_all}).  The outcome
    carries [process]'s status and output.
    @raise Invalid_argument if [process] is not a task of this kernel. *)

val exec : ?limit:run_limit -> t -> Roload_obj.Exe.t -> Process.t * run_outcome

(** {2 Multi-process scheduling}

    The process table and the round-robin scheduler over it, which
    {!run} and {!run_all} share.  Time
    slices are fuel quanta (retired instructions), so the interleaving —
    and therefore every byte of output — is identical across the three
    execution engines and independent of host parallelism.  [fork]
    duplicates the address space inside the same physical memory
    (writable pages copied, read-only frames shared under a refcount so
    a later mprotect-to-writable splits them); [wait] blocks until a
    child exits; [read_request] pulls the next payload from the
    simulated request-source device. *)

val shared_frame_refs : t -> int -> int option
(** How many address spaces share frame [ppn] read-only since a fork;
    [None] once one owns it alone. *)

val set_requests : ?shards:int -> t -> int array -> unit
(** Load the request-source device with a payload stream, dealt into
    [shards] FIFO queues (request id mod [shards]; default 1).  Request
    ids are stream indices; latency is measured from hand-out to the
    serving task's first ack ([complete_request], the next
    [read_request], or a clean exit).  A worker whose own shard runs dry
    steals from the others in deterministic scan order; when every shard
    is empty but requests are still in flight elsewhere, [read_request]
    blocks (a dead worker's request may yet be redelivered) and returns
    -1 only once the stream has fully drained. *)

val requests_served : t -> int
(** Requests whose service has completed. *)

val request_latencies : t -> int64 array
(** Cycle latencies of completed requests, in request-id order. *)

type request_record = {
  rr_payload : int;
  rr_handouts : int;
  rr_redeliveries : int;  (** times taken back from a dead worker and requeued *)
  rr_completions : int;
  rr_result : int64 option;  (** first explicitly committed result *)
  rr_diverged : bool;  (** a later ack committed a different result *)
  rr_latency : int64;  (** hand-out → first completion, cycles; -1 = never *)
}

val request_records : t -> request_record array
(** Per-request delivery records, in request-id order — the raw material
    of the serving-availability table. *)

val server_checksum : t -> int64
(** Order-independent fold (mod 1_000_003) of every first explicitly
    committed result.  Kernel-owned, so it survives worker kills and
    restarts — the payload-multiset checksum the redelivery invariant is
    stated over. *)

type supervision = {
  max_restarts : int;  (** per-worker reincarnation budget *)
  deadline_cycles : int64;
      (** per-request deadline in simulated cycles; 0 disables the watchdog *)
}

val set_supervision : t -> supervision option -> unit
(** Arm (or disarm) worker supervision.  While armed, [fork] captures a
    pristine birth template of the child; a worker that dies from a
    signal — ld.ro trap, segv, check abort, deadline or chaos kill — has
    its un-acked request redelivered and is reincarnated in place from
    the template (same pid, fresh address space) while budget
    remains, after which it zombifies normally through the wait ABI.
    [None] (the default) preserves the unsupervised PR-9 semantics. *)

val restarts_total : t -> int
(** Reincarnations performed across all pids. *)

val task_restarts : t -> (int * int) list
(** [(pid, restarts)] per task, pid-ascending. *)

val set_request_hook : t -> at:int -> (t -> unit) -> unit
(** Install a one-shot hook that fires inside [read_request] just before
    hand-out number [at] (0-based across all requests) — the
    deterministic request-count trigger of server chaos campaigns.  The
    hook may tamper a worker's state or [kill_task] any task, including
    the caller. *)

val kill_task : t -> pid:int -> info:string -> bool
(** Mark the task killed (SIGKILL carrying [info]); the scheduler reaps
    it at the next scheduler entry.  False when there is no such live
    running task. *)

val worker_pids : t -> int list
(** Pids of every non-root task ever created, pid-ascending. *)

val task_process : t -> int -> Process.t option
(** The process currently embodying [pid] (the latest incarnation). *)

val task_inflight : t -> int -> int
(** The request id [pid] currently holds un-acked, or -1.  Lets chaos
    hooks target a worker whose death actually forces a redelivery. *)

val console : t -> string
(** The interleaved write() output of every task, in service order. *)

val task_statuses : t -> (int * Process.status) list
(** [(pid, status)] for every task ever created, pid-ascending. *)

val spawn_root : t -> Process.t -> unit
(** Same as {!schedule}. *)

val run_all :
  ?limit:run_limit -> ?time_slice:int -> ?pause_at_handout:int -> t -> run_outcome
(** Schedule every ready task round-robin until all tasks have exited or
    the global instruction limit is hit.  [time_slice] is the preemption
    quantum in retired instructions (default 20_000).  The outcome
    carries the root task's status/output and the machine-global
    instruction/cycle counters.

    [pause_at_handout = k] also stops at the ecall of the first
    [read_request] issued once [k] requests have been handed out, before
    the kernel services it — the point where a request hook armed at
    [k] would fire.  The trapped syscall stays pending in the kernel.

    Pauses are exact: a run stopped by the limit or the hand-out clock
    keeps its slice's end (and a pending syscall) in kernel state and in
    {!snapshot}s, and the next [run]/[run_all] services the syscall and
    continues that slice, so pausing and resuming any number of times
    retires exactly what one uninterrupted run does.  If the scheduled
    process was killed or exited from outside while paused, the next run
    enters the scheduler instead, which retires it. *)

val exec_all :
  ?limit:run_limit -> ?time_slice:int -> t -> Roload_obj.Exe.t -> Process.t * run_outcome
(** [load] + [spawn_root] + [run_all]. *)
