(* Whole-system snapshots: the machine and kernel images captured at
   one instant, plus the pid of the process the caller captured.  The
   kernel image holds every task (process state and MMU image) and the
   machine image holds the CPU and physical memory, where every page
   table lives.

   Campaign runners boot a workload once, pause at the trigger frontier,
   capture, and fork thousands of variants from the warm image instead
   of re-booting each from reset: physical pages are shared
   copy-on-write, so a fork costs O(touched pages), not O(memory
   size). *)

module Machine = Roload_machine.Machine

type t = { sn_machine : Machine.image; sn_kernel : Kernel.image; sn_pid : int }

let capture ~machine ~kernel ~process =
  match Kernel.pid_of kernel process with
  | None -> invalid_arg "Snapshot.capture: process is not a task of this kernel"
  | Some pid ->
    { sn_machine = Machine.snapshot machine; sn_kernel = Kernel.snapshot kernel; sn_pid = pid }

(* A fresh, fully independent system in the captured state. *)
let fork t =
  let machine = Machine.fork t.sn_machine in
  let kernel = Kernel.fork t.sn_kernel ~machine in
  (machine, kernel, Option.get (Kernel.task_process kernel t.sn_pid))

let mem_image t = Machine.mem_image t.sn_machine
