(** Whole-system snapshots: machine and kernel images captured at one
    instant.  The kernel image holds the whole task table, so a paused
    multi-process server snapshots as exactly as a single process.  A
    snapshot is resumed only by forking it: one snapshot seeds any
    number of copy-on-write forks, and survives a parent that runs on.
    Campaign ladders boot a workload once, pause at each trigger
    frontier, capture, fork that frontier's cells and drop the
    snapshot. *)

type t

val capture : machine:Roload_machine.Machine.t -> kernel:Kernel.t -> process:Process.t -> t
(** Capture a paused system; [process] is the task whose process
    {!fork} returns.  Cheap: physical pages are shared copy-on-write with
    the live machine (O(touched pages) from here on, not O(memory
    size)).
    @raise Invalid_argument if [process] is not a task of [kernel]. *)

val fork : t -> Roload_machine.Machine.t * Kernel.t * Process.t
(** A fresh, fully independent system in the captured state, sharing
    physical pages copy-on-write with the image.  Mutating a fork never
    perturbs the image, the parent, or sibling forks, and a fork's
    resumed run is byte-identical to the captured system's own —
    architectural state, cycles, every statistic, and output.  The
    returned process is the captured one's counterpart, a task of the
    returned kernel; the task that held the CPU holds the forked CPU. *)

val mem_image : t -> Roload_mem.Phys_mem.image
(** The captured physical memory, for
    {!Roload_mem.Phys_mem.diff_images}. *)
