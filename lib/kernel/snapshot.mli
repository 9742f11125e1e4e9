(** Whole-system snapshots: machine and kernel images captured at one
    instant.  The kernel image holds the whole task table, so a paused
    multi-process server snapshots as exactly as a single process.  One
    snapshot can seed any number of in-place restores and copy-on-write
    forks; campaign runners boot a workload once, pause at the trigger
    frontier, capture, and fork thousands of variants from the warm
    image instead of re-booting from reset. *)

type t

val capture : machine:Roload_machine.Machine.t -> kernel:Kernel.t -> process:Process.t -> t
(** Capture a paused system; [process] is the task whose process
    {!fork} returns.  Cheap: physical pages are shared copy-on-write with
    the live machine (O(touched pages) from here on, not O(memory
    size)).
    @raise Invalid_argument if [process] is not a task of [kernel]. *)

val restore : t -> machine:Roload_machine.Machine.t -> kernel:Kernel.t -> process:Process.t -> unit
(** Put the {e same} objects back into the captured state, compiled
    traces and every task's process included; resumed execution is
    byte-identical to the original run — architectural state, cycles,
    every statistic, and output.
    @raise Invalid_argument if [process] is not the captured one. *)

val fork : t -> Roload_machine.Machine.t * Kernel.t * Process.t
(** A fresh, fully independent system in the captured state, sharing
    physical pages copy-on-write with the image.  Mutating a fork never
    perturbs the image, the parent, or sibling forks.  The returned
    process is the captured one's counterpart, a task of the returned
    kernel; the task that held the CPU holds the forked CPU. *)

val mem_image : t -> Roload_mem.Phys_mem.image
(** The captured physical memory. *)

val diff : t -> t -> Roload_mem.Phys_mem.page_diff list
(** Page-by-page memory comparison of two snapshots, reporting each
    differing page with its first differing byte — the
    silent-corruption localizer used in chaos verdicts. *)
