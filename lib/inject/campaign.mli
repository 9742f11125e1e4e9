(** The chaos campaign: baseline-vs-injected differential runs over a
    seeded plan, with crash containment, incremental checkpointing and
    byte-identical resume. *)

module Pass = Roload_passes.Pass

val roload_schemes : Pass.scheme list
(** Schemes whose detection the gates hold to the ROLoad standard. *)

val default_schemes : Pass.scheme list
(** The campaign matrix: stock, label-CFI baseline, VCall, ICall. *)

type config = {
  seed : int64;
  count : int;  (** plan length; cells = count x applicable schemes *)
  schemes : Pass.scheme list;
  attempts : int;  (** bounded deterministic retries per cell *)
  jobs : int option;  (** schemes run in parallel; each runs its cells in turn *)
  budget_factor : int;  (** watchdog = factor x baseline instructions *)
  checkpoint : string option;
      (** incremental persistence file: each row is appended and
          flushed the moment its cell settles, so a killed campaign
          keeps every settled row *)
  resume : bool;  (** skip cells already in the checkpoint *)
  sabotage : (index:int -> scheme:Pass.scheme -> attempt:int -> unit) option;
      (** test hook: raise from inside a chosen cell *)
  max_cells : int option;  (** test hook: simulate a mid-run kill *)
  elide : bool;
      (** compile every victim with proof-guided ld.ro check elision
          (roload-prove + roload-elide); detection coverage must be
          byte-identical to the unelided campaign *)
  from_reset : bool;
      (** boot every cell from reset instead of forking the per-scheme
          trigger snapshots (the default fan-out); verdict tables,
          checkpoints and resume are byte-identical either way — only
          the throughput changes *)
}

val default_config : config

type outcome = Verdict of Fault.verdict | Failed

type row = {
  index : int;
  scheme : string;
  cls : string;
  label : string;
  trigger : int64;
  applied : bool;
  attempts : int;
  outcome : outcome;
  detail : string;
}

type report = {
  rows : row list;  (** sorted by (plan index, scheme position) *)
  schemes : Pass.scheme list;
  oracle_checked : bool;
  oracle_agreed : bool;
  corruption_diffs : ((int * string) * Roload_mem.Phys_mem.page_diff list) list;
      (** per silent-corruption cell, keyed by (index, scheme): pages
          where the injected run's final memory differs from the clean
          baseline's, with each page's first differing byte.  Fresh
          cells only (never persisted to checkpoints), and carried
          outside {!row} so tables/checkpoints stay byte-identical. *)
}

exception Broken_victim of string
(** The uninjected victim did not behave benignly under some scheme —
    the campaign would be meaningless, so it refuses to start. *)

val run : config -> report

val measure :
  ?engine:Roload_machine.Machine.engine ->
  ?variant:Core.System.variant ->
  ?pause_at:int64 ->
  max_instructions:int64 ->
  Roload_obj.Exe.t ->
  Roload_kernel.Kernel.run_outcome * Roload_obs.Metrics.t
(** Run to [pause_at] retired instructions (cumulative), resume to
    [max_instructions], and return the outcome plus the exact counter
    snapshot.  A paused-and-resumed run without injection is
    bit-identical (cycles, metrics, output) to an uninterrupted one —
    the empty-plan property every campaign cell relies on. *)

val classify :
  baseline:Roload_kernel.Kernel.run_outcome ->
  Roload_kernel.Kernel.run_outcome ->
  Fault.verdict * string

val compile_victim : ?elide:bool -> Pass.scheme -> Roload_obj.Exe.t
val verdict_of_row : row -> Fault.verdict option

val coverage_table : report -> Roload_util.Table.t
(** The §V-style detection-coverage table: one row per injection class,
    one column per scheme. *)

type gate = { silent_under_roload : int; undetected_tamper : int; cell_failures : int }

val tamper_classes : string list
(** The page/TLB-tampering classes ROLoad must detect at 100%. *)

val gate : report -> gate
(** What the CI chaos-smoke job asserts: zero silent corruption and zero
    undetected tampering under ROLoad schemes, zero cell failures. *)

val render : report -> string
val to_json : report -> string

val render_diffs : report -> string
(** The --diff-pages artifact: one line per corrupted page with its
    first differing byte.  Kept out of {!render} so the coverage table
    stays byte-identical to pre-snapshot campaigns. *)

type replay_check = { rc_scheme : string; rc_expected : string; rc_actual : string }

val replay : path:string -> replay_check list
(** Re-run a pinned corpus reproducer ([seed]/[entry]/[expect] lines)
    and report expected-vs-actual verdicts per scheme. *)

(** {2 The live-server campaign}

    Instead of pausing a single-process victim, each cell runs the full
    multi-worker serving system (supervised workers, sharded request
    device, redelivery) and strikes one chosen worker mid-stream — when
    the device has handed out the entry's trigger count of requests.
    Per-request outcomes are judged against the scheme's uninjected
    baseline and folded into the serving-availability table.  Every
    cell is deterministic (handout-count triggers, retire-count quanta,
    pure-function restarts), so the table is byte-identical across
    engines and [-j]. *)

type server_config = {
  sv_seed : int64;
  sv_count : int;  (** plan length; cells = count x applicable schemes *)
  sv_requests : int;  (** request-stream length per cell *)
  sv_workers : int;  (** forked worker-pool size *)
  sv_shards : int;  (** request-device shards *)
  sv_schemes : Pass.scheme list;
  sv_attempts : int;
  sv_jobs : int option;  (** as {!config.jobs} *)
  sv_time_slice : int option;
  sv_engine : Roload_machine.Machine.engine option;
  sv_max_restarts : int;  (** supervisor restart budget per worker *)
  sv_deadline_cycles : int64;  (** per-request watchdog; 0 = off *)
  sv_budget_factor : int;  (** cell fuel = factor x baseline instructions *)
  sv_checkpoint : string option;
  sv_resume : bool;
  sv_sabotage : (index:int -> scheme:Pass.scheme -> attempt:int -> unit) option;
  sv_max_cells : int option;
}

val default_server_config : server_config

type server_row = {
  sv_index : int;
  sv_scheme : string;
  sv_cls : string;
  sv_label : string;
  sv_worker : int;
  sv_trigger : int;  (** handout count the hook fired at *)
  sv_applied : bool;
  sv_cell_attempts : int;
  sv_failed : bool;  (** crash containment: the cell itself blew up *)
  sv_tally : Server_fault.tally;
  sv_restarts : int;
  sv_detail : string;
}

type server_report = {
  sv_rows : server_row list;  (** sorted by (plan index, scheme position) *)
  sv_report_schemes : Pass.scheme list;
  sv_report_requests : int;
}

val run_server : server_config -> server_report
(** Raises {!Broken_victim} when any scheme's uninjected baseline fails
    to serve every request cleanly with zero restarts, or when baseline
    checksums diverge across schemes. *)

type server_gate = {
  sg_low_availability : int;
      (** ROLoad-scheme cells below the 0.99 per-cell availability floor *)
  sg_corrupted_under_roload : int;
  sg_cell_failures : int;
}

val server_gate : server_report -> server_gate

val render_server : server_report -> string
(** The serving-availability table — one row per server injection
    class, one column per scheme: correct-service percentage over the
    ok/retried/duplicated/corrupted/lost tallies, plus restart counts —
    followed by the gate summary. *)

val server_to_json : server_report -> string

val served_ratios : server_report -> (string * float) list
(** Per-scheme availability over every non-failed cell.  It feeds the
    exact per-scheme availability test in [test_chaos] and
    [roload_bench]'s [served_ratio_min]. *)
