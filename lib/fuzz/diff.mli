(** The differential runner: compile one MiniC program under every
    hardening scheme and check IR-oracle ≡ single-step engine ≡
    trace-compiled engine, including trap equivalence — a program the
    oracle says must SIGSEGV with the ROLoad triage must do so on every
    engine, and must not trap under [none]. *)

module Pass = Roload_passes.Pass
module Ir = Roload_ir.Ir

type divergence = {
  dv_scheme : Pass.scheme;
  dv_stage : string;
      (** which pair disagreed: ["oracle-vs-<engine>"] on behavior, or
          ["<engine0>-vs-<engine>"] on an architectural counter
          ({!Roload_obs.Metrics.core_diff}) *)
  dv_expected : string;
  dv_actual : string;
      (** for a counter divergence, ["<field>=<value>"] of each engine *)
}

type case_result =
  | Agree of (Pass.scheme * Ir_eval.behavior) list
      (** per-scheme oracle-confirmed behavior *)
  | Skipped of string
      (** the oracle declined the program (layout-dependent shape) or the
          compiler rejected it *)
  | Divergent of divergence

val schemes_under_test : Pass.scheme list

val engines_under_test : Roload_machine.Machine.engine list
(** The default machine-engine matrix: single-step reference,
    trace-compiled. *)

val oracle_of_ast :
  ?fuel:int ->
  ?schemes:Pass.scheme list ->
  Roload_front.Ast.program ->
  (Pass.scheme * Ir_eval.behavior) list
(** Oracle predictions per scheme (default {!schemes_under_test}) for a
    parsed program: {!Ir_eval.run} over one unhardened, unoptimised
    lowering.  Raises {!Ir_eval.Unsupported} or
    [Roload_front.Lower.Sema_error] like the oracle itself. *)

val oracle_behaviors :
  ?schemes:Pass.scheme list ->
  string ->
  (Pass.scheme * Ir_eval.behavior) list
(** Parse, then {!oracle_of_ast}. *)

val run_source :
  ?schemes:Pass.scheme list ->
  ?engines:Roload_machine.Machine.engine list ->
  ?max_instructions:int64 ->
  ?fuel:int ->
  ?elide:bool ->
  ?sabotage:(Pass.scheme -> Ir.modul -> bool) ->
  name:string ->
  string ->
  case_result
(** [run_source ~name source] performs the full differential check.
    [engines] (default {!engines_under_test}, [[]] means the default)
    restricts the machine-engine side of the matrix (e.g. [--engine
    traced]); the first listed engine anchors the cycle-exactness
    comparison.  The machine runs force the trace hotness threshold to 1
    so short programs still compile traces.
    [sabotage] is the mutation-self-check hook, passed to
    [Toolchain.compile_ast] as its [after_pass]: it runs after hardening
    and elision, immediately before code generation, for each scheme and
    may plant a miscompile, returning whether it changed anything (the
    runner ignores the answer; the oracle still predicts the *correct*
    behavior, so a working fuzzer must flag the case as divergent).
    [elide] (default false) compiles every scheme, sabotaged or not,
    with proof-guided ld.ro check elision; the oracle still interprets
    the unhardened IR, so elision is invisible to it and any behavioral
    effect of the rewrite surfaces as a divergence.  The source is
    parsed once for the oracle and every scheme, and lowered and
    optimised once for every scheme ({!Core.Toolchain.front_half}); each
    scheme's back half compiles its own copy. *)

val sabotage_drop_gfpt : Pass.scheme -> Ir.modul -> bool
(** The canonical planted miscompile: under ICall, revert the GFPT
    redirect of the first indirect call whose callee is a GFPT slot, so
    its ld.ro hits an executable page instead of the keyed table. *)
