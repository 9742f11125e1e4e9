(** roload-prove: whole-program pointee-integrity abstract
    interpretation, and the one abstract domain of the static verifier.

    A bottom-up fixpoint over the callgraph interprets each function on
    the {!Absval} domain against an abstract memory (per-writable-global
    contents, collapsed stack and heap cells) while growing function
    {!Summary}s.  Diagnostics flag protected sites whose operand can
    reach a writable — or wrongly-keyed — pointee across function
    boundaries, each with a witness path; {!safe_temp} answers the
    elision pass's queries about operands proven to stay inside one
    keyed read-only section.  The same post-fixpoint sweep yields
    roload-lint's layer 2 ({!result.pr_dataflow}).

    {2 The precision ladder}

    The pointee condition is enforced in two rungs:

    + this proof: definite findings only — an operand whose value is
      unknown, a heap address or a plain number is neither proven nor
      refuted, and falls through to
    + the dynamic check itself: every keyed site still executes
      [ld.ro], which faults on any pointee outside the keyed read-only
      section.

    Unknowns fall through to the next rung rather than becoming noise. *)

module Ir = Roload_ir.Ir

type container =
  | Cglob of string
  | Cheap
  | Cstack
  | Cparam of string * int
  | Cret of string

val container_to_string : container -> string

type result = {
  pr_diags : Diagnostic.t list;  (** definite findings, program order *)
  pr_dataflow : Diagnostic.t list;
      (** lint layer 2, program order: [key-mismatch] (a keyed load or
          indirect call whose known pointer set holds no pointee keyed
          as annotated) and [store-to-rodata] (a store whose known
          pointer set holds a read-only global).  A store address read
          back from memory is never judged, and a key-mismatch on a
          memory-derived operand is dropped when the abstract memory is
          unsound (a wild store survives, or the fixpoint diverged).
          Not part of {!exit_code} or the reports; {!Lint.run} shows
          them. *)
  pr_rounds : int;  (** callgraph rounds to fixpoint *)
  pr_wild_stores : string list;
      (** sites storing through unknown addresses; non-empty disables
          the elision oracle *)
  pr_summaries : (string * Summary.t) list;
  pr_temp_values : (string, Absval.t array) Hashtbl.t;
      (** per function, the join of each temp's value over all program
          points *)
  pr_module : Ir.modul;
}

val max_rounds : int

val run : Ir.modul -> result
(** Run the interprocedural fixpoint and both consumer passes.  Always
    terminates: the domain is finite and joins are monotone; if the
    round cap is ever hit a [prove-fixpoint-diverged] finding is
    emitted. *)

val safe_temp : result -> func:string -> temp:int -> key:int -> [ `Guarded | `Pure ] option
(** The elision oracle: [Some `Pure] when every reachable value of the
    temp is a pointee in the keyed read-only section of [key] (a hoisted
    ld.ro check can never fault), [Some `Guarded] when an implicit zero
    may additionally flow (the hoisted check must be skipped on zero),
    [None] otherwise.  Answers [None] for everything when the prover
    found any violation or any wild store. *)

val exit_code : result -> int
(** 0 on a clean run, 3 when there are findings (mirrors lint). *)

val report_to_string : result -> string
val report_to_json : result -> string
