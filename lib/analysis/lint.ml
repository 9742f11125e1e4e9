(* roload-lint: the static verifier for the ROLoad pointee-integrity
   invariants, run over a compiled module and its linked executable.

   Three layers, in order of abstraction:
     1. [Ir_lint]      — protection completeness after [Pass.apply]
     2. dataflow       — key consistency and the ro-store lint, a view of
                         [Prove]'s whole-program fixpoint
     3. [Machine_lint] — disassembly & loader cross-check of the image

   A clean run returns []; any finding means a hardening-pass, codegen,
   linker, or loader regression.  The toolchain exposes this as
   `roloadc --lint`, and the test suite runs it over every workload. *)

let run ~scheme ~ir ~exe =
  Ir_lint.run ~scheme ir @ (Prove.run ir).Prove.pr_dataflow @ Machine_lint.run ~ir ~exe

let ok findings = findings = []

(* CLI exit status: 0 on a clean run, 3 when findings exist (1 and 2 are
   taken by compile errors and usage errors in roloadc). *)
let exit_code findings = if findings = [] then 0 else 3
