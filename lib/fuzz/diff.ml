(* The differential runner.

   The source is parsed once.  The oracle interprets one unhardened,
   unoptimised lowering of it, so it also checks constant folding and
   dead-code elimination.  The toolchain's front half (lower → optimize)
   runs once per case; each scheme compiles its own [Ir.copy_module] of
   that optimised lowering through the back half (pass → elide → codegen
   → assemble → link), and the executable runs on both
   execution engines (single-step reference, trace-compiled) under the
   full ROLoad system variant.  All observations must agree on the stop
   class (exit code / ROLoad fault / check abort / plain segfault) and on
   the exact output bytes; the engines must additionally agree on cycle
   and instruction counts (they are documented cycle-exact).  The trace
   hotness threshold alternates by scheme position, so even short
   generated programs exercise the trace compiler rather than skating by
   on its per-slot tier: 1 on even positions compiles every block at its
   second entry, before any successor is recorded, so those traces end at
   their first dynamic edge; [Trace.stability_threshold + 1] on odd
   positions (the process default) compiles once a block's own dynamic
   edge can be stable, so those traces stitch conditional branches and
   jalrs and run their side exits.

   The oracle's fuel and the machines' instruction budget are deliberately
   far apart (200k IR steps vs 50M machine instructions) so a program the
   oracle can finish can never time out on the machine — a machine
   timeout against an oracle exit is therefore a real divergence. *)

module Ir = Roload_ir.Ir
module Pass = Roload_passes.Pass
module Toolchain = Core.Toolchain
module System = Core.System
module Machine = Roload_machine.Machine
module Metrics = Roload_obs.Metrics
module Trapclass = Roload_security.Trapclass

type divergence = {
  dv_scheme : Pass.scheme;
  dv_stage : string;
  dv_expected : string;
  dv_actual : string;
}

type case_result =
  | Agree of (Pass.scheme * Ir_eval.behavior) list
  | Skipped of string
  | Divergent of divergence

let schemes_under_test = Pass.all_schemes

let engines_under_test = [ Machine.Single_step; Machine.Traced ]

let oracle_of_ast ?fuel ?(schemes = schemes_under_test) ast =
  let m = Roload_front.Lower.lower ast ~module_name:"oracle" in
  List.map (fun scheme -> (scheme, Ir_eval.run ?fuel ~scheme m)) schemes

let oracle_behaviors ?schemes source = oracle_of_ast ?schemes (Roload_front.Parser.parse source)

(* Disable the GFPT redirect on the first protected indirect call: the
   ICall pass rewrites every function-pointer value to a GFPT slot
   address and marks the call site with [ic_roload_key] so codegen loads
   the real target through ld.ro.  Clearing the key drops that load, so
   the machine jumps straight to the slot address — a read-only data
   word, not code — and any benign indirect call the oracle expects to
   succeed diverges. *)
let sabotage_drop_gfpt scheme (m : Ir.modul) =
  if scheme <> Pass.Icall then false
  else begin
    let bit = ref false in
    List.iter
      (fun f ->
        List.iter
          (fun b ->
            List.iter
              (fun i ->
                match i with
                | Ir.Call_indirect { md; _ }
                  when (not !bit) && md.Ir.ic_roload_key <> None ->
                  bit := true;
                  md.Ir.ic_roload_key <- None
                | _ -> ())
              b.Ir.b_instrs)
          f.Ir.f_blocks)
      m.Ir.m_funcs;
    !bit
  end

let behavior_of_measurement (ms : System.measurement) =
  { Ir_eval.stop = Trapclass.stop_of_status ms.System.status; output = ms.System.output }

let run_source ?(schemes = schemes_under_test) ?(engines = engines_under_test)
    ?(max_instructions = 50_000_000L) ?(fuel = 200_000) ?(elide = false) ?sabotage
    ~name source =
  let engines = if engines = [] then engines_under_test else engines in
  let after_pass = Option.map (fun hook scheme m -> ignore (hook scheme m)) sabotage in
  (* one parse: the oracle interprets one unhardened lowering of the AST,
     and each scheme compiles a copy of one optimised lowering of it *)
  match
    let ast = Roload_front.Parser.parse source in
    let oracle = oracle_of_ast ~fuel ~schemes ast in
    (Toolchain.front_half ~name ast, oracle)
  with
  | exception Ir_eval.Unsupported r -> Skipped ("oracle: " ^ r)
  | exception Toolchain.Compile_error e -> Skipped ("compile: " ^ e)
  | exception Roload_front.Parser.Parse_error { line; message } ->
    Skipped (Printf.sprintf "parse (line %d): %s" line message)
  | exception Roload_front.Lower.Sema_error { line; message } ->
    Skipped (Printf.sprintf "sema (line %d): %s" line message)
  | front, oracle -> (
    let divergence = ref None in
    let check scheme stage ~expected ~actual =
      if !divergence = None && expected <> actual then
        divergence :=
          Some { dv_scheme = scheme; dv_stage = stage; dv_expected = expected; dv_actual = actual }
    in
    let prev_hot = Machine.default_hot_threshold () in
    Fun.protect
      ~finally:(fun () -> Machine.set_default_hot_threshold prev_hot)
      (fun () ->
        try
          List.iteri
            (fun pos (scheme, expect) ->
              if !divergence = None then begin
                Machine.set_default_hot_threshold
                  (if pos mod 2 = 0 then 1 else Roload_machine.Trace.stability_threshold + 1);
                (* One scheme's compile and runs allocate well under a
                   minor heap of short-lived data.  Starting each from an
                   empty minor heap keeps a collection from landing
                   mid-run and promoting that data, which otherwise lifts
                   the runner's peak heap by about a quarter. *)
                Gc.minor ();
                let exe =
                  (Toolchain.back_half
                     ~options:{ Toolchain.default_options with scheme; elide }
                     ?after_pass (Ir.copy_module front))
                    .Toolchain.exe
                in
                let run engine =
                  ( engine,
                    System.run ~max_instructions ~engine
                      ~variant:System.Processor_kernel_modified exe )
                in
                let runs = List.map run engines in
                let exp_s = Ir_eval.behavior_to_string expect in
                List.iter
                  (fun (engine, ms) ->
                    check scheme
                      ("oracle-vs-" ^ Machine.engine_name engine)
                      ~expected:exp_s
                      ~actual:(Ir_eval.behavior_to_string (behavior_of_measurement ms)))
                  runs;
                (* engines are documented exact on every architectural
                   counter: pin each engine's to the first one's *)
                match runs with
                | [] -> ()
                | (e0, m0) :: rest ->
                  List.iter
                    (fun (e, (m : System.measurement)) ->
                      match Metrics.core_diff m0.System.metrics m.System.metrics with
                      | None -> ()
                      | Some (field, x, y) ->
                        check scheme
                          (Machine.engine_name e0 ^ "-vs-" ^ Machine.engine_name e)
                          ~expected:(field ^ "=" ^ x) ~actual:(field ^ "=" ^ y))
                    rest
              end)
            oracle;
          match !divergence with Some d -> Divergent d | None -> Agree oracle
        with Toolchain.Compile_error e -> Skipped ("compile: " ^ e)))
