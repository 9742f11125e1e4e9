(* The differential runner.

   For each scheme: the oracle interprets the freshly-lowered, unhardened
   IR; the compiled pipeline (parse → lower → optimize → pass → codegen →
   assemble → link) runs on both execution engines (single-step
   reference, trace-compiled) under the full ROLoad system variant.  All
   observations must agree on the stop class (exit code / ROLoad fault /
   check abort / plain segfault) and on the exact output bytes; the
   engines must additionally agree on cycle and instruction
   counts (they are documented cycle-exact).  The trace hotness threshold
   is lowered to 1 for the machine runs, so even short generated programs
   exercise the trace compiler rather than skating by on its per-slot
   tier.

   The oracle's fuel and the machines' instruction budget are deliberately
   far apart (200k IR steps vs 50M machine instructions) so a program the
   oracle can finish can never time out on the machine — a machine
   timeout against an oracle exit is therefore a real divergence. *)

module Ir = Roload_ir.Ir
module Pass = Roload_passes.Pass
module Toolchain = Core.Toolchain
module System = Core.System
module Machine = Roload_machine.Machine
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

let lower_fresh ~name source =
  let ast = Roload_front.Parser.parse source in
  Roload_front.Lower.lower ast ~module_name:name

let oracle_behaviors ?(schemes = schemes_under_test) source =
  let m = lower_fresh ~name:"oracle" source in
  List.map (fun scheme -> (scheme, Ir_eval.run ~scheme m)) schemes

(* the toolchain pipeline with a post-pass hook, for --check-oracle *)
let compile_sabotaged ~scheme ~sabotage ~name source =
  Toolchain.(
    wrap_errors (fun () ->
        let m = lower_fresh ~name source in
        Roload_ir.Verify.check_module_exn m;
        ignore (Roload_passes.Constfold.run m);
        ignore (Roload_passes.Dce.run m);
        Roload_ir.Verify.check_module_exn m;
        ignore (Pass.apply scheme m);
        let bit = sabotage scheme m in
        let asm_items = Roload_codegen.Codegen.emit_module m in
        let obj =
          Roload_asm.Assemble.assemble
            ~options:{ Roload_asm.Assemble.compress = true }
            asm_items
        in
        let exe =
          Roload_link.Linker.link
            ~options:
              { Roload_link.Linker.default_options with separate_code = true }
            [ obj; runtime_object ~compress:true ]
        in
        (exe, bit)))

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

(* One pristine boot image per engine, forked for every machine run.
   Forking a just-created machine is bit-identical to [Machine.create]
   (the snapshot and campaign-equivalence suites pin this), and CoW page
   sharing makes each fork O(touched pages), so a fuzz campaign pays the
   64 MiB physical-memory boot once per engine instead of 18 times per
   case.  Templates are captured lazily inside [run_source]'s
   hot-threshold window, so the image (and therefore every fork) carries
   the fuzz threshold of 1 and still exercises the trace compiler. *)
let template_lock = Mutex.create ()
let boot_templates : (Machine.engine, Machine.image) Hashtbl.t = Hashtbl.create 4

let boot_template engine =
  Mutex.protect template_lock (fun () ->
      match Hashtbl.find_opt boot_templates engine with
      | Some img -> img
      | None ->
        let img =
          Machine.snapshot
            (Machine.create ~engine
               (System.machine_config System.Processor_kernel_modified))
        in
        Hashtbl.add boot_templates engine img;
        img)

let run_source ?(schemes = schemes_under_test) ?(engines = engines_under_test)
    ?(max_instructions = 50_000_000L) ?(fuel = 200_000) ?(elide = false) ?sabotage
    ~name source =
  let engines = if engines = [] then engines_under_test else engines in
  (* one unhardened lowering for the oracle; each scheme re-enters the
     full pipeline from source, parser included *)
  match
    let m = lower_fresh ~name source in
    List.map (fun scheme -> (scheme, Ir_eval.run ~fuel ~scheme m)) schemes
  with
  | exception Ir_eval.Unsupported r -> Skipped ("oracle: " ^ r)
  | exception Toolchain.Compile_error e -> Skipped ("compile: " ^ e)
  | exception Roload_front.Parser.Parse_error { line; message } ->
    Skipped (Printf.sprintf "parse (line %d): %s" line message)
  | exception Roload_front.Lower.Sema_error { line; message } ->
    Skipped (Printf.sprintf "sema (line %d): %s" line message)
  | oracle -> (
    let divergence = ref None in
    let check scheme stage ~expected ~actual =
      if !divergence = None && expected <> actual then
        divergence :=
          Some { dv_scheme = scheme; dv_stage = stage; dv_expected = expected; dv_actual = actual }
    in
    let prev_hot = Machine.default_hot_threshold () in
    Machine.set_default_hot_threshold 1;
    Fun.protect
      ~finally:(fun () -> Machine.set_default_hot_threshold prev_hot)
      (fun () ->
        try
          List.iter
            (fun (scheme, expect) ->
              if !divergence = None then begin
                let exe =
                  match sabotage with
                  | None ->
                    Toolchain.compile_exe
                      ~options:{ Toolchain.default_options with scheme; elide }
                      ~name source
                  | Some hook ->
                    fst (compile_sabotaged ~scheme ~sabotage:hook ~name source)
                in
                let run engine =
                  ( engine,
                    System.run ~max_instructions ~template:(boot_template engine)
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
                (* engines are documented cycle-exact: pin every engine's
                   counters to the first one's *)
                let counters (ms : System.measurement) =
                  Printf.sprintf "cycles=%Ld instructions=%Ld" ms.System.cycles
                    ms.System.instructions
                in
                match runs with
                | [] -> ()
                | (e0, m0) :: rest ->
                  List.iter
                    (fun (e, m) ->
                      check scheme
                        (Machine.engine_name e0 ^ "-vs-" ^ Machine.engine_name e)
                        ~expected:(counters m0) ~actual:(counters m))
                    rest
              end)
            oracle;
          match !divergence with Some d -> Divergent d | None -> Agree oracle
        with Toolchain.Compile_error e -> Skipped ("compile: " ^ e)))
