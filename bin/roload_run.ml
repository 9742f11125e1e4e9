(* roload_run — load an .rxe image and run it on the simulated system.

   Usage: roload_run prog.rxe [--system baseline|processor|full]
                              [--engine single|traced]
                              [--trace out.json] [--trace-text out.txt]
                              [--profile] [--metrics] [--disasm N] *)

open Cmdliner

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let run path system_name engine_name verbose disasm_count trace_path trace_text_path
    profile metrics =
  let module Machine = Roload_machine.Machine in
  let engine =
    match engine_name with
    | None -> None
    | Some name -> (
      match Machine.engine_of_string name with
      | Ok e -> Some e
      | Error msg ->
        prerr_endline msg;
        exit 2)
  in
  (* validate ROLOAD_ENGINE and ROLOAD_TRACE_HOT up front so a typo is a
     clean usage error, not an uncaught exception mid-run *)
  (try
     if engine = None then ignore (Machine.effective_engine ());
     ignore (Machine.effective_hot_threshold ())
   with Failure msg ->
     prerr_endline msg;
     exit 2);
  let variant =
    match system_name with
    | "baseline" -> Core.System.Baseline
    | "processor" -> Core.System.Processor_modified
    | "full" | "processor+kernel" -> Core.System.Processor_kernel_modified
    | other ->
      Printf.eprintf "unknown system %s (expected baseline|processor|full)\n" other;
      exit 2
  in
  let exe = Roload_obj.Exe.load path in
  let trace =
    if disasm_count <= 0 then None
    else begin
      let remaining = ref disasm_count in
      Some
        (fun ~pc inst ->
          if !remaining > 0 then begin
            decr remaining;
            Printf.eprintf "%8x:  %s\n" pc (Roload_isa.Inst.to_string inst)
          end)
    end
  in
  let tracer =
    match (trace_path, trace_text_path) with
    | None, None -> None
    | Some _, _ | _, Some _ -> Some (Roload_obs.Tracer.create ())
  in
  let m = Core.System.run ?trace ?tracer ?engine ~profile ~variant exe in
  print_string m.Core.System.output;
  (match (tracer, trace_path) with
  | Some tr, Some p ->
    write_file p (Roload_obs.Tracer.to_chrome_json tr);
    Printf.eprintf "trace: %d events (%d dropped) -> %s\n" (Roload_obs.Tracer.length tr)
      (Roload_obs.Tracer.dropped tr) p
  | _ -> ());
  (match (tracer, trace_text_path) with
  | Some tr, Some p ->
    write_file p (Roload_obs.Tracer.to_text tr);
    Printf.eprintf "trace text: %d events -> %s\n" (Roload_obs.Tracer.length tr) p
  | _ -> ());
  if profile then begin
    prerr_string (Roload_obs.Profile.render m.Core.System.profile);
    (* trace coverage: which share of retired instructions ran inside a
       compiled trace — the observable for tuning ROLOAD_TRACE_HOT *)
    let mt = m.Core.System.metrics in
    let cov =
      if Int64.equal mt.Roload_obs.Metrics.instructions 0L then 0.
      else
        100.
        *. Int64.to_float (Int64.of_int mt.Roload_obs.Metrics.trace_retires)
        /. Int64.to_float mt.Roload_obs.Metrics.instructions
    in
    Printf.eprintf
      "trace coverage: %5.1f%%  (%d of %Ld retired instructions in %d compiled traces, \
       %d trace entries)\n"
      cov mt.Roload_obs.Metrics.trace_retires mt.Roload_obs.Metrics.instructions
      mt.Roload_obs.Metrics.traces_compiled mt.Roload_obs.Metrics.trace_enters
  end;
  if metrics then prerr_endline (Roload_obs.Metrics.to_json m.Core.System.metrics);
  if verbose then begin
    Printf.eprintf "status:       %s\n" (Core.System.status_string m);
    Printf.eprintf "instructions: %Ld\n" m.Core.System.instructions;
    Printf.eprintf "cycles:       %Ld\n" m.Core.System.cycles;
    Printf.eprintf "peak memory:  %d KiB (footprint %d bytes)\n" m.Core.System.peak_kib
      m.Core.System.footprint_bytes;
    Printf.eprintf "ld.ro executed: %d\n" m.Core.System.roloads_executed
  end;
  match m.Core.System.status with
  | Roload_kernel.Process.Exited n -> exit n
  | Roload_kernel.Process.Killed sg ->
    Printf.eprintf "%s\n" (Roload_kernel.Signal.to_string sg);
    exit 128
  | Roload_kernel.Process.Running ->
    Printf.eprintf "instruction limit exhausted\n";
    exit 124

let path_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"PROG.rxe")

let system_arg =
  Arg.(value & opt string "full"
       & info [ "system" ] ~doc:"System variant: baseline, processor, or full.")

let engine_arg =
  Arg.(value & opt (some string) None
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:
             "Execution engine: single or traced (default: \\$ROLOAD_ENGINE, else \
              traced). The engines are cycle-exact to each other; \
              \\$ROLOAD_TRACE_HOT=1000000000 runs traced without trace compilation.")

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print run statistics.")

let disasm_arg =
  Arg.(value & opt int 0
       & info [ "disasm" ] ~docv:"N" ~doc:"Disassemble the first N retired instructions to stderr.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome-trace-format JSON event trace (cycle-stamped; load in chrome://tracing) to $(docv).")

let trace_text_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-text" ] ~docv:"FILE"
           ~doc:"Write the compact text event trace to $(docv).")

let profile_arg =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Profile the block cache and print the hottest blocks (with disassembly) to stderr.")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ] ~doc:"Print the run's metrics snapshot as JSON to stderr.")

let cmd =
  Cmd.v
    (Cmd.info "roload_run" ~doc:"Run an RXE image on the simulated ROLoad system")
    Term.(const run $ path_arg $ system_arg $ engine_arg $ verbose_arg $ disasm_arg
          $ trace_arg $ trace_text_arg $ profile_arg $ metrics_arg)

let () = exit (Cmd.eval cmd)
