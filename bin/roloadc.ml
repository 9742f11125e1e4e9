(* roloadc — the MiniC compiler driver.

   Usage:
     roloadc input.mc -o prog.rxe --scheme vcall
     roloadc input.mc -S                     # print assembly
     roloadc input.mc --map                  # print the link map
     roloadc input.mc --lint --scheme icall  # static verification
     roloadc input.mc --prove --scheme icall # whole-program prover
     roloadc input.mc --elide --scheme icall # proof-guided check elision *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let scheme_list = "none|vcall|icall|retcall|vtint|cfi"

let compile input output scheme_name asm_only map lint lint_format prove prove_format
    elide compress separate_code optimize =
  match Roload_passes.Pass.scheme_of_string scheme_name with
  | None ->
    Printf.eprintf "unknown scheme %s (expected %s)\n" scheme_name scheme_list;
    exit 2
  | Some scheme -> (
    let check_format what fmt =
      if fmt <> "human" && fmt <> "json" then begin
        Printf.eprintf "unknown %s format %s (expected human|json)\n" what fmt;
        exit 2
      end
    in
    check_format "lint" lint_format;
    check_format "prove" prove_format;
    (match List.filter snd [ ("-S", asm_only); ("--lint", lint); ("--prove", prove) ] with
    | _ :: _ :: _ as modes ->
      Printf.eprintf "%s are mutually exclusive (pick one)\n"
        (String.concat " and " (List.map fst modes));
      exit 2
    | [] | [ _ ] -> ());
    let source = read_file input in
    let options = { Core.Toolchain.scheme; compress; separate_code; optimize; elide } in
    let name = Filename.remove_extension (Filename.basename input) in
    try
      let artifacts = Core.Toolchain.compile ~options ~name source in
      if asm_only then print_string (Core.Toolchain.asm_text artifacts)
      else if prove then begin
        let result = Core.Toolchain.prove artifacts in
        (match prove_format with
        | "json" -> print_string (Roload_analysis.Prove.report_to_json result)
        | _ -> print_string (Roload_analysis.Prove.report_to_string result));
        exit (Roload_analysis.Prove.exit_code result)
      end
      else if lint then begin
        let findings = Core.Toolchain.lint artifacts in
        (match lint_format with
        | "json" -> print_string (Roload_analysis.Diagnostic.report_to_json findings)
        | _ -> print_string (Roload_analysis.Diagnostic.report_to_string findings));
        exit (Roload_analysis.Lint.exit_code findings)
      end
      else begin
        if map then print_string (Roload_link.Linker.map_string artifacts.Core.Toolchain.exe);
        let out = match output with Some o -> o | None -> name ^ ".rxe" in
        Roload_obj.Exe.save artifacts.Core.Toolchain.exe out;
        let report = artifacts.Core.Toolchain.pass_report in
        List.iter
          (fun (k, v) -> Printf.printf "%s: %d\n" k v)
          report.Roload_passes.Pass.annotations;
        (match artifacts.Core.Toolchain.elide_stats with
        | None -> ()
        | Some s ->
          Printf.printf
            "elide: %d icall site(s), %d load site(s), %d const, %d check(s) (%d guarded)\n"
            s.Roload_passes.Roload_elide.el_icalls s.Roload_passes.Roload_elide.el_loads
            s.Roload_passes.Roload_elide.el_const s.Roload_passes.Roload_elide.el_checks
            s.Roload_passes.Roload_elide.el_guards);
        Printf.printf "wrote %s (%d segments, entry 0x%x)\n" out
          (List.length artifacts.Core.Toolchain.exe.Roload_obj.Exe.segments)
          artifacts.Core.Toolchain.exe.Roload_obj.Exe.entry
      end
    with Core.Toolchain.Compile_error e ->
      Printf.eprintf "error: %s\n" e;
      exit 1)

let input_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT.mc")
let output_arg = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT.rxe")

let scheme_arg =
  Arg.(value & opt string "none"
       & info [ "scheme" ]
           ~doc:"Hardening scheme: none, vcall, icall, retcall, vtint, cfi.")

let asm_arg = Arg.(value & flag & info [ "S" ] ~doc:"Print generated assembly and stop.")
let map_arg = Arg.(value & flag & info [ "map" ] ~doc:"Print the link map.")

let lint_arg =
  Arg.(value & flag
       & info [ "lint" ]
           ~doc:"Run the roload-lint static verifier over the compiled program instead \
                 of writing an executable; exits 3 if any invariant is violated.")

let lint_format_arg =
  Arg.(value & opt string "human"
       & info [ "lint-format" ] ~docv:"FMT" ~doc:"Lint report format: human or json.")

let prove_arg =
  Arg.(value & flag
       & info [ "prove" ]
           ~doc:"Run roload-prove, the whole-program pointee-integrity prover, over the \
                 hardened IR instead of writing an executable; exits 3 on any finding.")

let prove_format_arg =
  Arg.(value & opt string "human"
       & info [ "prove-format" ] ~docv:"FMT" ~doc:"Prove report format: human or json.")

let elide_arg =
  Arg.(value & flag
       & info [ "elide" ]
           ~doc:"Proof-guided ld.ro check elision: compile with roload-prove and rewrite \
                 provably-safe keyed sites to plain loads behind one hoisted check. A \
                 non-clean prove run disables the rewrite (zero sites elided); use \
                 --prove as the verification gate.")

let compress_arg =
  Arg.(value & opt bool true & info [ "compress" ] ~doc:"RVC compression (incl. c.ld.ro).")

let separate_arg =
  Arg.(value & opt bool true
       & info [ "separate-code" ] ~doc:"Keep read-only data off executable pages.")

let optimize_arg =
  Arg.(value & opt bool true
       & info [ "optimize" ] ~doc:"IR constant folding and dead-code elimination.")

let cmd =
  Cmd.v
    (Cmd.info "roloadc" ~doc:"MiniC compiler targeting the simulated ROLoad RV64 system")
    Term.(
      const compile $ input_arg $ output_arg $ scheme_arg $ asm_arg $ map_arg $ lint_arg
      $ lint_format_arg $ prove_arg $ prove_format_arg $ elide_arg $ compress_arg
      $ separate_arg $ optimize_arg)

let () = exit (Cmd.eval cmd)
