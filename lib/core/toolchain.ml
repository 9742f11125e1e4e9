(* The toolchain driver: MiniC source → hardened executable image.

   Pipeline (mirroring the paper's Clang/LLVM + binutils flow):
     parse → lower to IR → hardening pass (ROLoad-md annotation & friends)
     → code generation → assemble (with RVC compression) → link with the
     runtime (with separate-code layout).

   It is split in two halves.  The front half (lower, optimize) does not
   depend on the scheme; the back half (pass, elide, codegen, assemble,
   link) runs once per scheme and mutates the module it is given.  A
   driver that compiles one program under several schemes runs the front
   half once and gives each back half an [Ir.copy_module] of it. *)

module Ir = Roload_ir.Ir
module Pass = Roload_passes.Pass

type options = {
  scheme : Pass.scheme;
  compress : bool; (* RVC compression, incl. c.ld.ro *)
  separate_code : bool; (* the `-z separate-code` analogue *)
  optimize : bool; (* constant folding + dead-code elimination *)
  elide : bool; (* proof-guided ld.ro check elision (roload-prove + roload-elide) *)
}

let default_options =
  {
    scheme = Pass.Unprotected;
    compress = true;
    separate_code = true;
    optimize = true;
    elide = false;
  }

type artifacts = {
  ir_module : Ir.modul;
  pass_report : Pass.report;
  asm_items : Roload_asm.Asm_ir.item list;
  program_object : Roload_obj.Objfile.t;
  exe : Roload_obj.Exe.t;
  elide_stats : Roload_passes.Roload_elide.stats option;
}

exception Compile_error of string

let wrap_errors f =
  try f () with
  | Roload_front.Lexer.Lex_error { line; message } ->
    raise (Compile_error (Printf.sprintf "lex error (line %d): %s" line message))
  | Roload_front.Parser.Parse_error { line; message } ->
    raise (Compile_error (Printf.sprintf "parse error (line %d): %s" line message))
  | Roload_front.Lower.Sema_error { line; message } ->
    raise (Compile_error (Printf.sprintf "semantic error (line %d): %s" line message))
  | Roload_asm.Assemble.Error m -> raise (Compile_error ("assembler: " ^ m))
  | Roload_link.Linker.Error m -> raise (Compile_error ("linker: " ^ m))
  | Roload_codegen.Codegen.Error m -> raise (Compile_error ("codegen: " ^ m))
  | Failure m -> raise (Compile_error m)

let assemble ~compress items =
  Roload_asm.Assemble.assemble ~options:{ Roload_asm.Assemble.compress } items

(* The runtime objects are assembled once, at module initialisation, for
   both compression settings.  Objects are immutable values and the
   linker copies their section bytes into buffers of its own, so one
   object serves every link, from any domain.  (A [Lazy.t] would not do:
   forcing one lazy from two domains at once raises.) *)
let prebuilt source =
  let build compress = assemble ~compress (Roload_asm.Asm_parser.parse source) in
  let compressed = build true and plain = build false in
  fun ~compress -> if compress then compressed else plain

let runtime_object = prebuilt Runtime.source

(* The multi-process stubs live in a separate object linked only when the
   program references them: appending an object to a link shifts no
   existing symbol, so single-process binaries stay byte-identical. *)
let ext_runtime_symbols =
  [ "fork"; "wait"; "read_request"; "complete_request"; "server_checksum" ]

let runtime_ext_object = prebuilt Runtime.ext_source

let calls_ext_runtime (m : Ir.modul) =
  List.exists
    (fun (f : Ir.func) ->
      List.exists
        (fun (b : Ir.block) ->
          List.exists
            (function
              | Ir.Call { callee; _ } -> List.mem callee ext_runtime_symbols
              | _ -> false)
            b.Ir.b_instrs)
        f.Ir.f_blocks)
    m.Ir.m_funcs

let front_half ?(options = default_options) ~name ast =
  wrap_errors (fun () ->
      let m = Roload_front.Lower.lower ast ~module_name:name in
      Roload_ir.Verify.check_module_exn m;
      if options.optimize then begin
        ignore (Roload_passes.Constfold.run m);
        ignore (Roload_passes.Dce.run m);
        Roload_ir.Verify.check_module_exn m
      end;
      m)

let back_half ?(options = default_options) ?after_pass m =
  wrap_errors (fun () ->
      let pass_report = Pass.apply options.scheme m in
      Roload_ir.Verify.check_module_exn m;
      (* Proof-guided check elision: only under a clean whole-program
         prove run of this exact hardened module.  Any finding or wild
         store makes [Prove.safe_temp] answer None everywhere, so a
         non-clean module compiles unchanged (zero sites elided) rather
         than failing — --elide is an optimisation, `roloadc --prove` is
         the verification gate. *)
      let elide_stats =
        if not options.elide then None
        else begin
          let pr = Roload_analysis.Prove.run m in
          let stats =
            Roload_passes.Roload_elide.run
              ~prove:(fun ~func ~temp ~key ->
                Roload_analysis.Prove.safe_temp pr ~func ~temp ~key)
              m
          in
          Roload_ir.Verify.check_module_exn m;
          Some stats
        end
      in
      Option.iter (fun f -> f options.scheme m) after_pass;
      let asm_items = Roload_codegen.Codegen.emit_module m in
      let program_object = assemble ~compress:options.compress asm_items in
      let objects =
        [ program_object; runtime_object ~compress:options.compress ]
        @
        if calls_ext_runtime m then [ runtime_ext_object ~compress:options.compress ]
        else []
      in
      let exe =
        Roload_link.Linker.link
          ~options:
            { Roload_link.Linker.default_options with
              separate_code = options.separate_code }
          objects
      in
      { ir_module = m; pass_report; asm_items; program_object; exe; elide_stats })

let compile_ast ?options ?after_pass ~name ast =
  back_half ?options ?after_pass (front_half ?options ~name ast)

let parse source = wrap_errors (fun () -> Roload_front.Parser.parse source)
let compile ?options ~name source = compile_ast ?options ~name (parse source)

let compile_exe ?options ~name source = (compile ?options ~name source).exe

(* assembly text of the generated program (inspection / -S output) *)
let asm_text artifacts = Roload_asm.Asm_ir.program_to_string artifacts.asm_items

(* Static verification (roload-lint): check the ROLoad invariants over the
   compiled artifacts at all three layers — IR protection-completeness,
   key-consistency dataflow, and the machine-level cross-check of the
   linked image.  Returns [] when every invariant holds. *)
let lint artifacts =
  Roload_analysis.Lint.run
    ~scheme:artifacts.pass_report.Pass.scheme
    ~ir:artifacts.ir_module ~exe:artifacts.exe

(* roload-prove over the hardened IR of a compiled artifact. *)
let prove artifacts = Roload_analysis.Prove.run artifacts.ir_module
