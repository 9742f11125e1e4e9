(** The toolchain driver: MiniC source → hardened executable image
    (parse → lower → hardening pass → codegen → assemble → link with the
    runtime), mirroring the paper's Clang/LLVM + binutils flow.  The
    pipeline has a scheme-independent {!front_half} and a per-scheme
    {!back_half}; {!compile_ast} is their composition. *)

type options = {
  scheme : Roload_passes.Pass.scheme;
  compress : bool;  (** RVC compression, including c.ld.ro *)
  separate_code : bool;  (** the `-z separate-code` analogue (paper §V-B) *)
  optimize : bool;  (** IR constant folding + dead-code elimination *)
  elide : bool;
      (** proof-guided ld.ro check elision: run roload-prove over the
          hardened IR and, only on a clean run, let roload-elide rewrite
          provably-safe keyed sites to plain loads behind one hoisted
          check.  A non-clean prove run disables the rewrite (the module
          compiles unchanged, zero sites elided); use [roloadc --prove]
          as the verification gate. *)
}

val default_options : options
(** Unprotected, compression on, separate-code on, optimization on,
    elision off. *)

type artifacts = {
  ir_module : Roload_ir.Ir.modul;
  pass_report : Roload_passes.Pass.report;
  asm_items : Roload_asm.Asm_ir.item list;
  program_object : Roload_obj.Objfile.t;
  exe : Roload_obj.Exe.t;
  elide_stats : Roload_passes.Roload_elide.stats option;
      (** [Some] iff compiled with [options.elide] *)
}

exception Compile_error of string

val runtime_object : compress:bool -> Roload_obj.Objfile.t
(** The assembled runtime (startup, print helpers, allocator), built once
    per compression setting at module initialisation and shared by every
    link. *)

val wrap_errors : (unit -> 'a) -> 'a
(** Run a pipeline fragment, converting front-end / assembler / linker
    failures into {!Compile_error}. *)

val front_half :
  ?options:options -> name:string -> Roload_front.Ast.program -> Roload_ir.Ir.modul
(** The scheme-independent front half: lower → verify → (when
    [options.optimize]) constant folding and dead-code elimination →
    verify.  Only [options.optimize] is read.  The AST is not mutated.
    Raises {!Compile_error} like {!compile}. *)

val back_half :
  ?options:options ->
  ?after_pass:(Roload_passes.Pass.scheme -> Roload_ir.Ir.modul -> unit) ->
  Roload_ir.Ir.modul ->
  artifacts
(** The per-scheme back half: hardening pass → verify → elision →
    [after_pass] → codegen → assemble → link.  It mutates the module it
    is given, which becomes the artifacts' [ir_module]; to compile one
    front half under several schemes, give each call its own
    [Roload_ir.Ir.copy_module].  [after_pass] sees the module after
    hardening and elision, immediately before codegen — the exact IR
    codegen gets — and may mutate it (roload-fuzz plants its miscompile
    there).  Raises {!Compile_error} like {!compile}. *)

val compile_ast :
  ?options:options ->
  ?after_pass:(Roload_passes.Pass.scheme -> Roload_ir.Ir.modul -> unit) ->
  name:string ->
  Roload_front.Ast.program ->
  artifacts
(** [back_half (front_half ast)]: the whole pipeline from a parsed
    program.  The AST is not mutated, so one parse can feed any number
    of compiles. *)

val parse : string -> Roload_front.Ast.program
(** The front end's parse, raising {!Compile_error} with a located
    message. *)

val compile : ?options:options -> name:string -> string -> artifacts
(** Parse, then {!compile_ast}.  Raises {!Compile_error} with a located
    message on any front-end, assembler or linker failure. *)

val compile_exe : ?options:options -> name:string -> string -> Roload_obj.Exe.t
val asm_text : artifacts -> string

val lint : artifacts -> Roload_analysis.Diagnostic.t list
(** Static verification (roload-lint) of the compiled artifacts at all
    three layers: IR protection-completeness, key-consistency dataflow,
    and the machine-level cross-check of the linked image.  [] when every
    ROLoad invariant holds. *)

val prove : artifacts -> Roload_analysis.Prove.result
(** roload-prove: whole-program pointee-integrity abstract
    interpretation over the hardened IR (see
    [Roload_analysis.Prove]). *)
