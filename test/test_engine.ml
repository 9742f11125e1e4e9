(* Execution-engine equivalence tests: the trace-compiled engine must be
   observably indistinguishable —
   architectural state, traps, output, and every cycle/cache/TLB
   counter — from the retained single-step reference interpreter, on
   random programs, on every hardening scheme, and across
   self-modifying code.  The traced runs force the hotness threshold to
   1 so even short test programs actually compile traces. *)

module Machine = Roload_machine.Machine
module Config = Roload_machine.Config
module Kernel = Roload_kernel.Kernel
module Process = Roload_kernel.Process
module Inst = Roload_isa.Inst
module Reg = Roload_isa.Reg
module Encode = Roload_isa.Encode
module Pass = Roload_passes.Pass
module Suite = Roload_workloads.Spec_suite
module System = Core.System
module Exp = Core.Experiments

(* ---------- measurement comparison ---------- *)

let stats_pair (s : System.cache_stats) = (s.System.accesses, s.System.misses)

let check_same_measurement ctx (a : System.measurement) (b : System.measurement) =
  let chk : 'a. string -> 'a Alcotest.testable -> 'a -> 'a -> unit =
   fun name ty x y -> Alcotest.check ty (ctx ^ ": " ^ name) x y
  in
  chk "status" Alcotest.string (System.status_string a) (System.status_string b);
  chk "cycles" Alcotest.int64 a.System.cycles b.System.cycles;
  chk "instructions" Alcotest.int64 a.System.instructions b.System.instructions;
  chk "output" Alcotest.string a.System.output b.System.output;
  chk "peak_kib" Alcotest.int a.System.peak_kib b.System.peak_kib;
  chk "footprint" Alcotest.int a.System.footprint_bytes b.System.footprint_bytes;
  chk "roloads" Alcotest.int a.System.roloads_executed b.System.roloads_executed;
  let pair = Alcotest.(pair int int) in
  chk "icache" pair (stats_pair a.System.icache) (stats_pair b.System.icache);
  chk "dcache" pair (stats_pair a.System.dcache) (stats_pair b.System.dcache);
  chk "itlb" pair (stats_pair a.System.itlb) (stats_pair b.System.itlb);
  chk "dtlb" pair (stats_pair a.System.dtlb) (stats_pair b.System.dtlb)

(* force immediate trace compilation inside [f], restoring afterwards *)
let with_hot_threshold n f =
  let prev = Machine.default_hot_threshold () in
  Machine.set_default_hot_threshold n;
  Fun.protect ~finally:(fun () -> Machine.set_default_hot_threshold prev) f

let run_both_engines ?(variant = System.Processor_kernel_modified) ~ctx exe =
  let stepped = System.run ~engine:Machine.Single_step ~variant exe in
  let traced =
    with_hot_threshold 1 (fun () -> System.run ~engine:Machine.Traced ~variant exe)
  in
  check_same_measurement (ctx ^ "/traced-vs-single") traced stepped;
  traced

(* ---------- random MiniC programs (straight-line + branchy) ---------- *)

(* A generator over a small MiniC fragment: assignments of random
   arithmetic over four variables, nested if/else, and bounded while
   loops (each loop gets a fresh counter, so every program terminates).
   Division and remainder are included — RISC-V defines x/0 without
   trapping, and both engines must agree on that too. *)
let gen_source rs =
  let open QCheck.Gen in
  let vars = [| "a"; "b"; "c"; "d" |] in
  let var () = vars.(int_bound 3 rs) in
  let rec expr depth =
    if depth <= 0 || bool rs then
      if bool rs then string_of_int (int_bound 40 rs) else var ()
    else
      let op = [| "+"; "-"; "*"; "/"; "%" |].(int_bound 4 rs) in
      Printf.sprintf "(%s %s %s)" (expr (depth - 1)) op (expr (depth - 1))
  in
  let loop_id = ref 0 in
  let buf = Buffer.create 256 in
  let rec stmts depth n indent =
    for _ = 1 to n do
      match if depth <= 0 then 0 else int_bound 3 rs with
      | 0 | 1 ->
        Buffer.add_string buf (Printf.sprintf "%s%s = %s;\n" indent (var ()) (expr 2))
      | 2 ->
        Buffer.add_string buf
          (Printf.sprintf "%sif (%s < %s) {\n" indent (expr 1) (expr 1));
        stmts (depth - 1) (1 + int_bound 1 rs) (indent ^ "  ");
        Buffer.add_string buf (indent ^ "} else {\n");
        stmts (depth - 1) (1 + int_bound 1 rs) (indent ^ "  ");
        Buffer.add_string buf (indent ^ "}\n")
      | _ ->
        incr loop_id;
        let i = Printf.sprintf "t%d" !loop_id in
        let bound = 1 + int_bound 5 rs in
        Buffer.add_string buf
          (Printf.sprintf "%sint %s;\n%s%s = 0;\n%swhile (%s < %d) {\n" indent i indent
             i indent i bound);
        stmts (depth - 1) (1 + int_bound 1 rs) (indent ^ "  ");
        Buffer.add_string buf (Printf.sprintf "%s  %s = %s + 1;\n%s}\n" indent i i indent)
    done
  in
  stmts 2 (3 + int_bound 4 rs) "  ";
  Printf.sprintf
    "int main() {\n\
    \  int a; int b; int c; int d;\n\
    \  a = %d; b = %d; c = %d; d = %d;\n\
     %s\
    \  print_int(a + b + c + d);\n\
    \  return 0;\n\
     }\n"
    (int_bound 9 rs) (int_bound 9 rs) (int_bound 9 rs) (int_bound 9 rs)
    (Buffer.contents buf)

let gen_case rs =
  let open QCheck.Gen in
  let scheme = oneofl Pass.all_schemes rs in
  (gen_source rs, scheme)

let arb_case =
  QCheck.make gen_case ~print:(fun (src, scheme) ->
      Printf.sprintf "// scheme %s\n%s" (Pass.scheme_name scheme) src)

let prop_engines_agree =
  QCheck.Test.make ~count:25 ~name:"traced engine == single-step reference"
    arb_case
    (fun (src, scheme) ->
      let exe =
        Core.Toolchain.compile_exe
          ~options:{ Core.Toolchain.default_options with scheme }
          ~name:"rand" src
      in
      let ctx = Pass.scheme_name scheme in
      ignore (run_both_engines ~ctx exe);
      ignore (run_both_engines ~variant:System.Baseline ~ctx:(ctx ^ "/baseline") exe);
      true)

(* ---------- all schemes on scheme-rich code ---------- *)

(* The random programs above have no indirect calls, so the hardening
   schemes barely fire on them.  The security victim exercises vcalls,
   icalls and returns; every scheme must behave identically on both
   engines, ld.ro accounting included. *)
let test_all_schemes_victim () =
  List.iter
    (fun scheme ->
      let exe =
        Core.Toolchain.compile_exe
          ~options:{ Core.Toolchain.default_options with scheme }
          ~name:"victim" Roload_security.Victim.source
      in
      let m = run_both_engines ~ctx:(Pass.scheme_name scheme) exe in
      Alcotest.(check bool)
        (Pass.scheme_name scheme ^ ": victim runs")
        true (System.exited_cleanly m))
    Pass.all_schemes

(* ---------- self-modifying code (satellite bugfix regression) ---------- *)

let enc inst = Int64.of_int (Encode.encode inst)

(* mmap an RWX page, write [addi a0, x0, 7; ret] into it, call it, then
   overwrite the first word with [addi a0, x0, 35] and call again.  A
   stale decode/block cache replays the old body and exits 14; the
   store-invalidation fix makes both calls see fresh code and exits 42. *)
let self_modifying_src =
  Printf.sprintf
    {|
.section .text
_start:
    li a0, 0
    li a1, 4096
    li a2, 7
    li a3, 0
    li a4, 0
    li a7, 222
    ecall
    mv s0, a0
    li t0, %Ld
    sw t0, 0(s0)
    li t1, %Ld
    sw t1, 4(s0)
    jalr s0
    mv s1, a0
    li t2, %Ld
    sw t2, 0(s0)
    jalr s0
    add a0, a0, s1
    li a7, 93
    ecall
|}
    (enc (Inst.Op_imm (Inst.Add, Reg.a0, Reg.zero, 7L)))
    (enc (Inst.Jalr (Reg.zero, Reg.ra, 0L)))
    (enc (Inst.Op_imm (Inst.Add, Reg.a0, Reg.zero, 35L)))

let build_exe src =
  let items = Roload_asm.Asm_parser.parse src in
  let obj = Roload_asm.Assemble.assemble items in
  Roload_link.Linker.link [ obj ]

let exec_on ~engine exe =
  let machine = Machine.create ~engine Config.default in
  let kernel = Kernel.create ~machine ~config:Kernel.default_config in
  let _process, outcome = Kernel.exec kernel exe in
  (machine, outcome)

let check_exit ctx expected (outcome : Kernel.run_outcome) =
  match outcome.Kernel.status with
  | Process.Exited n when n = expected -> ()
  | s ->
    Alcotest.failf "%s: expected Exited %d, got %s" ctx expected
      (match s with
      | Process.Exited n -> Printf.sprintf "Exited %d" n
      | Process.Killed sg -> Roload_kernel.Signal.to_string sg
      | Process.Running -> "Running")

let test_self_modifying () =
  let exe = build_exe self_modifying_src in
  let _, stepped = exec_on ~engine:Machine.Single_step exe in
  check_exit "single-step engine" 42 stepped;
  let _, traced =
    with_hot_threshold 1 (fun () -> exec_on ~engine:Machine.Traced exe)
  in
  check_exit "traced engine" 42 traced;
  Alcotest.(check int64) "traced cycles agree" traced.Kernel.cycles
    stepped.Kernel.cycles;
  Alcotest.(check int64) "traced instructions agree" traced.Kernel.instructions
    stepped.Kernel.instructions

(* Stores to non-code pages must NOT flush the decode/block caches: run
   a program that stores into its writable data page (which, under the
   default layout, sits adjacent to the executable segment) and check
   the caches built while executing it survived to the end. *)
let adjacent_store_src = {|
.section .text
_start:
    la a1, buf
    li t0, 1234
    sd t0, 0(a1)
    ld a0, 0(a1)
    sb t0, 8(a1)
    li a0, 0
    li a7, 93
    ecall
.section .data
buf:
    .quad 0
    .quad 0
|}

let test_adjacent_page_store_keeps_caches () =
  let exe = build_exe adjacent_store_src in
  let machine, outcome = exec_on ~engine:Machine.Traced exe in
  check_exit "adjacent store" 0 outcome;
  Alcotest.(check bool) "blocks survive data-page stores" true
    (Machine.cached_blocks machine > 0);
  Alcotest.(check bool) "decodes survive data-page stores" true
    (Machine.cached_decodes machine > 0)

let test_code_page_store_flushes () =
  let exe = build_exe self_modifying_src in
  let machine, outcome = exec_on ~engine:Machine.Traced exe in
  check_exit "self-modifying" 42 outcome;
  (* the final block (the rewritten mmap page code ran last, then the
     exit sequence re-decoded) is small: the flush really dropped the
     pre-store decodes *)
  Alcotest.(check bool) "flush dropped stale decodes" true
    (Machine.cached_decodes machine < 10)

(* The traced-engine variant of the regression above: call the mmap'd
   code in a loop until it is trace-compiled (hot threshold 1), then
   overwrite it — the store must flush the *compiled trace*, not just
   the decoded block.  8 calls returning 7, then one returning 35 after
   the rewrite: exit 91.  A stale trace replays 7 and exits 63. *)
let trace_smc_src =
  Printf.sprintf
    {|
.section .text
_start:
    li a0, 0
    li a1, 4096
    li a2, 7
    li a3, 0
    li a4, 0
    li a7, 222
    ecall
    mv s0, a0
    li t0, %Ld
    sw t0, 0(s0)
    li t1, %Ld
    sw t1, 4(s0)
    li s1, 0
    li t3, 0
    li t4, 8
loop:
    jalr s0
    add s1, s1, a0
    addi t3, t3, 1
    blt t3, t4, loop
    li t2, %Ld
    sw t2, 0(s0)
    jalr s0
    add a0, a0, s1
    li a7, 93
    ecall
|}
    (enc (Inst.Op_imm (Inst.Add, Reg.a0, Reg.zero, 7L)))
    (enc (Inst.Jalr (Reg.zero, Reg.ra, 0L)))
    (enc (Inst.Op_imm (Inst.Add, Reg.a0, Reg.zero, 35L)))

let test_trace_invalidation () =
  let exe = build_exe trace_smc_src in
  let engines = [ (Machine.Single_step, "single"); (Machine.Traced, "traced") ] in
  let outcomes =
    List.map
      (fun (engine, name) ->
        let machine, outcome =
          with_hot_threshold 1 (fun () -> exec_on ~engine exe)
        in
        check_exit (name ^ " engine") 91 outcome;
        (name, machine, outcome))
      engines
  in
  (* the traced run really compiled a trace over the rewritten page —
     otherwise this test degenerates into the decoded-block regression *)
  let _, traced_machine, traced_outcome =
    List.find (fun (n, _, _) -> n = "traced") outcomes
  in
  Alcotest.(check bool) "a trace was compiled" true
    (Machine.traces_compiled traced_machine >= 1);
  List.iter
    (fun (name, _, (o : Kernel.run_outcome)) ->
      Alcotest.(check int64) (name ^ " cycles agree") traced_outcome.Kernel.cycles
        o.Kernel.cycles;
      Alcotest.(check int64)
        (name ^ " instructions agree")
        traced_outcome.Kernel.instructions o.Kernel.instructions)
    outcomes

(* A store that rewrites a page chained hops land on must invalidate
   the trace they chain into, while the MMU's same-page memo keeps
   replaying the hop's I-TLB hit exactly.  Run a hot loop that chains
   through an mmap'd function on every iteration — so the memo and the
   chain are warm by the time the rewrite happens — then rewrite the
   function *mid-loop* and keep looping through the same chain site.
   8 calls returning 3 then 8 returning 5: exit 64.  A stale trace
   replays 3 and exits 48; a memo that skipped or double-charged the
   TLB scan diverges from the single-step oracle's cycle count. *)
let chain_memo_smc_src =
  Printf.sprintf
    {|
.section .text
_start:
    li a0, 0
    li a1, 4096
    li a2, 7
    li a3, 0
    li a4, 0
    li a7, 222
    ecall
    mv s0, a0
    li t0, %Ld
    sw t0, 0(s0)
    li t1, %Ld
    sw t1, 4(s0)
    li s1, 0
    li t3, 0
    li t4, 16
    li t5, 8
loop:
    jalr s0
    add s1, s1, a0
    addi t3, t3, 1
    bne t3, t5, skip
    li t2, %Ld
    sw t2, 0(s0)
skip:
    blt t3, t4, loop
    mv a0, s1
    li a7, 93
    ecall
|}
    (enc (Inst.Op_imm (Inst.Add, Reg.a0, Reg.zero, 3L)))
    (enc (Inst.Jalr (Reg.zero, Reg.ra, 0L)))
    (enc (Inst.Op_imm (Inst.Add, Reg.a0, Reg.zero, 5L)))

let test_chain_memo_smc () =
  let exe = build_exe chain_memo_smc_src in
  let _, stepped = exec_on ~engine:Machine.Single_step exe in
  check_exit "single-step" 64 stepped;
  let machine, traced =
    with_hot_threshold 1 (fun () -> exec_on ~engine:Machine.Traced exe)
  in
  check_exit "traced" 64 traced;
  Alcotest.(check bool) "traces were compiled" true
    (Machine.traces_compiled machine >= 1);
  Alcotest.(check int64) "traced cycles agree with the oracle" stepped.Kernel.cycles
    traced.Kernel.cycles;
  Alcotest.(check int64) "traced instructions agree with the oracle"
    stepped.Kernel.instructions traced.Kernel.instructions

(* ---------- allocation budget of the traced hot path ---------- *)

(* The traced engine's hot path allocates nothing: registers live in an
   unboxed register file, translation returns an int, and the cache/TLB
   fast paths reuse their handles.  What remains per instruction is the
   amortized cost of compiling traces and of the dispatch loop's rare
   entries.  A trace-hot program — a vcall (ld.ro) loop over loads,
   stores, mul and branches — must stay under one minor-heap word per
   retired instruction; a boxed int64 anywhere on the path costs at
   least two. *)
let hot_loop_src ~iterations =
  Printf.sprintf
    {|
class Shape {
  int k;
  virtual int area(int x) { return x + k; }
};
class Square : Shape {
  virtual int area(int x) { return x * x + k; }
};
int buf[64];
int main() {
  Shape *s = new Square;
  s->k = 3;
  int acc = 0;
  int i;
  int j;
  for (i = 0; i < %d; i = i + 1) {
    for (j = 0; j < 32; j = j + 1) {
      buf[j] = buf[j] + s->area(i + j);
      acc = acc ^ (buf[j] >> 3);
    }
  }
  print_int(acc & 255);
  print_char('\n');
  return 0;
}
|}
    iterations

let compile_hot_loop ~iterations =
  Core.Toolchain.compile_exe
    ~options:{ Core.Toolchain.default_options with scheme = Pass.Vcall }
    ~name:"hot" (hot_loop_src ~iterations)

let test_hot_path_allocation () =
  let exe = compile_hot_loop ~iterations:3000 in
  let machine = Machine.create ~engine:Machine.Traced (System.machine_config System.Processor_kernel_modified) in
  let kernel = Kernel.create ~machine ~config:Kernel.default_config in
  let process = Kernel.load kernel exe in
  Kernel.schedule kernel process;
  let w0 = Gc.minor_words () in
  let outcome = Kernel.run kernel process in
  let words = Gc.minor_words () -. w0 in
  check_exit "hot loop" 0 outcome;
  let insts = Int64.to_float outcome.Kernel.instructions in
  Alcotest.(check bool) "ran long enough to amortize compilation" true (insts > 1e6);
  Alcotest.(check bool) "most instructions ran in traces" true
    (float_of_int (Machine.trace_retires machine) > 0.9 *. insts);
  let per_inst = words /. insts in
  if per_inst > 1.0 then
    Alcotest.failf "%.2f minor words per retired instruction (budget 1.0)" per_inst

(* ---------- the no-compilation ablation and engine selection ---------- *)

(* "No trace compilation" is the traced engine at a hot threshold no
   block reaches: every dispatch runs on the per-slot tier.  It must
   compile nothing and still match both the threshold-1 run (nearly all
   in traces) and the single-step reference exactly. *)
let test_no_compile_ablation () =
  let exe = compile_hot_loop ~iterations:60 in
  let run engine threshold = with_hot_threshold threshold (fun () -> exec_on ~engine exe) in
  let cold_m, cold = run Machine.Traced max_int in
  let hot_m, hot = run Machine.Traced 1 in
  let _, stepped = run Machine.Single_step 1 in
  check_exit "no-compile run" 0 cold;
  Alcotest.(check int) "threshold max_int compiles no trace" 0
    (Machine.traces_compiled cold_m);
  Alcotest.(check bool) "threshold 1 compiles traces" true
    (Machine.traces_compiled hot_m >= 1);
  List.iter
    (fun (name, (o : Kernel.run_outcome)) ->
      Alcotest.(check int64) (name ^ ": cycles") o.Kernel.cycles cold.Kernel.cycles;
      Alcotest.(check int64) (name ^ ": instret") o.Kernel.instructions
        cold.Kernel.instructions;
      Alcotest.(check string) (name ^ ": output") o.Kernel.output cold.Kernel.output)
    [ ("threshold 1", hot); ("single", stepped) ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_block_engine_name_rejected () =
  match Machine.engine_of_string "block" with
  | Ok _ -> Alcotest.fail "\"block\" still names an engine"
  | Error msg ->
    Alcotest.(check bool) "error names single" true (contains msg "single");
    Alcotest.(check bool) "error names traced" true (contains msg "traced")

(* set [var] for the duration of [f]; an empty value reads as unset *)
let with_env var value f =
  let prev = Option.value (Sys.getenv_opt var) ~default:"" in
  Unix.putenv var value;
  Fun.protect ~finally:(fun () -> Unix.putenv var prev) f

let test_trace_hot_env_fails_loudly () =
  List.iter
    (fun bad ->
      with_env "ROLOAD_TRACE_HOT" bad (fun () ->
          match Machine.effective_hot_threshold () with
          | n -> Alcotest.failf "ROLOAD_TRACE_HOT=%S read as %d" bad n
          | exception Failure msg ->
            Alcotest.(check bool) (bad ^ ": message names the variable") true
              (contains msg "ROLOAD_TRACE_HOT")))
    [ "0"; "-3"; "abc"; "1e9" ];
  with_env "ROLOAD_TRACE_HOT" "abc" (fun () ->
      match Machine.create Config.default with
      | _ -> Alcotest.fail "create accepted ROLOAD_TRACE_HOT=abc"
      | exception Failure _ -> ());
  with_env "ROLOAD_TRACE_HOT" "1000000000" (fun () ->
      Alcotest.(check int) "a valid value wins over the default" 1_000_000_000
        (Machine.effective_hot_threshold ()))

let test_explicit_engine_beats_env () =
  let prev = Machine.effective_engine () in
  Fun.protect
    ~finally:(fun () -> Machine.set_default_engine prev)
    (fun () ->
      with_env "ROLOAD_ENGINE" "single" (fun () ->
          Machine.set_default_engine Machine.Traced;
          Alcotest.(check string) "set_default_engine wins" "traced"
            (Machine.engine_name (Machine.effective_engine ()));
          Alcotest.(check string) "and reaches create" "traced"
            (Machine.engine_name (Machine.engine (Machine.create Config.default)))))

(* ---------- parallel fan-out determinism (ROLOAD_JOBS) ---------- *)

let small () = [ Option.get (Suite.find "xalancbmk"); Option.get (Suite.find "gobmk") ]

let test_jobs_determinism () =
  let render () =
    Roload_util.Table.render (Exp.section5b ~scale:1 ~benchmarks:(small ()) ()).Exp.table
  in
  Core.Parallel.set_jobs 1;
  let serial = render () in
  Core.Parallel.set_jobs 4;
  let parallel = render () in
  Core.Parallel.set_jobs 0;
  Alcotest.(check string) "section5b byte-identical at -j1 and -j4" serial parallel

let suite =
  [
    Seeded.to_alcotest prop_engines_agree;
    Alcotest.test_case "all schemes: victim equivalence" `Quick test_all_schemes_victim;
    Alcotest.test_case "self-modifying code re-decodes" `Quick test_self_modifying;
    Alcotest.test_case "data-page stores keep caches" `Quick
      test_adjacent_page_store_keeps_caches;
    Alcotest.test_case "code-page stores flush caches" `Quick test_code_page_store_flushes;
    Alcotest.test_case "store into traced page flushes the trace" `Quick
      test_trace_invalidation;
    Alcotest.test_case "mid-loop rewrite invalidates chain-exit memos" `Quick
      test_chain_memo_smc;
    Alcotest.test_case "traced hot path allocates < 1 word/inst" `Quick
      test_hot_path_allocation;
    Alcotest.test_case "hot threshold max_int: no traces, same run" `Quick
      test_no_compile_ablation;
    Alcotest.test_case "engine name \"block\" is rejected" `Quick
      test_block_engine_name_rejected;
    Alcotest.test_case "malformed ROLOAD_TRACE_HOT fails loudly" `Quick
      test_trace_hot_env_fails_loudly;
    Alcotest.test_case "set_default_engine beats ROLOAD_ENGINE" `Quick
      test_explicit_engine_beats_env;
    Alcotest.test_case "jobs determinism (-j1 == -j4)" `Slow test_jobs_determinism;
  ]
