(* Code-generation tests: register pressure and spilling, values live
   across calls (a past bug class), deep call chains, argument limits,
   and liveness/allocator unit behaviour. *)

module Ir = Roload_ir.Ir
module Liveness = Roload_codegen.Liveness
module Regalloc = Roload_codegen.Regalloc

let compile_run src =
  let exe = Core.Toolchain.compile_exe ~name:"t" src in
  Core.System.run ~variant:Core.System.Processor_kernel_modified exe

let expect_output src expected =
  let m = compile_run src in
  (match m.Core.System.status with
  | Roload_kernel.Process.Exited 0 -> ()
  | _ -> Alcotest.failf "did not exit cleanly: %s" (Core.System.status_string m));
  Alcotest.(check string) "output" expected m.Core.System.output

(* more live values than available registers: forces spilling *)
let test_register_pressure () =
  expect_output
    {|
int main() {
  int a = 1; int b = 2; int c = 3; int d = 4; int e = 5; int f = 6;
  int g = 7; int h = 8; int i = 9; int j = 10; int k = 11; int l = 12;
  int m = 13; int n = 14; int o = 15; int p = 16; int q = 17; int r = 18;
  int s = 19; int t = 20; int u = 21; int v = 22;
  // use everything twice so all stay live to the end
  int x = a+b+c+d+e+f+g+h+i+j+k+l+m+n+o+p+q+r+s+t+u+v;
  int y = a*2+b*2+c+d+e+f+g+h+i+j+k+l+m+n+o+p+q+r+s+t+u+v;
  print_int(x); print_char(' '); print_int(y); print_char('\n');
  return 0;
}
|}
    "253 256\n"

(* values live across calls must survive (the call-crossing allocation
   rule; regression test for the position-0 parameter bug) *)
let test_live_across_calls () =
  expect_output
    {|
int id(int x) { return x; }
int combine(int a, int b, int c, int d) {
  // a..d are parameters consumed only after further calls
  int p = id(a);
  int q = id(b);
  int r = id(c);
  int s = id(d);
  return p * 1000 + q * 100 + r * 10 + s;
}
int main() {
  print_int(combine(1, 2, 3, 4));
  print_char('\n');
  return 0;
}
|}
    "1234\n"

(* the very first instruction of a function is a call (historic bug) *)
let test_call_first_instruction () =
  expect_output
    {|
int seven() { return 7; }
int wrap(int a, int b) {
  int base = seven();
  return base + a * 10 + b;
}
int main() { print_int(wrap(2, 3)); print_char('\n'); return 0; }
|}
    "30\n"

let test_many_args () =
  expect_output
    {|
int sum8(int a, int b, int c, int d, int e, int f, int g, int h) {
  return a + b + c + d + e + f + g + h;
}
int main() { print_int(sum8(1, 2, 3, 4, 5, 6, 7, 8)); print_char('\n'); return 0; }
|}
    "36\n"

let test_too_many_args_rejected () =
  let src =
    "int f(int a,int b,int c,int d,int e,int f2,int g,int h,int i) { return a; }\n\
     int main() { return f(1,2,3,4,5,6,7,8,9); }"
  in
  match Core.Toolchain.compile_exe ~name:"t" src with
  | exception Core.Toolchain.Compile_error _ -> ()
  | _ -> Alcotest.fail "9 parameters must be rejected"

let test_large_frame () =
  expect_output
    {|
int main() {
  int big[600];    // 4800-byte frame: offsets exceed 12-bit immediates
  int i;
  for (i = 0; i < 600; i = i + 1) { big[i] = i; }
  int total = 0;
  for (i = 0; i < 600; i = i + 1) { total = total + big[i]; }
  print_int(total); print_char('\n');
  return 0;
}
|}
    "179700\n"

let test_mutual_recursion () =
  expect_output
    {|
// no prototypes needed: all signatures are collected before lowering
int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
int main() {
  print_int(is_even(10)); print_int(is_odd(10)); print_char('\n');
  return 0;
}
|}
    "10\n"

(* liveness/allocator unit checks on a hand-built function *)
let build_func () =
  let f =
    { Ir.f_name = "f"; f_sig = { Ir.params = [ Ir.I64 ]; ret = Ir.I64 };
      f_params = []; f_blocks = []; f_ntemps = 0; f_frame_slots = []; f_cfi_id = None }
  in
  let p = Ir.new_temp f in
  f.Ir.f_params <- [ p ];
  let t1 = Ir.new_temp f in
  let t2 = Ir.new_temp f in
  f.Ir.f_blocks <-
    [ { Ir.b_label = "entry";
        b_instrs =
          [ Ir.Call { dst = Some t1; callee = "g"; args = [] };
            Ir.Bin (Ir.Add, t2, Ir.Temp p, Ir.Temp t1) ];
        b_term = Ir.Ret (Some (Ir.Temp t2)) } ];
  (f, p, t1, t2)

let test_liveness_call_crossing () =
  let f, p, t1, t2 = build_func () in
  let live = Liveness.analyze f in
  let interval t = List.find (fun iv -> iv.Liveness.temp = t) live.Liveness.intervals in
  (* the parameter is live across the call; the call's own result and the
     sum are not *)
  Alcotest.(check bool) "param crosses" true (interval p).Liveness.crosses_call;
  Alcotest.(check bool) "result does not cross" false (interval t1).Liveness.crosses_call;
  Alcotest.(check bool) "sum does not cross" false (interval t2).Liveness.crosses_call

(* The reference liveness: the per-position algorithm [Liveness.analyze]
   replaced.  It walks each block backward and touches every live temp at
   every position, so its intervals are right by construction.  The
   interval list is the fold order of the [first] table, stably sorted by
   start position; the allocator inherits that order for intervals that
   share a start (every parameter starts at 0), so the analysis under
   test must reproduce it exactly, not only the interval bounds. *)
module IntSet = Liveness.IntSet

let reference_analyze (f : Ir.func) =
  let blocks = Array.of_list f.Ir.f_blocks in
  let nblocks = Array.length blocks in
  let label_index = Hashtbl.create 16 in
  Array.iteri (fun i b -> Hashtbl.add label_index b.Ir.b_label i) blocks;
  (* positions — starting at 1 so that parameter definitions (position 0)
     precede the first instruction; otherwise a call that happens to be
     the first instruction would share position 0 with the parameter defs
     and parameters live across it would not count as call-crossing *)
  let block_start = Array.make nblocks 0 in
  let pos = ref 1 in
  Array.iteri
    (fun i b ->
      block_start.(i) <- !pos;
      pos := !pos + List.length b.Ir.b_instrs + 1)
    blocks;
  let num_positions = !pos in
  (* block-level use/def *)
  let use = Array.make nblocks IntSet.empty in
  let def = Array.make nblocks IntSet.empty in
  Array.iteri
    (fun i b ->
      let u = ref IntSet.empty and d = ref IntSet.empty in
      List.iter
        (fun ins ->
          List.iter (fun t -> if not (IntSet.mem t !d) then u := IntSet.add t !u)
            (Ir.instr_uses ins);
          List.iter (fun t -> d := IntSet.add t !d) (Ir.instr_defs ins))
        b.Ir.b_instrs;
      List.iter (fun t -> if not (IntSet.mem t !d) then u := IntSet.add t !u)
        (Ir.term_uses b.Ir.b_term);
      use.(i) <- !u;
      def.(i) <- !d)
    blocks;
  (* fixpoint for live_out *)
  let live_in = Array.make nblocks IntSet.empty in
  let live_out = Array.make nblocks IntSet.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = nblocks - 1 downto 0 do
      let out =
        List.fold_left
          (fun acc l ->
            match Hashtbl.find_opt label_index l with
            | Some j -> IntSet.union acc live_in.(j)
            | None -> acc)
          IntSet.empty
          (Ir.successors blocks.(i).Ir.b_term)
      in
      let inn = IntSet.union use.(i) (IntSet.diff out def.(i)) in
      if not (IntSet.equal out live_out.(i)) || not (IntSet.equal inn live_in.(i)) then begin
        live_out.(i) <- out;
        live_in.(i) <- inn;
        changed := true
      end
    done
  done;
  (* per-position live ranges: walk each block backward *)
  let first = Hashtbl.create 64 and last = Hashtbl.create 64 in
  let call_positions = ref IntSet.empty in
  let touch t p =
    (match Hashtbl.find_opt first t with
    | Some q when q <= p -> ()
    | Some _ | None -> Hashtbl.replace first t p);
    match Hashtbl.find_opt last t with
    | Some q when q >= p -> ()
    | Some _ | None -> Hashtbl.replace last t p
  in
  Array.iteri
    (fun i b ->
      let instrs = Array.of_list b.Ir.b_instrs in
      let n = Array.length instrs in
      let term_pos = block_start.(i) + n in
      (* live set just after each position *)
      let live = ref live_out.(i) in
      (* terminator *)
      IntSet.iter (fun t -> touch t term_pos) !live;
      List.iter
        (fun t ->
          live := IntSet.add t !live;
          touch t term_pos)
        (Ir.term_uses b.Ir.b_term);
      for k = n - 1 downto 0 do
        let p = block_start.(i) + k in
        let ins = instrs.(k) in
        if Ir.is_call ins then call_positions := IntSet.add p !call_positions;
        (* defs end liveness (looking backward) but the def position itself
           is part of the interval *)
        List.iter
          (fun t ->
            touch t p;
            live := IntSet.remove t !live)
          (Ir.instr_defs ins);
        List.iter
          (fun t ->
            live := IntSet.add t !live;
            touch t p)
          (Ir.instr_uses ins);
        IntSet.iter (fun t -> touch t p) !live
      done;
      (* anything live-in is live at the block start *)
      IntSet.iter (fun t -> touch t block_start.(i)) live_in.(i))
    blocks;
  (* parameters are defined at position 0 *)
  List.iter (fun t -> touch t 0) f.Ir.f_params;
  let intervals =
    Hashtbl.fold
      (fun t s acc ->
        let e = Hashtbl.find last t in
        acc
        @ [ { Liveness.temp = t; start_pos = s; end_pos = e; crosses_call = false } ])
      first []
  in
  (* mark call crossings: interval strictly containing a call position
     (a call's own def/uses do not need to survive it) *)
  let calls = !call_positions in
  (* A temp crosses a call iff a call position lies strictly inside its
     interval: a call's own arguments die at the call, and its result is
     defined after it returns. *)
  let intervals =
    List.map
      (fun (iv : Liveness.interval) ->
        let crosses = IntSet.exists (fun c -> iv.start_pos < c && c < iv.end_pos) calls in
        { iv with crosses_call = crosses })
      intervals
  in
  let intervals =
    List.sort
      (fun (a : Liveness.interval) b -> compare a.start_pos b.start_pos)
      intervals
  in
  { Liveness.intervals; call_positions = calls; num_positions }

(* Both algorithms give equal intervals, in equal order, on every
   function of generated programs: after the optimised front half and
   after each scheme's pass, on the exact IR codegen gets. *)
let prop_liveness_matches_reference =
  let schemes = Roload_passes.Pass.Retcall :: Roload_passes.Pass.all_schemes in
  QCheck.Test.make ~count:40 ~name:"liveness = per-position reference"
    QCheck.(pair (map Int64.of_int small_int) (int_range 1 6))
    (fun (seed, size) ->
      let module T = Core.Toolchain in
      let src = Roload_fuzz.Gen.to_source (Roload_fuzz.Gen.generate ~seed ~size) in
      let same (m : Ir.modul) =
        List.for_all
          (fun f -> Liveness.analyze f = reference_analyze f)
          m.Ir.m_funcs
      in
      match T.front_half ~name:"live" (Roload_front.Parser.parse src) with
      | exception T.Compile_error _ -> true
      | front ->
        same front
        && List.for_all
             (fun scheme ->
               let ok = ref true in
               (try
                  ignore
                    (T.back_half
                       ~options:{ T.default_options with scheme }
                       ~after_pass:(fun _ m -> ok := same m)
                       (Ir.copy_module front))
                with T.Compile_error _ -> ());
               !ok)
             schemes)

(* Random CFGs: blocks in random layout order, with defs, uses, calls
   and branches over a few temps.  Live ranges enter blocks along back
   edges and through blocks laid out before every def that reaches them,
   shapes the lowering of structured code rarely makes; there only the
   live-in touch at a block's start gives an interval its first
   position. *)
let gen_cfg =
  QCheck.Gen.(
    let* nblocks = int_range 1 8 in
    let* ntemps = int_range 1 10 in
    let* nparams = int_bound (min 3 ntemps) in
    let temp = int_bound (ntemps - 1) in
    let label = map (Printf.sprintf "b%d") (int_bound (nblocks - 1)) in
    let instr =
      frequency
        [
          (4, map3 (fun d a b -> Ir.Bin (Ir.Add, d, Ir.Temp a, Ir.Temp b)) temp temp temp);
          ( 1,
            map2
              (fun d a -> Ir.Call { dst = Some d; callee = "g"; args = [ Ir.Temp a ] })
              temp temp );
          ( 1,
            map2
              (fun a b ->
                Ir.Store { src = Ir.Temp a; addr = Ir.Temp b; offset = 0; width = Ir.W64 })
              temp temp );
        ]
    in
    let term =
      frequency
        [
          (2, map (fun l -> Ir.Br l) label);
          (3, map3 (fun c l1 l2 -> Ir.Cbr (Ir.Temp c, l1, l2)) temp label label);
          (1, map (fun t -> Ir.Ret (Some (Ir.Temp t))) temp);
        ]
    in
    let+ bodies = list_repeat nblocks (pair (list_size (int_bound 5) instr) term) in
    { Ir.f_name = "f"; f_sig = { Ir.params = List.init nparams (fun _ -> Ir.I64); ret = Ir.I64 };
      f_params = List.init nparams Fun.id;
      f_blocks =
        List.mapi
          (fun i (b_instrs, b_term) ->
            { Ir.b_label = Printf.sprintf "b%d" i; b_instrs; b_term })
          bodies;
      f_ntemps = ntemps; f_frame_slots = []; f_cfi_id = None })

let prop_liveness_matches_reference_cfg =
  QCheck.Test.make ~count:500 ~name:"liveness = per-position reference (random CFGs)"
    (QCheck.make ~print:Ir.func_to_string gen_cfg)
    (fun f -> Liveness.analyze f = reference_analyze f)

let test_regalloc_callee_saved_for_crossing () =
  let f, p, _, _ = build_func () in
  let live = Liveness.analyze f in
  let alloc = Regalloc.allocate live in
  match Regalloc.location alloc p with
  | Regalloc.In_reg r ->
    Alcotest.(check bool) "param in callee-saved" true
      (List.mem r Roload_isa.Reg.callee_saved)
  | Regalloc.Spilled _ -> () (* spilling is always safe *)

(* the whole pipeline under register-starvation plus indirect calls *)
let test_spill_with_icalls () =
  expect_output
    {|
typedef int (*fn_t)(int);
int inc(int x) { return x + 1; }
int main() {
  fn_t f = inc;
  int a = 1; int b = 2; int c = 3; int d = 4; int e = 5;
  int g = 6; int h = 7; int i = 8; int j = 9; int k = 10;
  int l = 11; int m = 12; int n = 13;
  int r = f(a) + f(b) + f(c) + f(d) + f(e) + f(g) + f(h);
  print_int(r + a + b + c + d + e + g + h + i + j + k + l + m + n);
  print_char('\n');
  return 0;
}
|}
    "126\n"

(* the paper's §III-C artifact: ld.ro has no offset immediate, so a
   non-zero vtable slot needs an extra addi before the keyed load *)
let test_ldro_offset_addi () =
  let src =
    {|
class C {
  virtual int a() { return 1; }
  virtual int b() { return 2; }
};
int main() {
  C *c = new C;
  return c->b();   // slot 1 -> vtable offset 8
}
|}
  in
  let options = { Core.Toolchain.default_options with scheme = Roload_passes.Pass.Vcall } in
  let artifacts = Core.Toolchain.compile ~options ~name:"t" src in
  let lines = String.split_on_char '\n' (Core.Toolchain.asm_text artifacts) in
  let rec find_pair = function
    | a :: b :: rest ->
      let contains hay needle =
        let n = String.length needle in
        let rec go i =
          i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
        in
        go 0
      in
      if contains a "addi t2, t2, 8" && contains b "ld.ro t2, (t2)" then true
      else find_pair (b :: rest)
    | _ -> false
  in
  Alcotest.(check bool) "addi precedes the keyed slot-1 load" true (find_pair lines)

let suite =
  [
    Alcotest.test_case "register pressure / spilling" `Quick test_register_pressure;
    Alcotest.test_case "ld.ro offset needs addi (§III-C)" `Quick test_ldro_offset_addi;
    Alcotest.test_case "live across calls" `Quick test_live_across_calls;
    Alcotest.test_case "call as first instruction" `Quick test_call_first_instruction;
    Alcotest.test_case "8 arguments" `Quick test_many_args;
    Alcotest.test_case "9 arguments rejected" `Quick test_too_many_args_rejected;
    Alcotest.test_case "large frame offsets" `Quick test_large_frame;
    Alcotest.test_case "mutual recursion" `Quick test_mutual_recursion;
    Alcotest.test_case "liveness call crossing" `Quick test_liveness_call_crossing;
    Seeded.to_alcotest prop_liveness_matches_reference;
    Seeded.to_alcotest prop_liveness_matches_reference_cfg;
    Alcotest.test_case "regalloc callee-saved rule" `Quick test_regalloc_callee_saved_for_crossing;
    Alcotest.test_case "spills with indirect calls" `Quick test_spill_with_icalls;
  ]
