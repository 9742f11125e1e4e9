(* End-to-end compiler tests: MiniC source → executable → run on the full
   ROLoad system, for every hardening scheme.  Hardened binaries must be
   observationally equivalent to unprotected ones on benign inputs. *)

module Pass = Roload_passes.Pass

let compile_and_run ?(scheme = Pass.Unprotected)
    ?(variant = Core.System.Processor_kernel_modified) ~name src =
  let options = { Core.Toolchain.default_options with scheme } in
  let exe = Core.Toolchain.compile_exe ~options ~name src in
  Core.System.run ~variant exe

let check_output ?scheme ~name ~expected src =
  let m = compile_and_run ?scheme ~name src in
  (match m.Core.System.status with
  | Roload_kernel.Process.Exited 0 -> ()
  | _ -> Alcotest.failf "%s: %s" name (Core.System.status_string m));
  Alcotest.(check string) name expected m.Core.System.output

let fib_src = {|
int fib(int n) {
  if (n < 2) return n;
  return fib(n - 1) + fib(n - 2);
}
int main() {
  print_int(fib(15));
  print_char('\n');
  return 0;
}
|}

let test_fib () = check_output ~name:"fib" ~expected:"610\n" fib_src

let loops_src = {|
int main() {
  int total = 0;
  int i;
  for (i = 0; i < 10; i = i + 1) {
    if (i % 2 == 0) { total = total + i * i; }
  }
  int arr[8];
  int j;
  for (j = 0; j < 8; j = j + 1) { arr[j] = j * 3; }
  while (j > 0) { j = j - 1; total = total + arr[j]; }
  print_int(total);
  print_char('\n');
  return 0;
}
|}

(* evens: 0+4+16+36+64 = 120; arr sum = 3*(0+..+7) = 84; total 204 *)
let test_loops () = check_output ~name:"loops" ~expected:"204\n" loops_src

let strings_src = {|
int main() {
  char buf[16];
  char *msg = "hello";
  int i = 0;
  while (msg[i]) { buf[i] = msg[i] - 32; i = i + 1; }
  buf[i] = 0;
  print_str(buf);
  print_char('\n');
  return 0;
}
|}

let test_strings () = check_output ~name:"strings" ~expected:"HELLO\n" strings_src

let fptr_src = {|
typedef int (*binop_t)(int, int);
int add(int a, int b) { return a + b; }
int mul(int a, int b) { return a * b; }
int apply(binop_t f, int a, int b) { return f(a, b); }
int main() {
  binop_t ops[2];
  ops[0] = add;
  ops[1] = mul;
  int i;
  int total = 0;
  for (i = 0; i < 2; i = i + 1) {
    total = total + apply(ops[i], 6, 7);
  }
  print_int(total);
  print_char('\n');
  return 0;
}
|}

let test_fptr () = check_output ~name:"fptr" ~expected:"55\n" fptr_src

let vcall_src = {|
class Shape {
  int tag;
  virtual int area() { return 0; }
  virtual int name() { return 63; }
};
class Square : Shape {
  int side;
  virtual int area() { return side * side; }
};
class Rect : Square {
  int h;
  virtual int area() { return side * h; }
  virtual int name() { return 82; }
};
int main() {
  Shape *shapes[3];
  Shape *s = new Shape;
  Square *q = new Square;
  q->side = 5;
  Rect *r = new Rect;
  r->side = 3;
  r->h = 4;
  shapes[0] = s;
  shapes[1] = (Shape*)q;
  shapes[2] = (Shape*)r;
  int total = 0;
  int i;
  for (i = 0; i < 3; i = i + 1) {
    total = total + shapes[i]->area();
  }
  print_int(total);
  print_char('\n');
  print_int(shapes[2]->name());
  print_char('\n');
  return 0;
}
|}

let test_vcall () = check_output ~name:"vcall" ~expected:"37\n82\n" vcall_src

let structs_src = {|
struct node {
  int value;
  node *next;
};
int main() {
  node *head = null;
  int i;
  for (i = 0; i < 5; i = i + 1) {
    node *n = (node*)alloc(sizeof(node));
    n->value = i * 10;
    n->next = head;
    head = n;
  }
  int total = 0;
  while (head != null) {
    total = total + head->value;
    head = head->next;
  }
  print_int(total);
  print_char('\n');
  return 0;
}
|}

let test_structs () = check_output ~name:"structs" ~expected:"100\n" structs_src

let methods_src = {|
class Counter {
  int count;
  int step;
  virtual void bump() { count = count + step; }
  int get() { return count; }
};
int main() {
  Counter *c = new Counter;
  c->step = 7;
  int i;
  for (i = 0; i < 6; i = i + 1) { c->bump(); }
  print_int(c->get());
  print_char('\n');
  return 0;
}
|}

let test_methods () = check_output ~name:"methods" ~expected:"42\n" methods_src

(* every scheme must preserve behaviour on benign runs *)
let test_schemes_equivalent () =
  List.iter
    (fun (name, src, expected) ->
      List.iter
        (fun scheme ->
          let m = compile_and_run ~scheme ~name src in
          (match m.Core.System.status with
          | Roload_kernel.Process.Exited 0 -> ()
          | _ ->
            Alcotest.failf "%s under %s: %s" name (Pass.scheme_name scheme)
              (Core.System.status_string m));
          Alcotest.(check string)
            (Printf.sprintf "%s under %s" name (Pass.scheme_name scheme))
            expected m.Core.System.output)
        Pass.all_schemes)
    [
      ("fib", fib_src, "610\n");
      ("fptr", fptr_src, "55\n");
      ("vcall", vcall_src, "37\n82\n");
      ("methods", methods_src, "42\n");
    ]

(* hardened schemes actually execute ld.ro instructions *)
let test_roload_executed () =
  let m = compile_and_run ~scheme:Pass.Vcall ~name:"vcall" vcall_src in
  Alcotest.(check bool) "vcall executes ld.ro" true (m.Core.System.roloads_executed > 0);
  let m2 = compile_and_run ~scheme:Pass.Icall ~name:"fptr" fptr_src in
  Alcotest.(check bool) "icall executes ld.ro" true (m2.Core.System.roloads_executed > 0);
  let m3 = compile_and_run ~scheme:Pass.Vtint_baseline ~name:"vcall" vcall_src in
  ignore m3

let test_no_roload_on_unprotected () =
  let m = compile_and_run ~scheme:Pass.Unprotected ~name:"vcall" vcall_src in
  Alcotest.(check int) "no ld.ro executed" 0 m.Core.System.roloads_executed

(* the §IV-C backward-edge extension preserves behaviour and actually
   guards returns with ld.ro *)
let test_retcall_scheme () =
  List.iter
    (fun (name, src, expected) ->
      let m = compile_and_run ~scheme:Pass.Retcall ~name src in
      (match m.Core.System.status with
      | Roload_kernel.Process.Exited 0 -> ()
      | _ ->
        Alcotest.failf "%s under Retcall: %s" name (Core.System.status_string m));
      Alcotest.(check string) (name ^ " under Retcall") expected m.Core.System.output;
      Alcotest.(check bool) (name ^ " executes protected returns") true
        (m.Core.System.roloads_executed > 0))
    [ ("fib", fib_src, "610\n"); ("vcall", vcall_src, "37\n82\n");
      ("fptr", fptr_src, "55\n") ]

(* unhardened binaries must run identically on all three systems *)
let test_systems_compatible () =
  let exe = Core.Toolchain.compile_exe ~name:"fib" fib_src in
  let outputs =
    List.map
      (fun v -> (Core.System.run ~variant:v exe).Core.System.output)
      Core.System.all_variants
  in
  match outputs with
  | [ a; b; c ] ->
    Alcotest.(check string) "baseline vs processor" a b;
    Alcotest.(check string) "processor vs kernel" b c
  | _ -> assert false

(* ---------- randomized scheme-equivalence ----------

   Generate a small random program exercising arithmetic, control flow,
   arrays, virtual dispatch and typed indirect calls; compile it under
   every scheme and require identical output.  This is the strongest
   end-to-end property in the suite: it exercises the whole stack
   (front end → passes → codegen → assembler → linker → kernel → MMU). *)

type rprog = { seed : int; loops : int; use_vcall : bool; use_icall : bool }

let render_rprog { seed; loops; use_vcall; use_icall } =
  Printf.sprintf
    {|
typedef int (*step_t)(int);
int step_a(int x) { return x * 3 + 1; }
int step_b(int x) { return x / 2 - 5; }
class Op {
  int bias;
  virtual int apply(int x) { return x + bias; }
};
class Neg : Op {
  virtual int apply(int x) { return bias - x; }
};
step_t steps[2] = { step_a, step_b };
int main() {
  int acc = %d;
  Op *ops[2];
  Op *o = new Op; o->bias = 3;
  Neg *n = new Neg; n->bias = 11;
  ops[0] = o;
  ops[1] = (Op*)n;
  int i;
  for (i = 0; i < %d; i = i + 1) {
    int sel = (acc ^ i) & 1;
    if (%d) { step_t f = steps[sel]; acc = acc + f(i); }
    if (%d) { acc = acc + ops[sel]->apply(acc & 255); }
    acc = (acc * 1103515245 + 12345) %% 100003;
    if (acc < 0) { acc = 0 - acc; }
  }
  print_int(acc);
  print_char('\n');
  return 0;
}
|}
    seed loops
    (if use_icall then 1 else 0)
    (if use_vcall then 1 else 0)

let gen_rprog =
  QCheck.Gen.(
    map
      (fun (seed, loops, v, ic) -> { seed; loops = 1 + loops; use_vcall = v; use_icall = ic })
      (quad (int_bound 100000) (int_bound 40) bool bool))

let prop_schemes_equivalent_random =
  QCheck.Test.make ~count:12 ~name:"random programs agree under every scheme"
    (QCheck.make ~print:render_rprog gen_rprog)
    (fun rp ->
      let src = render_rprog rp in
      let outputs =
        List.map
          (fun scheme ->
            let m = compile_and_run ~scheme ~name:"rand" src in
            (Core.System.exited_cleanly m, m.Core.System.output))
          Pass.all_schemes
      in
      match outputs with
      | (true, first) :: rest -> List.for_all (fun (ok, o) -> ok && o = first) rest
      | _ -> false)

(* print_int edge cases — in particular min_int, whose magnitude has no
   positive int64 counterpart, so the runtime's digit loop must iterate
   on the negative absolute value (regression: the runtime and the IR
   oracle both once negated the value and printed garbage; see
   DESIGN.md §9) *)
let min_int_src =
  {|
int main() {
  int m = (0 - 9223372036854775807) - 1;
  print_int(m);
  print_char('\n');
  print_int(m + 1);
  print_char('\n');
  print_int(0 - 1);
  print_char('\n');
  print_int(0);
  print_char('\n');
  return 0;
}
|}

let test_print_int_min_int () =
  let expected = "-9223372036854775808\n-9223372036854775807\n-1\n0\n" in
  List.iter
    (fun scheme ->
      check_output ~scheme
        ~name:("print_int(min_int) under " ^ Pass.scheme_name scheme)
        ~expected min_int_src)
    Pass.all_schemes

(* the hook path is the plain pipeline: a no-op [after_pass] on a parsed
   multi-process program still links the extension runtime and yields the
   same image as [compile] *)
let test_hook_path_matches_compile () =
  let module T = Core.Toolchain in
  let src = Roload_workloads.Server_like.source ~scale:1 in
  List.iter
    (fun scheme ->
      let options = { T.default_options with scheme } in
      let hooked =
        T.compile_ast ~options ~after_pass:(fun _ _ -> ()) ~name:"server"
          (Roload_front.Parser.parse src)
      in
      Alcotest.(check string)
        ("hook path = compile under " ^ Pass.scheme_name scheme)
        (Roload_obj.Exe.to_bytes (T.compile_exe ~options ~name:"server" src))
        (Roload_obj.Exe.to_bytes hooked.T.exe))
    [ Pass.Unprotected; Pass.Icall ]

(* The toolchain is reentrant: generated programs compiled under every
   scheme, with and without elision, give the same bytes whether
   compiled serially or from four worker domains at once. *)
let prop_parallel_compile_identical =
  QCheck.Test.make ~count:8 ~name:"parallel compiles are byte-identical to serial"
    QCheck.(map Int64.of_int small_int)
    (fun seed ->
      let src = Roload_fuzz.Gen.to_source (Roload_fuzz.Gen.generate ~seed ~size:3) in
      let jobs =
        List.concat_map
          (fun scheme -> List.map (fun elide -> (scheme, elide)) [ false; true ])
          (Pass.Retcall :: Pass.all_schemes)
      in
      let compile (scheme, elide) =
        let options = { Core.Toolchain.default_options with scheme; elide } in
        match Core.Toolchain.compile_exe ~options ~name:"par" src with
        | exe -> Roload_obj.Exe.to_bytes exe
        | exception Core.Toolchain.Compile_error e -> "error: " ^ e
      in
      (* four rounds, so every job also overlaps with its own scheme *)
      let rounds xs = List.concat [ xs; xs; xs; xs ] in
      rounds (List.map compile jobs) = Core.Parallel.map ~jobs:4 compile (rounds jobs))

(* ---------- the toolchain's bytes ----------

   One MD5 over the executable bytes of every program this repository
   compiles — examples/*.mc, the SPEC-like suite at test scale, both
   victims and 24 seeded generated programs — under all six schemes,
   with RVC compression on and off.  The cycle gate reads cycles only,
   so this is the one pin on executable bytes: a change to any compiler
   layer that moves a byte fails it.  To regenerate after a change that
   is meant to move bytes, run `dune test` (the suite reads
   ../examples, so run a built main.exe only from _build/default/test),
   take the actual value from the failure and paste it into
   [pinned_digest]; record the regeneration in CHANGES.md as a change to
   gate data. *)

let pinned_digest = "da658b632a48b64ea2068f075dea3299"

let all_schemes = Pass.Retcall :: Pass.all_schemes

let example_programs () =
  let dir = "../examples" in
  let files =
    List.sort compare
      (List.filter
         (fun f -> Filename.check_suffix f ".mc")
         (Array.to_list (Sys.readdir dir)))
  in
  if files = [] then Alcotest.fail "no examples/*.mc found";
  List.map
    (fun f ->
      (f, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))
    files

let generated_programs n =
  List.init n (fun i ->
      let seed = Int64.of_int (i + 1) in
      ( Printf.sprintf "gen-%Ld" seed,
        Roload_fuzz.Gen.to_source (Roload_fuzz.Gen.generate ~seed ~size:(1 + (i mod 6))) ))

let victim_programs =
  [
    ("victim", Roload_security.Victim.source);
    ("chaos-victim", Roload_inject.Chaos_victim.source);
  ]

let pinned_programs () =
  example_programs ()
  @ List.map
      (fun (b : Roload_workloads.Spec_suite.benchmark) ->
        (b.name, b.source ~scale:Roload_workloads.Spec_suite.test_scale))
      Roload_workloads.Spec_suite.all
  @ victim_programs @ generated_programs 24

let exe_bytes f =
  match f () with
  | (a : Core.Toolchain.artifacts) -> Roload_obj.Exe.to_bytes a.Core.Toolchain.exe
  | exception Core.Toolchain.Compile_error e -> "error: " ^ e

let exe_digest f = Digest.to_hex (Digest.string (exe_bytes f))

let test_toolchain_bytes_pinned () =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun scheme ->
          List.iter
            (fun compress ->
              let options = { Core.Toolchain.default_options with scheme; compress } in
              Buffer.add_string b
                (Digest.string
                   (exe_bytes (fun () -> Core.Toolchain.compile ~options ~name src))))
            [ true; false ])
        all_schemes)
    (pinned_programs ());
  Alcotest.(check string) "MD5 of every executable" pinned_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* One front half feeds every scheme: each back half compiles its own
   [Ir.copy_module], gets the bytes a whole [compile_ast] gets, and
   leaves the front half as it was. *)
let test_front_half_copies_isolated () =
  let module T = Core.Toolchain in
  List.iter
    (fun (name, src) ->
      let ast = Roload_front.Parser.parse src in
      match T.front_half ~name ast with
      | exception T.Compile_error _ -> ()
      | front ->
        let before = Roload_ir.Ir.modul_to_string front in
        List.iter
          (fun scheme ->
            List.iter
              (fun elide ->
                let options = { T.default_options with scheme; elide } in
                Alcotest.(check string)
                  (Printf.sprintf "%s under %s%s: copy = compile_ast" name
                     (Pass.scheme_name scheme) (if elide then " (elide)" else ""))
                  (exe_digest (fun () -> T.compile_ast ~options ~name ast))
                  (exe_digest (fun () -> T.back_half ~options (Roload_ir.Ir.copy_module front))))
              [ false; true ])
          all_schemes;
        Alcotest.(check string) (name ^ ": front half unchanged") before
          (Roload_ir.Ir.modul_to_string front))
    (victim_programs @ generated_programs 8)

let suite =
  [
    Alcotest.test_case "fib" `Quick test_fib;
    Alcotest.test_case "print_int min_int" `Quick test_print_int_min_int;
    Alcotest.test_case "loops and arrays" `Quick test_loops;
    Alcotest.test_case "strings" `Quick test_strings;
    Alcotest.test_case "function pointers" `Quick test_fptr;
    Alcotest.test_case "virtual calls" `Quick test_vcall;
    Alcotest.test_case "structs and heap" `Quick test_structs;
    Alcotest.test_case "methods" `Quick test_methods;
    Alcotest.test_case "all schemes equivalent" `Slow test_schemes_equivalent;
    Alcotest.test_case "roload executed when hardened" `Quick test_roload_executed;
    Alcotest.test_case "no roload when unprotected" `Quick test_no_roload_on_unprotected;
    Alcotest.test_case "retcall scheme (§IV-C)" `Quick test_retcall_scheme;
    Alcotest.test_case "three systems compatible" `Quick test_systems_compatible;
    Seeded.to_alcotest prop_schemes_equivalent_random;
    Alcotest.test_case "hook path = compile (ext runtime linked)" `Quick
      test_hook_path_matches_compile;
    Seeded.to_alcotest prop_parallel_compile_identical;
    Alcotest.test_case "toolchain bytes pinned" `Quick test_toolchain_bytes_pinned;
    Alcotest.test_case "front-half copies isolated" `Quick test_front_half_copies_isolated;
  ]
