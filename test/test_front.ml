(* Front-end tests: parse/sema error reporting, language semantics, and a
   differential property test — random expressions are compiled, run on
   the simulated machine, and checked against direct OCaml evaluation. *)

module Parser = Roload_front.Parser
module Lower = Roload_front.Lower
module Lexer = Roload_front.Lexer

let compile_run src =
  let exe = Core.Toolchain.compile_exe ~name:"t" src in
  Core.System.run ~variant:Core.System.Processor_kernel_modified exe

let expect_output src expected =
  let m = compile_run src in
  (match m.Core.System.status with
  | Roload_kernel.Process.Exited 0 -> ()
  | _ -> Alcotest.failf "did not exit cleanly: %s" (Core.System.status_string m));
  Alcotest.(check string) "output" expected m.Core.System.output

let expect_sema_error src fragment =
  match Core.Toolchain.compile_exe ~name:"t" src with
  | exception Core.Toolchain.Compile_error msg ->
    let contains hay needle =
      let n = String.length needle in
      let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) (Printf.sprintf "error mentions %S (got %S)" fragment msg)
      true (contains msg fragment)
  | _ -> Alcotest.failf "expected a compile error mentioning %S" fragment

(* ---------- error reporting ---------- *)

let test_unknown_identifier () =
  expect_sema_error "int main() { return nope; }" "unknown identifier nope"

let test_unknown_function () =
  expect_sema_error "int main() { return f(1); }" "unknown function f"

let test_arity_mismatch () =
  expect_sema_error "int f(int a, int b) { return a; } int main() { return f(1); }"
    "expects 2 arguments"

let test_break_outside_loop () =
  expect_sema_error "int main() { break; return 0; }" "break outside loop"

let test_unknown_type () =
  expect_sema_error "int main() { foo x; return 0; }" "expected"

let test_unknown_field () =
  expect_sema_error
    "struct p { int x; }; int main() { p *q = (p*)alloc(8); return q->y; }"
    "has no field y"

let test_unknown_method () =
  expect_sema_error
    "class C { virtual int m() { return 1; } }; int main() { C *c = new C; return c->nope(); }"
    "no method nope"

let test_parse_error_line () =
  match Core.Toolchain.compile_exe ~name:"t" "int main() {\n  return 1 +;\n}" with
  | exception Core.Toolchain.Compile_error msg ->
    Alcotest.(check bool) "mentions line 2" true
      (String.length msg > 0
      && (let contains needle hay =
            let n = String.length needle in
            let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
            go 0
          in
          contains "line 2" msg))
  | _ -> Alcotest.fail "expected parse error"

(* ---------- semantics ---------- *)

let test_short_circuit () =
  (* the right operand must not run when the left decides *)
  expect_output
    {|
int calls = 0;
int bump() { calls = calls + 1; return 1; }
int main() {
  int a = 0 && bump();
  int b = 1 || bump();
  print_int(calls); print_char(' ');
  print_int(a); print_char(' ');
  print_int(b); print_char('\n');
  int c = 1 && bump();
  print_int(calls); print_char('\n');
  return 0;
}
|}
    "0 0 1\n1\n"

let test_pointer_arithmetic_scaling () =
  expect_output
    {|
int arr[4] = { 10, 20, 30, 40 };
int main() {
  int *p = arr;
  int *q = p + 2;
  print_int(*q); print_char(' ');
  print_int(*(q - 1)); print_char(' ');
  char *c = (char*)arr;
  print_int(c[8]);   // low byte of arr[1] = 20
  print_char('\n');
  return 0;
}
|}
    "30 20 20\n"

let test_scoping_shadowing () =
  expect_output
    {|
int x = 5;
int main() {
  int x = 10;
  { int x = 20; print_int(x); print_char(' '); }
  print_int(x); print_char('\n');
  return 0;
}
|}
    "20 10\n"

let test_inherited_fields_and_override () =
  expect_output
    {|
class A {
  int base;
  virtual int get() { return base; }
  virtual int twice() { return get() * 2; }
};
class B : A {
  int extra;
  virtual int get() { return base + extra; }
};
int main() {
  B *b = new B;
  b->base = 3;
  b->extra = 4;
  A *a = (A*)b;
  print_int(a->get()); print_char(' ');
  print_int(a->twice()); print_char('\n');
  return 0;
}
|}
    "7 14\n"

let test_sizeof () =
  expect_output
    {|
struct pair { int a; int b; };
class C { int f; virtual int m() { return 0; } };
int main() {
  print_int(sizeof(int)); print_char(' ');
  print_int(sizeof(char)); print_char(' ');
  print_int(sizeof(int*)); print_char(' ');
  print_int(sizeof(pair)); print_char(' ');
  print_int(sizeof(C)); print_char('\n');
  return 0;
}
|}
    "8 1 8 16 16\n"

let test_char_semantics () =
  expect_output
    {|
int main() {
  char buf[4];
  buf[0] = 200;          // stored as a byte, loads sign-extended
  int v = buf[0];
  print_int(v); print_char('\n');
  return 0;
}
|}
    "-56\n"

let test_negative_modulo () =
  (* RISC-V rem truncates toward zero, like C *)
  expect_output
    {|
int main() {
  print_int(-7 % 3); print_char(' ');
  print_int(-7 / 3); print_char('\n');
  return 0;
}
|}
    "-1 -2\n"

let test_recursion_depth () =
  expect_output
    {|
int depth(int n) { if (n == 0) return 0; return 1 + depth(n - 1); }
int main() { print_int(depth(500)); print_char('\n'); return 0; }
|}
    "500\n"

let test_globals_init () =
  expect_output
    {|
int scalar = 7;
int table[5] = { 1, 2, 3 };
char *msg = "abc";
int main() {
  print_int(scalar + table[0] + table[2] + table[4]); print_char(' ');
  print_str(msg); print_char('\n');
  return 0;
}
|}
    "11 abc\n"

(* ---------- differential random-expression testing ---------- *)

type expr =
  | Const of int64
  | Var of int (* index into a fixed environment *)
  | Bin of string * expr * expr

let env = [| 3L; -17L; 1024L; 7L |]

let rec expr_to_mc = function
  | Const c -> Printf.sprintf "(%Ld)" c
  | Var i -> Printf.sprintf "v%d" i
  | Bin (op, a, b) -> Printf.sprintf "(%s %s %s)" (expr_to_mc a) op (expr_to_mc b)

let rec eval_expr = function
  | Const c -> c
  | Var i -> env.(i)
  | Bin (op, a, b) -> (
    let x = eval_expr a and y = eval_expr b in
    match op with
    | "+" -> Int64.add x y
    | "-" -> Int64.sub x y
    | "*" -> Int64.mul x y
    | "&" -> Int64.logand x y
    | "|" -> Int64.logor x y
    | "^" -> Int64.logxor x y
    | _ -> failwith "op")

let gen_expr =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           if n <= 0 then
             oneof
               [ map (fun v -> Const (Int64.of_int v)) (int_range (-1000) 1000);
                 map (fun i -> Var i) (int_bound 3) ]
           else
             map3
               (fun op a b -> Bin (op, a, b))
               (oneofl [ "+"; "-"; "*"; "&"; "|"; "^" ])
               (self (n / 2)) (self (n / 2))))

let prop_expression_differential =
  QCheck.Test.make ~count:25 ~name:"compiled expressions agree with OCaml evaluation"
    (QCheck.make ~print:expr_to_mc gen_expr)
    (fun e ->
      let expected = eval_expr e in
      let src =
        Printf.sprintf
          {|
int v0 = 3;
int v1 = -17;
int v2 = 1024;
int v3 = 7;
int main() {
  print_int(%s);
  print_char('\n');
  return 0;
}
|}
          (expr_to_mc e)
      in
      let m = compile_run src in
      m.Core.System.output = Printf.sprintf "%Ld\n" expected)

(* One parse forces no minor collection.  The first suite source lexes
   to 682 tokens, so its token array is too large for the minor heap; it
   is filled from a static sentinel, never from a young token, whose use
   as the initial value would force a collection. *)
let test_parse_no_minor_collection () =
  let b = List.hd Roload_workloads.Spec_suite.all in
  let source = b.Roload_workloads.Spec_suite.source ~scale:1 in
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  ignore (Sys.opaque_identity (Parser.parse source));
  Alcotest.(check int) "minor collections during one parse" 0
    ((Gc.quick_stat ()).Gc.minor_collections - before)

let suite =
  [
    Alcotest.test_case "unknown identifier" `Quick test_unknown_identifier;
    Alcotest.test_case "unknown function" `Quick test_unknown_function;
    Alcotest.test_case "arity mismatch" `Quick test_arity_mismatch;
    Alcotest.test_case "break outside loop" `Quick test_break_outside_loop;
    Alcotest.test_case "unknown type" `Quick test_unknown_type;
    Alcotest.test_case "unknown field" `Quick test_unknown_field;
    Alcotest.test_case "unknown method" `Quick test_unknown_method;
    Alcotest.test_case "parse error line" `Quick test_parse_error_line;
    Alcotest.test_case "short circuit" `Quick test_short_circuit;
    Alcotest.test_case "pointer arithmetic scaling" `Quick test_pointer_arithmetic_scaling;
    Alcotest.test_case "scoping and shadowing" `Quick test_scoping_shadowing;
    Alcotest.test_case "inheritance and override" `Quick test_inherited_fields_and_override;
    Alcotest.test_case "sizeof" `Quick test_sizeof;
    Alcotest.test_case "char semantics" `Quick test_char_semantics;
    Alcotest.test_case "negative division" `Quick test_negative_modulo;
    Alcotest.test_case "recursion depth" `Quick test_recursion_depth;
    Alcotest.test_case "global initializers" `Quick test_globals_init;
    Seeded.to_alcotest prop_expression_differential;
    Alcotest.test_case "parse forces no minor collection" `Quick
      test_parse_no_minor_collection;
  ]
