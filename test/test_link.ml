(* Linker tests: layout, key grouping, relocation application, synthetic
   region symbols, error cases, and image codec round-trips. *)

module Linker = Roload_link.Linker
module Exe = Roload_obj.Exe
module Parser = Roload_asm.Asm_parser
module Assemble = Roload_asm.Assemble
module Perm = Roload_mem.Perm

let obj_of text = Assemble.assemble (Parser.parse text)

let prog = {|
.text
_start:
  la a0, table
  ld a1, 0(a0)
  li a7, 93
  ecall
.section .rodata.key.5
table:
  .quad 1234
.section .rodata.key.9
other:
  .quad 5678
.data
var:
  .quad 42
.bss
buf:
  .zero 64
|}

let test_layout_keys_separate_pages () =
  let exe = Linker.link [ obj_of prog ] in
  let seg name = List.find (fun s -> s.Exe.name = name) exe.Exe.segments in
  let k5 = seg "rodata.key.5" and k9 = seg "rodata.key.9" in
  Alcotest.(check int) "key 5" 5 k5.Exe.key;
  Alcotest.(check int) "key 9" 9 k9.Exe.key;
  Alcotest.(check bool) "different pages" true
    (k5.Exe.vaddr / Exe.page <> k9.Exe.vaddr / Exe.page);
  Alcotest.(check bool) "page aligned" true (k5.Exe.vaddr mod Exe.page = 0);
  let text = seg "text" in
  Alcotest.(check bool) "text executable" true text.Exe.perms.Perm.x;
  Alcotest.(check bool) "keyed not executable" false k5.Exe.perms.Perm.x

let test_merged_layout_when_not_separate () =
  let options = { Linker.default_options with separate_code = false } in
  let exe = Linker.link ~options [ obj_of prog ] in
  let names = List.map (fun s -> s.Exe.name) exe.Exe.segments in
  Alcotest.(check bool) "merged segment exists" true (List.mem "text+rodata" names);
  Alcotest.(check bool) "no keyed segment" false
    (List.exists (fun s -> s.Exe.key <> 0) exe.Exe.segments)

let test_relocation_values () =
  let exe = Linker.link [ obj_of prog ] in
  let table_addr = Exe.find_symbol_exn exe "table" in
  (* run it: a1 must hold the quad at [table] = 1234, and exit code is
     1234 land 0xff via a7? — simpler: read memory through the image *)
  let seg = List.find (fun s -> s.Exe.name = "rodata.key.5") exe.Exe.segments in
  let off = table_addr - seg.Exe.vaddr in
  let b = Bytes.of_string seg.Exe.data in
  Alcotest.(check int64) "abs64 applied" 1234L (Bytes.get_int64_le b off)

let test_ro_region_symbols () =
  let exe = Linker.link [ obj_of prog ] in
  let ro_start = Exe.find_symbol_exn exe "__ro_start" in
  let ro_end = Exe.find_symbol_exn exe "__ro_end" in
  Alcotest.(check bool) "ro region non-empty" true (ro_end > ro_start);
  let table = Exe.find_symbol_exn exe "table" in
  let other = Exe.find_symbol_exn exe "other" in
  Alcotest.(check bool) "table in ro region" true (table >= ro_start && table < ro_end);
  Alcotest.(check bool) "other in ro region" true (other >= ro_start && other < ro_end)

let test_undefined_symbol () =
  match Linker.link [ obj_of ".text\n_start:\n  call missing\n" ] with
  | exception Linker.Error _ -> ()
  | _ -> Alcotest.fail "undefined symbol must be a link error"

let test_duplicate_symbol () =
  let a = obj_of ".text\n_start:\n  ret\nshared:\n  ret\n" in
  let b = obj_of ".text\nshared:\n  ret\n" in
  match Linker.link [ a; b ] with
  | exception Linker.Error _ -> ()
  | _ -> Alcotest.fail "duplicate symbol must be a link error"

let test_missing_entry () =
  match Linker.link [ obj_of ".text\nnot_start:\n  ret\n" ] with
  | exception Linker.Error _ -> ()
  | _ -> Alcotest.fail "missing _start must be a link error"

let test_cross_object_call () =
  let a = obj_of ".text\n_start:\n  call helper\n  li a7, 93\n  ecall\n" in
  let b = obj_of ".text\nhelper:\n  li a0, 99\n  ret\n" in
  let exe = Linker.link [ a; b ] in
  let machine = Roload_machine.Machine.create Roload_machine.Config.default in
  let kernel = Roload_kernel.Kernel.create ~machine ~config:Roload_kernel.Kernel.default_config in
  let _p, outcome = Roload_kernel.Kernel.exec kernel exe in
  match outcome.Roload_kernel.Kernel.status with
  | Roload_kernel.Process.Exited 99 -> ()
  | _ -> Alcotest.fail "cross-object call failed"

let test_exe_codec_roundtrip () =
  let exe = Linker.link [ obj_of prog ] in
  let bytes = Exe.to_bytes exe in
  let exe2 = Exe.of_bytes bytes in
  Alcotest.(check int) "entry" exe.Exe.entry exe2.Exe.entry;
  Alcotest.(check int) "segments" (List.length exe.Exe.segments) (List.length exe2.Exe.segments);
  List.iter2
    (fun (a : Exe.segment) (b : Exe.segment) ->
      Alcotest.(check string) "name" a.Exe.name b.Exe.name;
      Alcotest.(check int) "vaddr" a.Exe.vaddr b.Exe.vaddr;
      Alcotest.(check int) "key" a.Exe.key b.Exe.key;
      Alcotest.(check string) "data" a.Exe.data b.Exe.data)
    exe.Exe.segments exe2.Exe.segments;
  Alcotest.(check int) "symbols" (List.length exe.Exe.symbols) (List.length exe2.Exe.symbols)

let test_exe_codec_rejects_garbage () =
  (match Exe.of_bytes "NOPE....." with
  | exception Exe.Bad_image _ -> ()
  | _ -> Alcotest.fail "bad magic must be rejected");
  (* well-formed bytes whose segment [Exe.make] refuses *)
  let misaligned =
    { Exe.entry = 4096; symbols = [];
      segments =
        [ { Exe.name = "s"; vaddr = 4097; data = ""; mem_size = 0; perms = Perm.rw; key = 0 } ] }
  in
  match Exe.of_bytes (Exe.to_bytes misaligned) with
  | exception Exe.Bad_image _ -> ()
  | _ -> Alcotest.fail "a misaligned segment must be rejected as a bad image"

let prop_codec_roundtrip =
  QCheck.Test.make ~count:50 ~name:"exe codec round-trips arbitrary segments"
    QCheck.(small_list (pair small_string (int_bound 512)))
    (fun segs ->
      let segments =
        List.mapi
          (fun i (data, extra) ->
            { Exe.name = Printf.sprintf "seg%d" i; vaddr = (i + 1) * 4096; data;
              mem_size = String.length data + extra; perms = Perm.rw; key = i land 1023 })
          segs
      in
      let exe = Exe.make ~entry:4096 ~segments ~symbols:[ ("a", 4096) ] in
      Exe.of_bytes (Exe.to_bytes exe) = exe)

(* layout invariants over real compiled programs: segments are
   page-aligned, non-overlapping, and keyed segments are read-only *)
let test_layout_invariants_on_real_programs () =
  List.iter
    (fun scheme ->
      let b = List.hd Roload_workloads.Spec_suite.cxx_benchmarks in
      let options = { Core.Toolchain.default_options with scheme } in
      let exe =
        Core.Toolchain.compile_exe ~options ~name:b.Roload_workloads.Spec_suite.name
          (b.Roload_workloads.Spec_suite.source ~scale:1)
      in
      let segs =
        List.sort (fun a b -> compare a.Exe.vaddr b.Exe.vaddr) exe.Exe.segments
      in
      let rec check = function
        | a :: (b :: _ as rest) ->
          Alcotest.(check bool) "no overlap" true (a.Exe.vaddr + a.Exe.mem_size <= b.Exe.vaddr);
          check rest
        | _ -> ()
      in
      check segs;
      List.iter
        (fun s ->
          Alcotest.(check bool) "page aligned" true (s.Exe.vaddr mod Exe.page = 0);
          Alcotest.(check bool) "data fits mem_size" true
            (String.length s.Exe.data <= s.Exe.mem_size);
          if s.Exe.key <> 0 then begin
            Alcotest.(check bool) "keyed is readable" true s.Exe.perms.Perm.r;
            Alcotest.(check bool) "keyed not writable" false s.Exe.perms.Perm.w;
            Alcotest.(check bool) "keyed not executable" false s.Exe.perms.Perm.x
          end)
        segs;
      (* entry must land in an executable segment *)
      match Exe.segment_containing exe exe.Exe.entry with
      | Some s -> Alcotest.(check bool) "entry in text" true s.Exe.perms.Perm.x
      | None -> Alcotest.fail "entry unmapped")
    [ Roload_passes.Pass.Unprotected; Roload_passes.Pass.Vcall; Roload_passes.Pass.Icall;
      Roload_passes.Pass.Retcall ]

let suite =
  [
    Alcotest.test_case "keys land on separate pages" `Quick test_layout_keys_separate_pages;
    Alcotest.test_case "layout invariants (real programs)" `Quick
      test_layout_invariants_on_real_programs;
    Alcotest.test_case "no separate-code merges ro into text" `Quick test_merged_layout_when_not_separate;
    Alcotest.test_case "relocation values" `Quick test_relocation_values;
    Alcotest.test_case "__ro_start/__ro_end" `Quick test_ro_region_symbols;
    Alcotest.test_case "undefined symbol" `Quick test_undefined_symbol;
    Alcotest.test_case "duplicate symbol" `Quick test_duplicate_symbol;
    Alcotest.test_case "missing entry" `Quick test_missing_entry;
    Alcotest.test_case "cross-object call" `Quick test_cross_object_call;
    Alcotest.test_case "exe codec roundtrip" `Quick test_exe_codec_roundtrip;
    Alcotest.test_case "exe codec rejects garbage" `Quick test_exe_codec_rejects_garbage;
    Seeded.to_alcotest prop_codec_roundtrip;
  ]
