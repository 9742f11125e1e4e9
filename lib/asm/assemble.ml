(* The assembler: turns [Asm_ir.item] lists into a relocatable object file.

   Pipeline per section:
   1. expand pseudo-instructions (li) into concrete instructions;
   2. optionally compress layout-independent instructions to RVC forms
      (including c.ld.ro), deciding once per instruction and keeping the
      halfword in its atom;
   3. iterate branch relaxation to a fixed point: local conditional
      branches start short (4 bytes) and grow to an inverted-branch+jal
      pair (8 bytes) when their target is out of the ±4 KiB B-type range;
   4. record label symbols and relocations (Hi20/Lo12 pairs for la, Jal
      for call/tail, Abs64 for .quad sym), and encode bytes straight into
      the section buffer; a .bss section keeps only its size. *)

module Inst = Roload_isa.Inst
module Reg = Roload_isa.Reg
module Encode = Roload_isa.Encode
module Compressed = Roload_isa.Compressed
module Section = Roload_obj.Section
module Symbol = Roload_obj.Symbol
module Reloc = Roload_obj.Reloc
module Objfile = Roload_obj.Objfile

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* An atom is a layout unit whose size is known up to branch relaxation. *)
type atom =
  | A_label of string
  | A_inst of Inst.t (* a 32-bit instruction *)
  | A_rvc of int (* a compressed instruction's 16-bit encoding *)
  | A_la of Reg.t * string
  | A_calljal of Reg.t * string (* jal <rd>, sym — call (ra) or tail (zero) *)
  | A_jump of string (* local jal zero, or cross-section via reloc *)
  | A_branch of Inst.branch_cond * Reg.t * Reg.t * string * bool ref (* long? *)
  | A_quad_sym of string (* 8 bytes + Abs64 reloc *)
  | A_bytes of string
  | A_zero of int (* zero bytes *)
  | A_align of int

type options = { compress : bool }

let default_options = { compress = true }

let atom_size = function
  | A_label _ -> 0
  | A_inst _ -> 4
  | A_rvc _ -> 2
  | A_la _ -> 8
  | A_calljal _ -> 4
  | A_jump _ -> 4
  | A_branch (_, _, _, _, long) -> if !long then 8 else 4
  | A_quad_sym _ -> 8
  | A_bytes s -> String.length s
  | A_zero n -> n
  | A_align _ -> 0 (* padding is computed during layout *)

let layout atoms =
  let n = Array.length atoms in
  let offsets = Array.make n 0 in
  let pos = ref 0 in
  for i = 0 to n - 1 do
    (match atoms.(i) with
    | A_align a -> pos := Roload_util.Bits.align_up !pos a
    | A_label _ | A_inst _ | A_rvc _ | A_la _ | A_calljal _ | A_jump _ | A_branch _
    | A_quad_sym _ | A_bytes _ | A_zero _ ->
      ());
    offsets.(i) <- !pos;
    pos := !pos + atom_size atoms.(i)
  done;
  (offsets, !pos)

let label_offsets atoms offsets =
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun i atom ->
      match atom with
      | A_label l ->
        if Hashtbl.mem tbl l then error "duplicate label %s" l;
        Hashtbl.add tbl l offsets.(i)
      | A_inst _ | A_rvc _ | A_la _ | A_calljal _ | A_jump _ | A_branch _ | A_quad_sym _
      | A_bytes _ | A_zero _ | A_align _ ->
        ())
    atoms;
  tbl

let branch_fits off = off >= -4096 && off <= 4094

(* Lay out, then grow every short branch whose target is out of range,
   until none grows; the layout it settles on is the one emitted. *)
let rec relax atoms =
  let offsets, total = layout atoms in
  let labels = label_offsets atoms offsets in
  let changed = ref false in
  Array.iteri
    (fun i atom ->
      match atom with
      | A_branch (_, _, _, target, long) when not !long -> (
        match Hashtbl.find_opt labels target with
        | None -> error "undefined local branch target %s" target
        | Some toff ->
          if not (branch_fits (toff - offsets.(i))) then begin
            long := true;
            changed := true
          end)
      | A_branch _ | A_label _ | A_inst _ | A_rvc _ | A_la _ | A_calljal _ | A_jump _
      | A_quad_sym _ | A_bytes _ | A_zero _ | A_align _ ->
        ())
    atoms;
  if !changed then relax atoms else (offsets, total, labels)

let invert_cond = function
  | Inst.Beq -> Inst.Bne
  | Inst.Bne -> Inst.Beq
  | Inst.Blt -> Inst.Bge
  | Inst.Bge -> Inst.Blt
  | Inst.Bltu -> Inst.Bgeu
  | Inst.Bgeu -> Inst.Bltu

(* little-endian, with no intermediate string *)
let add_word buf w =
  Buffer.add_uint16_le buf (w land 0xFFFF);
  Buffer.add_uint16_le buf ((w lsr 16) land 0xFFFF)

let add_inst buf inst = add_word buf (Encode.encode inst)

(* The relocations a section's atoms need, in atom order. *)
let section_relocs ~sec_name atoms offsets labels =
  let relocs = ref [] in
  let add offset kind symbol =
    relocs := { Reloc.section = sec_name; offset; kind; symbol; addend = 0 } :: !relocs
  in
  Array.iteri
    (fun i atom ->
      let here = offsets.(i) in
      match atom with
      | A_quad_sym sym -> add here Reloc.Abs64 sym
      | A_la (_, sym) ->
        add here Reloc.Hi20 sym;
        add (here + 4) Reloc.Lo12_i sym
      | A_calljal (_, sym) -> add here Reloc.Jal sym
      | A_jump target when not (Hashtbl.mem labels target) -> add here Reloc.Jal target
      | A_jump _ | A_label _ | A_align _ | A_bytes _ | A_zero _ | A_inst _ | A_rvc _
      | A_branch _ ->
        ())
    atoms;
  List.rev !relocs

(* A section's bytes, encoded straight into one buffer. *)
let section_bytes ~is_text atoms offsets labels total =
  let buf = Buffer.create total in
  let pad upto =
    (* c.nop (0x0001) in text, zero bytes elsewhere *)
    while Buffer.length buf < upto do
      if is_text && upto - Buffer.length buf >= 2 then Buffer.add_uint16_le buf 0x0001
      else Buffer.add_char buf '\000'
    done
  in
  Array.iteri
    (fun i atom ->
      pad offsets.(i);
      let here = offsets.(i) in
      match atom with
      | A_label _ | A_align _ -> ()
      | A_bytes s -> Buffer.add_string buf s
      | A_zero n ->
        for _ = 1 to n do
          Buffer.add_char buf '\000'
        done
      | A_quad_sym _ -> Buffer.add_int64_le buf 0L
      | A_inst inst -> add_inst buf inst
      | A_rvc hw -> Buffer.add_uint16_le buf hw
      | A_la (rd, _) ->
        add_inst buf (Inst.Lui (rd, 0L));
        add_inst buf (Inst.Op_imm (Inst.Add, rd, rd, 0L))
      | A_calljal (rd, _) -> add_inst buf (Inst.Jal (rd, 0L))
      | A_jump target ->
        let off = match Hashtbl.find_opt labels target with Some toff -> toff - here | None -> 0 in
        add_inst buf (Inst.Jal (Reg.zero, Int64.of_int off))
      | A_branch (cond, r1, r2, target, long) -> (
        match Hashtbl.find_opt labels target with
        | None -> error "undefined local branch target %s" target
        | Some toff ->
          if !long then begin
            add_inst buf (Inst.Branch (invert_cond cond, r1, r2, 8L));
            add_inst buf (Inst.Jal (Reg.zero, Int64.of_int (toff - (here + 4))))
          end
          else add_inst buf (Inst.Branch (cond, r1, r2, Int64.of_int (toff - here)))))
    atoms;
  pad total;
  Buffer.contents buf

type section_acc = { mutable atoms : atom list (* reversed *) }

(* Statically allocated, so a section's atom array starts out pointing at
   no young value: a young initial value for an array too large for the
   minor heap (as [Array.of_list] would give it) forces a minor
   collection on every assembly of a real program. *)
let no_atom = A_bytes ""

let atom_array acc =
  let atoms = Array.make (List.length acc.atoms) no_atom in
  List.iteri (fun i atom -> atoms.(Array.length atoms - 1 - i) <- atom) acc.atoms;
  atoms

let assemble ?(options = default_options) items =
  let sections : (string, section_acc) Hashtbl.t = Hashtbl.create 8 in
  let section_order = ref [] in
  let globals = ref [] in
  let current = ref None in
  let get_section name =
    match Hashtbl.find_opt sections name with
    | Some s -> s
    | None ->
      let s = { atoms = [] } in
      Hashtbl.add sections name s;
      section_order := name :: !section_order;
      s
  in
  let push atom =
    match !current with
    | None -> error "item before any .section directive"
    | Some sec -> sec.atoms <- atom :: sec.atoms
  in
  let push_inst inst =
    if not (Inst.valid inst) then error "invalid instruction: %s" (Inst.to_string inst);
    match if options.compress then Compressed.try_compress inst else None with
    | Some hw -> push (A_rvc hw)
    | None -> push (A_inst inst)
  in
  List.iter
    (fun item ->
      match item with
      | Asm_ir.Section name -> current := Some (get_section name)
      | Asm_ir.Label l -> push (A_label l)
      | Asm_ir.Global s -> globals := s :: !globals
      | Asm_ir.Align n -> push (A_align n)
      | Asm_ir.Inst inst -> push_inst inst
      | Asm_ir.Li (rd, v) -> List.iter push_inst (Asm_ir.expand_li rd v)
      | Asm_ir.La (rd, sym) -> push (A_la (rd, sym))
      | Asm_ir.Call sym -> push (A_calljal (Reg.ra, sym))
      | Asm_ir.Tail sym -> push (A_calljal (Reg.zero, sym))
      | Asm_ir.Jump l -> push (A_jump l)
      | Asm_ir.Branch_to (c, r1, r2, l) -> push (A_branch (c, r1, r2, l, ref false))
      | Asm_ir.Quad_int v ->
        let b = Bytes.create 8 in
        Bytes.set_int64_le b 0 v;
        push (A_bytes (Bytes.to_string b))
      | Asm_ir.Quad_sym sym -> push (A_quad_sym sym)
      | Asm_ir.Word_int v ->
        let b = Bytes.create 4 in
        Bytes.set_int32_le b 0 (Int64.to_int32 v);
        push (A_bytes (Bytes.to_string b))
      | Asm_ir.Byte_int v -> push (A_bytes (String.make 1 (Char.chr (v land 0xFF))))
      | Asm_ir.Asciz s -> push (A_bytes (s ^ "\000"))
      | Asm_ir.Bytes_raw s -> push (A_bytes s)
      | Asm_ir.Zero n -> push (A_zero n))
    items;
  let globals =
    let tbl = Hashtbl.create 16 in
    List.iter (fun s -> Hashtbl.replace tbl s ()) !globals;
    tbl
  in
  let out_sections = ref [] in
  let out_symbols = ref [] in
  let out_relocs = ref [] in
  List.iter
    (fun sec_name ->
      let acc = Hashtbl.find sections sec_name in
      let atoms = atom_array acc in
      let offsets, total, labels = relax atoms in
      let relocs = section_relocs ~sec_name atoms offsets labels in
      let perms, key = Section.attrs_of_name sec_name in
      let section =
        (* a .bss section keeps only its size, so its bytes are never made *)
        if Section.is_bss_name sec_name then
          Section.make ~key ~bss_size:total ~name:sec_name ~perms ""
        else
          Section.make ~key ~name:sec_name ~perms
            (section_bytes ~is_text:perms.Roload_mem.Perm.x atoms offsets labels total)
      in
      out_sections := section :: !out_sections;
      Hashtbl.iter
        (fun name offset ->
          out_symbols :=
            Symbol.make ~global:(Hashtbl.mem globals name) ~name ~section:sec_name ~offset ()
            :: !out_symbols)
        labels;
      out_relocs := List.rev_append relocs !out_relocs)
    (List.rev !section_order);
  Objfile.make ~sections:(List.rev !out_sections) ~symbols:!out_symbols
    ~relocs:(List.rev !out_relocs)

(* Static instrumentation statistics used by the memory-overhead analysis:
   code bytes per section before/after hardening are compared by the
   experiment drivers. *)
let section_sizes obj =
  List.map (fun (s : Section.t) -> (s.Section.name, Section.size s)) obj.Objfile.sections
