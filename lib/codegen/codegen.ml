(* Code generation: IR functions → assembler items.

   Conventions:
   - t0/t1 are emission scratch; t2 holds indirect-call/vcall targets
     (so argument staging cannot clobber it); a-registers carry
     arguments and results and are never allocated.
   - One epilogue per function; rets jump to it.
   - Hardening metadata lowers here:
       roload keys      → ld.ro (plus an addi when an offset is needed,
                          since ld.ro has no offset immediate — §III-C)
       vtint            → read-only-range check on the vtable pointer
       cfi labels       → `lui x0, id` before the function entry and an
                          id-word comparison before the indirect jump. *)

module Ir = Roload_ir.Ir
module Reg = Roload_isa.Reg
module Inst = Roload_isa.Inst
module A = Roload_asm.Asm_ir
module Encode = Roload_isa.Encode

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* Symbols the linker defines for the read-only region, used by the VTint
   range check. *)
let ro_start_symbol = "__ro_start"
let ro_end_symbol = "__ro_end"

type frame = {
  spill_base : int; (* sp offset of spill slot 0 *)
  arrays_base : int;
  array_offsets : (int * int) list; (* slot_id -> sp offset *)
  saved_base : int;
  saved_regs : Reg.t list;
  ra_offset : int;
  size : int;
}

let build_frame (f : Ir.func) (alloc : Regalloc.allocation) =
  let spill_base = 0 in
  let arrays_base = spill_base + (8 * alloc.Regalloc.spill_count) in
  let array_offsets, arrays_end =
    List.fold_left
      (fun (acc, pos) (slot : Ir.frame_slot) ->
        let size = Roload_util.Bits.align_up (max 8 slot.Ir.slot_size) 8 in
        ((slot.Ir.slot_id, pos) :: acc, pos + size))
      ([], arrays_base) f.Ir.f_frame_slots
  in
  let saved_base = arrays_end in
  let saved_regs = alloc.Regalloc.used_callee_saved in
  let ra_offset = saved_base + (8 * List.length saved_regs) in
  let size = Roload_util.Bits.align_up (ra_offset + 8) 16 in
  { spill_base; arrays_base; array_offsets; saved_base; saved_regs; ra_offset; size }

type ret_protection = {
  rp_key : int;
  rp_local_funcs : string list; (* functions compiled in this module *)
  rp_counter : int ref; (* module-wide return-site numbering *)
}

type ctx = {
  func : Ir.func;
  alloc : Regalloc.allocation;
  frame : frame;
  mutable items : A.item list; (* reversed *)
  mutable abort_used : bool;
  ret_protection : ret_protection option;
}

let emit ctx item = ctx.items <- item :: ctx.items
let inst ctx i = emit ctx (A.Inst i)

let block_label ctx l = String.concat "" [ ".L$"; ctx.func.Ir.f_name; "$"; l ]
let epilogue_label ctx = block_label ctx "__epilogue"
let abort_label ctx = block_label ctx "__abort"

let fits12 v = Roload_util.Bits.fits_signed v ~width:12

(* sp-relative load/store that tolerates large frames *)
let load_sp ctx rd off =
  if fits12 (Int64.of_int off) then inst ctx (Inst.ld rd Reg.sp (Int64.of_int off))
  else begin
    emit ctx (A.Li (Reg.t1, Int64.of_int off));
    inst ctx (Inst.Op (Inst.Add, Reg.t1, Reg.sp, Reg.t1));
    inst ctx (Inst.ld rd Reg.t1 0L)
  end

let store_sp ctx rs off =
  if fits12 (Int64.of_int off) then inst ctx (Inst.sd rs Reg.sp (Int64.of_int off))
  else begin
    emit ctx (A.Li (Reg.t1, Int64.of_int off));
    inst ctx (Inst.Op (Inst.Add, Reg.t1, Reg.sp, Reg.t1));
    inst ctx (Inst.sd rs Reg.t1 0L)
  end

let spill_offset ctx s = ctx.frame.spill_base + (8 * s)

(* Bring a value into a register; [scratch] is used when needed. *)
let use_val ctx v ~scratch =
  match v with
  | Ir.Temp t -> (
    match Regalloc.location ctx.alloc t with
    | Regalloc.In_reg r -> r
    | Regalloc.Spilled s ->
      load_sp ctx scratch (spill_offset ctx s);
      scratch)
  | Ir.Const 0L -> Reg.zero
  | Ir.Const c ->
    emit ctx (A.Li (scratch, c));
    scratch
  | Ir.Global g ->
    emit ctx (A.La (scratch, g));
    scratch
  | Ir.Func_addr f ->
    emit ctx (A.La (scratch, f));
    scratch

(* Destination register for temp [t]: returns the register to compute
   into and a finisher that stores it back if the temp is spilled. *)
let def_reg ctx t ~scratch =
  match Regalloc.location ctx.alloc t with
  | Regalloc.In_reg r -> (r, fun () -> ())
  | Regalloc.Spilled s -> (scratch, fun () -> store_sp ctx scratch (spill_offset ctx s))

let move_into ctx (dst : Reg.t) v =
  match v with
  | Ir.Temp t -> (
    match Regalloc.location ctx.alloc t with
    | Regalloc.In_reg r -> if not (Reg.equal r dst) then inst ctx (Inst.mv dst r)
    | Regalloc.Spilled s -> load_sp ctx dst (spill_offset ctx s))
  | Ir.Const c -> emit ctx (A.Li (dst, c))
  | Ir.Global g -> emit ctx (A.La (dst, g))
  | Ir.Func_addr f -> emit ctx (A.La (dst, f))

let store_result ctx dst_opt =
  match dst_opt with
  | None -> ()
  | Some t -> (
    match Regalloc.location ctx.alloc t with
    | Regalloc.In_reg r -> if not (Reg.equal r Reg.a0) then inst ctx (Inst.mv r Reg.a0)
    | Regalloc.Spilled s -> store_sp ctx Reg.a0 (spill_offset ctx s))

(* ---------- binary operations ---------- *)

let emit_bin ctx op d a b =
  let rd, finish = def_reg ctx d ~scratch:Reg.t0 in
  (let ra () = use_val ctx a ~scratch:Reg.t0 in
   let rb () = use_val ctx b ~scratch:Reg.t1 in
   let imm_or_reg mk_imm mk_reg =
     match b with
     | Ir.Const c when fits12 c -> mk_imm (ra ()) c
     | _ ->
       let x = ra () in
       let y = rb () in
       mk_reg x y
   in
   match op with
   | Ir.Add ->
     imm_or_reg
       (fun x c -> inst ctx (Inst.Op_imm (Inst.Add, rd, x, c)))
       (fun x y -> inst ctx (Inst.Op (Inst.Add, rd, x, y)))
   | Ir.Sub -> (
     match b with
     | Ir.Const c when fits12 (Int64.neg c) ->
       inst ctx (Inst.Op_imm (Inst.Add, rd, ra (), Int64.neg c))
     | _ ->
       let x = ra () in
       let y = rb () in
       inst ctx (Inst.Op (Inst.Sub, rd, x, y)))
   | Ir.Mul ->
     let x = ra () in
     let y = rb () in
     inst ctx (Inst.Mulop (Inst.Mul, rd, x, y))
   | Ir.Div ->
     let x = ra () in
     let y = rb () in
     inst ctx (Inst.Mulop (Inst.Div, rd, x, y))
   | Ir.Rem ->
     let x = ra () in
     let y = rb () in
     inst ctx (Inst.Mulop (Inst.Rem, rd, x, y))
   | Ir.And ->
     imm_or_reg
       (fun x c -> inst ctx (Inst.Op_imm (Inst.And, rd, x, c)))
       (fun x y -> inst ctx (Inst.Op (Inst.And, rd, x, y)))
   | Ir.Or ->
     imm_or_reg
       (fun x c -> inst ctx (Inst.Op_imm (Inst.Or, rd, x, c)))
       (fun x y -> inst ctx (Inst.Op (Inst.Or, rd, x, y)))
   | Ir.Xor ->
     imm_or_reg
       (fun x c -> inst ctx (Inst.Op_imm (Inst.Xor, rd, x, c)))
       (fun x y -> inst ctx (Inst.Op (Inst.Xor, rd, x, y)))
   | Ir.Shl -> (
     match b with
     | Ir.Const c when c >= 0L && c < 64L ->
       inst ctx (Inst.Op_imm (Inst.Sll, rd, ra (), c))
     | _ ->
       let x = ra () in
       let y = rb () in
       inst ctx (Inst.Op (Inst.Sll, rd, x, y)))
   | Ir.Shr -> (
     match b with
     | Ir.Const c when c >= 0L && c < 64L ->
       inst ctx (Inst.Op_imm (Inst.Sra, rd, ra (), c))
     | _ ->
       let x = ra () in
       let y = rb () in
       inst ctx (Inst.Op (Inst.Sra, rd, x, y)))
   | Ir.Shru -> (
     match b with
     | Ir.Const c when c >= 0L && c < 64L ->
       inst ctx (Inst.Op_imm (Inst.Srl, rd, ra (), c))
     | _ ->
       let x = ra () in
       let y = rb () in
       inst ctx (Inst.Op (Inst.Srl, rd, x, y)))
   | Ir.Eq ->
     let x = ra () in
     let y = rb () in
     inst ctx (Inst.Op (Inst.Xor, rd, x, y));
     inst ctx (Inst.Op_imm (Inst.Sltu, rd, rd, 1L))
   | Ir.Ne ->
     let x = ra () in
     let y = rb () in
     inst ctx (Inst.Op (Inst.Xor, rd, x, y));
     inst ctx (Inst.Op (Inst.Sltu, rd, Reg.zero, rd))
   | Ir.Lt ->
     let x = ra () in
     let y = rb () in
     inst ctx (Inst.Op (Inst.Slt, rd, x, y))
   | Ir.Gt ->
     let x = ra () in
     let y = rb () in
     inst ctx (Inst.Op (Inst.Slt, rd, y, x))
   | Ir.Le ->
     let x = ra () in
     let y = rb () in
     inst ctx (Inst.Op (Inst.Slt, rd, y, x));
     inst ctx (Inst.Op_imm (Inst.Xor, rd, rd, 1L))
   | Ir.Ge ->
     let x = ra () in
     let y = rb () in
     inst ctx (Inst.Op (Inst.Slt, rd, x, y));
     inst ctx (Inst.Op_imm (Inst.Xor, rd, rd, 1L)));
  finish ()

(* ---------- memory ---------- *)

let addr_reg ctx addr offset ~scratch =
  (* returns (reg, remaining offset) *)
  match addr with
  | Ir.Global g ->
    emit ctx (A.La (scratch, g));
    (scratch, offset)
  | _ ->
    let r = use_val ctx addr ~scratch in
    if fits12 (Int64.of_int offset) then (r, offset)
    else begin
      emit ctx (A.Li (Reg.t1, Int64.of_int offset));
      inst ctx (Inst.Op (Inst.Add, Reg.t1, r, Reg.t1));
      (Reg.t1, 0)
    end

let emit_load ctx ~dst ~addr ~offset ~width ~(md : Ir.load_md) =
  let rd, finish = def_reg ctx dst ~scratch:Reg.t0 in
  let base, off = addr_reg ctx addr offset ~scratch:Reg.t0 in
  let w = match width with Ir.W8 -> Inst.Byte | Ir.W64 -> Inst.Double in
  (match md.Ir.roload_key with
  | None ->
    inst ctx (Inst.Load { width = w; unsigned = false; rd; rs1 = base; imm = Int64.of_int off })
  | Some _ when md.Ir.ro_elided ->
    (* roload-elide: check statically proven redundant, plain load *)
    inst ctx (Inst.Load { width = w; unsigned = false; rd; rs1 = base; imm = Int64.of_int off })
  | Some key ->
    (* ld.ro has no offset immediate: materialize the address first *)
    let base =
      if off = 0 then base
      else begin
        inst ctx (Inst.Op_imm (Inst.Add, Reg.t0, base, Int64.of_int off));
        Reg.t0
      end
    in
    inst ctx (Inst.Load_ro { width = w; unsigned = false; rd; rs1 = base; key }));
  finish ()

let emit_store ctx ~src ~addr ~offset ~width =
  let base, off = addr_reg ctx addr offset ~scratch:Reg.t0 in
  let rs = use_val ctx src ~scratch:(if Reg.equal base Reg.t1 then Reg.t0 else Reg.t1) in
  let w = match width with Ir.W8 -> Inst.Byte | Ir.W64 -> Inst.Double in
  inst ctx (Inst.Store { width = w; rs2 = rs; rs1 = base; imm = Int64.of_int off })

(* ---------- calls ---------- *)

let arg_regs = [| Reg.a0; Reg.a1; Reg.a2; Reg.a3; Reg.a4; Reg.a5; Reg.a6; Reg.a7 |]

let stage_args ctx args =
  if List.length args > 8 then error "%s: more than 8 arguments" ctx.func.Ir.f_name;
  List.iteri (fun i a -> move_into ctx arg_regs.(i) a) args

(* Backward-edge protection (paper §IV-C): a protected call materializes
   the address of a keyed read-only *return-site cell* into ra and jumps;
   the cell holds the true return address, and the callee's epilogue
   dereferences it with ld.ro.  Returns the emitter to run instead of a
   plain call/jalr, or None when the callee returns conventionally. *)
let protected_call ctx ~jump =
  match ctx.ret_protection with
  | None -> None
  | Some rp ->
    Some
      (fun () ->
        let n = !(rp.rp_counter) in
        rp.rp_counter := n + 1;
        let cell = Printf.sprintf "__retsite$%d" n in
        let site = Printf.sprintf ".Lretsite$%d" n in
        (* the cell lives in the return-site allowlist page *)
        emit ctx (A.Section (Printf.sprintf ".rodata.key.%d" rp.rp_key));
        emit ctx (A.Align 8);
        emit ctx (A.Label cell);
        emit ctx (A.Quad_sym site);
        emit ctx (A.Section ".text");
        emit ctx (A.La (Reg.ra, cell));
        jump ();
        emit ctx (A.Label site))

let emit_call ctx callee =
  let local =
    match ctx.ret_protection with
    | Some rp -> List.mem callee rp.rp_local_funcs
    | None -> false
  in
  if local then
    match protected_call ctx ~jump:(fun () -> emit ctx (A.Tail callee)) with
    | Some go -> go ()
    | None -> emit ctx (A.Call callee)
  else emit ctx (A.Call callee)

let emit_indirect_jump ctx ~target_reg =
  (* indirect calls always target module functions; protect when enabled *)
  match
    protected_call ctx ~jump:(fun () -> inst ctx (Inst.Jalr (Reg.zero, target_reg, 0L)))
  with
  | Some go -> go ()
  | None -> inst ctx (Inst.Jalr (Reg.ra, target_reg, 0L))

let emit_cfi_check ctx ~target_reg ~label =
  (* load the word before the target and compare with `lui x0, label` *)
  ctx.abort_used <- true;
  inst ctx
    (Inst.Load { width = Inst.Word; unsigned = false; rd = Reg.t0; rs1 = target_reg;
                 imm = -4L });
  let expected = Encode.encode (Inst.Lui (Reg.zero, Int64.of_int label)) in
  let expected_sext = Roload_util.Bits.sign_extend (Int64.of_int expected) ~width:32 in
  emit ctx (A.Li (Reg.t1, expected_sext));
  emit ctx (A.Branch_to (Inst.Bne, Reg.t0, Reg.t1, abort_label ctx))

let emit_vtint_check ctx ~vptr_reg =
  ctx.abort_used <- true;
  emit ctx (A.La (Reg.t0, ro_start_symbol));
  emit ctx (A.Branch_to (Inst.Bltu, vptr_reg, Reg.t0, abort_label ctx));
  emit ctx (A.La (Reg.t0, ro_end_symbol));
  emit ctx (A.Branch_to (Inst.Bgeu, vptr_reg, Reg.t0, abort_label ctx))

let emit_instr ctx i =
  match i with
  | Ir.Bin (op, d, a, b) -> emit_bin ctx op d a b
  | Ir.Load { dst; addr; offset; width; md } -> emit_load ctx ~dst ~addr ~offset ~width ~md
  | Ir.Store { src; addr; offset; width } -> emit_store ctx ~src ~addr ~offset ~width
  | Ir.Lea_frame (d, slot) ->
    let rd, finish = def_reg ctx d ~scratch:Reg.t0 in
    let off = List.assoc slot ctx.frame.array_offsets in
    if fits12 (Int64.of_int off) then
      inst ctx (Inst.Op_imm (Inst.Add, rd, Reg.sp, Int64.of_int off))
    else begin
      emit ctx (A.Li (rd, Int64.of_int off));
      inst ctx (Inst.Op (Inst.Add, rd, Reg.sp, rd))
    end;
    finish ()
  | Ir.Call { dst; callee; args } ->
    stage_args ctx args;
    emit_call ctx callee;
    store_result ctx dst
  | Ir.Call_indirect { dst; callee; args; sig_id = _; md } ->
    (* target into t2 before argument staging *)
    move_into ctx Reg.t2 callee;
    (match md.Ir.ic_roload_key with
    | Some _ when md.Ir.ic_elided ->
      (* roload-elide: the value is still a GFPT slot address, but the key
         check is proven redundant — dereference with a plain load *)
      inst ctx
        (Inst.Load { width = Inst.Double; unsigned = false; rd = Reg.t2; rs1 = Reg.t2;
                     imm = 0L })
    | Some key ->
      (* ICall: the value is the address of a GFPT slot; the real target
         is loaded through ld.ro with the type key (Listing 3) *)
      inst ctx
        (Inst.Load_ro { width = Inst.Double; unsigned = false; rd = Reg.t2; rs1 = Reg.t2; key })
    | None -> ());
    (match md.Ir.ic_cfi_label with
    | Some label -> emit_cfi_check ctx ~target_reg:Reg.t2 ~label
    | None -> ());
    stage_args ctx args;
    emit_indirect_jump ctx ~target_reg:Reg.t2;
    store_result ctx dst
  | Ir.Vcall { dst; obj; slot; class_name = _; args; md } ->
    (* vptr into t2 *)
    let robj = use_val ctx obj ~scratch:Reg.t2 in
    inst ctx (Inst.ld Reg.t2 robj 0L);
    if md.Ir.vc_vtint then emit_vtint_check ctx ~vptr_reg:Reg.t2;
    (match md.Ir.vc_roload_key with
    | Some key ->
      if slot <> 0 then
        inst ctx (Inst.Op_imm (Inst.Add, Reg.t2, Reg.t2, Int64.of_int (8 * slot)));
      inst ctx
        (Inst.Load_ro { width = Inst.Double; unsigned = false; rd = Reg.t2; rs1 = Reg.t2; key })
    | None ->
      inst ctx
        (Inst.Load { width = Inst.Double; unsigned = false; rd = Reg.t2; rs1 = Reg.t2;
                     imm = Int64.of_int (8 * slot) }));
    (match md.Ir.vc_cfi_label with
    | Some label -> emit_cfi_check ctx ~target_reg:Reg.t2 ~label
    | None -> ());
    stage_args ctx (obj :: args);
    emit_indirect_jump ctx ~target_reg:Reg.t2;
    store_result ctx dst

let emit_terminator ctx term ~next_label =
  match term with
  | Ir.Br l ->
    let target = block_label ctx l in
    if Some target <> next_label then emit ctx (A.Jump target)
  | Ir.Cbr (v, l1, l2) ->
    let r = use_val ctx v ~scratch:Reg.t0 in
    let t1 = block_label ctx l1 and t2 = block_label ctx l2 in
    if Some t2 = next_label then emit ctx (A.Branch_to (Inst.Bne, r, Reg.zero, t1))
    else if Some t1 = next_label then emit ctx (A.Branch_to (Inst.Beq, r, Reg.zero, t2))
    else begin
      emit ctx (A.Branch_to (Inst.Bne, r, Reg.zero, t1));
      emit ctx (A.Jump t2)
    end
  | Ir.Ret v ->
    (match v with Some v -> move_into ctx Reg.a0 v | None -> ());
    if Some (epilogue_label ctx) <> next_label then emit ctx (A.Jump (epilogue_label ctx))
  | Ir.Halt ->
    inst ctx Inst.Ebreak

(* ---------- function ---------- *)

let emit_function ?ret_protection (f : Ir.func) =
  let live = Liveness.analyze f in
  let alloc = Regalloc.allocate live in
  let frame = build_frame f alloc in
  let ctx = { func = f; alloc; frame; items = []; abort_used = false; ret_protection } in
  emit ctx (A.Section ".text");
  emit ctx (A.Align 4);
  (match f.Ir.f_cfi_id with
  | Some id -> inst ctx (Inst.Lui (Reg.zero, Int64.of_int id))
  | None -> ());
  emit ctx (A.Global f.Ir.f_name);
  emit ctx (A.Label f.Ir.f_name);
  (* prologue *)
  if frame.size > 0 then begin
    if fits12 (Int64.of_int (-frame.size)) then
      inst ctx (Inst.Op_imm (Inst.Add, Reg.sp, Reg.sp, Int64.of_int (-frame.size)))
    else begin
      emit ctx (A.Li (Reg.t0, Int64.of_int frame.size));
      inst ctx (Inst.Op (Inst.Sub, Reg.sp, Reg.sp, Reg.t0))
    end;
    store_sp ctx Reg.ra frame.ra_offset;
    List.iteri (fun i r -> store_sp ctx r (frame.saved_base + (8 * i))) frame.saved_regs
  end;
  (* parameters arrive in a0..a7 *)
  List.iteri
    (fun i t ->
      if i >= 8 then error "%s: more than 8 parameters" f.Ir.f_name;
      match Regalloc.location alloc t with
      | Regalloc.In_reg r -> if not (Reg.equal r arg_regs.(i)) then inst ctx (Inst.mv r arg_regs.(i))
      | Regalloc.Spilled s -> store_sp ctx arg_regs.(i) (spill_offset ctx s))
    f.Ir.f_params;
  (* body *)
  let blocks = Array.of_list f.Ir.f_blocks in
  Array.iteri
    (fun bi b ->
      emit ctx (A.Label (block_label ctx b.Ir.b_label));
      List.iter (emit_instr ctx) b.Ir.b_instrs;
      let next_label =
        if bi + 1 < Array.length blocks then
          Some (block_label ctx blocks.(bi + 1).Ir.b_label)
        else Some (epilogue_label ctx)
      in
      emit_terminator ctx b.Ir.b_term ~next_label)
    blocks;
  (* epilogue *)
  emit ctx (A.Label (epilogue_label ctx));
  if frame.size > 0 then begin
    List.iteri (fun i r -> load_sp ctx r (frame.saved_base + (8 * i))) frame.saved_regs;
    load_sp ctx Reg.ra frame.ra_offset;
    if fits12 (Int64.of_int frame.size) then
      inst ctx (Inst.Op_imm (Inst.Add, Reg.sp, Reg.sp, Int64.of_int frame.size))
    else begin
      emit ctx (A.Li (Reg.t0, Int64.of_int frame.size));
      inst ctx (Inst.Op (Inst.Add, Reg.sp, Reg.sp, Reg.t0))
    end
  end;
  (match ret_protection with
  | Some rp when f.Ir.f_name <> "main" ->
    (* ra holds a pointer into the return-site allowlist: dereference it
       through ld.ro (a corrupted saved-ra can only name existing cells) *)
    inst ctx
      (Inst.Load_ro { width = Inst.Double; unsigned = false; rd = Reg.ra; rs1 = Reg.ra;
                      key = rp.rp_key });
    inst ctx (Inst.Jalr (Reg.zero, Reg.ra, 0L))
  | Some _ | None -> inst ctx Inst.ret);
  if ctx.abort_used then begin
    emit ctx (A.Label (abort_label ctx));
    inst ctx Inst.Ebreak
  end;
  List.rev ctx.items

(* ---------- globals ---------- *)

let emit_global (g : Ir.global) =
  let items = ref [ A.Align 8; A.Section g.Ir.g_section ] in
  let push i = items := i :: !items in
  push (A.Label g.Ir.g_name);
  (match g.Ir.g_bytes with
  | Some bytes -> push (A.Bytes_raw bytes)
  | None ->
    List.iter
      (function
        | Ir.G_int v -> push (A.Quad_int v)
        | Ir.G_func f -> push (A.Quad_sym f)
        | Ir.G_global gg -> push (A.Quad_sym gg))
      g.Ir.g_init);
  if g.Ir.g_zero > 0 then push (A.Zero g.Ir.g_zero);
  List.rev !items

let emit_module (m : Ir.modul) =
  let ret_protection =
    match m.Ir.m_ret_key with
    | None -> None
    | Some rp_key ->
      Some
        {
          rp_key;
          rp_local_funcs = List.map (fun f -> f.Ir.f_name) m.Ir.m_funcs;
          rp_counter = ref 0;
        }
  in
  List.concat_map emit_global m.Ir.m_globals
  @ List.concat_map (emit_function ?ret_protection) m.Ir.m_funcs
