(* Trace lowering: compile a [Trace.plan] into one OCaml closure.

   The lowered code is threaded: each slot becomes a small closure that
   tail-calls the next, with every compile-time-constant quantity
   resolved once at lowering time — operand selectors, ALU operator
   functions, immediates, sign-extended constants, per-slot virtual
   addresses (the pc is constant-folded along the trace).

   Accounting is batched but *exact*: the architectural contract is that
   a traced run produces bit-identical cycles, instret, cache/TLB
   statistics, fault counts and memory state to the per-instruction
   reference engine.  The batching rests on three facts:

   - only memory operations (load/store/ld.ro) can trap mid-segment, so
     a *chunk* — a maximal slot run ending at a memory op (or the
     segment end) — either fully executes its non-memory slots or is
     never entered.  Static cycles (base, mul/div, jalr-indirect) and
     the retirements of non-memory slots are summed at compile time and
     charged on chunk entry; a memory op retires itself on success.
   - a segment is one basic block on one page, so every slot's I-TLB
     access after the first is a guaranteed rehit of the entry the
     seam's translation touched: [Tlb.rehit_many] charges all of them in
     O(1) with state identical to the sequential replays.
   - consecutive same-line fetches batch through
     [Hierarchy.rehit_ifetch_many]; line changes are resolved at compile
     time, so the per-chunk fetch plan is a handful of array entries.

   Dynamic costs (cache miss penalties, page-table walks, branch
   mispredicts) are charged as they occur, into a scratch accumulator
   that is flushed to the CPU counters at *every* exit from the trace —
   so the counters are exact whenever control is outside lowered code.

   Dynamic exits (returns, indirect jumps, mispredicted branches) chain
   directly into the target's compiled trace when one is resident
   ([chain_exit]), doing the dispatch loop's per-entry work — fuel
   check, accounted translation, entry guard — inline and tail-calling
   the target's [c_run].  Targets without a trace fall back to the
   dispatcher with their translation already paid ([T_enter_block]), so
   accounting is identical whether or not a chain happens.

   One trace serves every machine and address space that shares its
   statics.  A compiled trace depends only on its plan and on [statics]
   (costs and the I-cache line size), which a machine's forks share;
   the running machine arrives at run time as the [env] argument, with
   the MMU of whichever process it runs now.  So each machine keeps one
   trace table for all its processes, and forks copy it instead of
   re-compiling.  This is exact because:

   - every seam re-translates its VA through the running MMU, accounting
     the fetch as the dispatch loop would, and checks the PA the plan
     assumed; any other placement leaves the trace ([T_enter_block]);
   - the dispatcher and [chain_exit] enter a trace only at the PA that
     keys it and only when [c_entry_va = pc], so segment 0 runs at its
     planned VA and PA too;
   - every data access translates through [env.mmu], so the ROLoad check
     (the PTE key and read-only bit, paper §II-E1) reads the running
     process's page table, exactly as the reference engine does;
   - a compiled trace closes over nothing that is written after
     [compile] returns (decoded operands, fetch plans, other closures),
     so machines in any number of domains may run it at once.

   Traces only run when no obs tracer is attached (the dispatch loop
   guarantees this), so the lowered slots
   omit the per-retire tracer checks the reference engine performs.

   The lowered code allocates nothing on its hot path.  Registers live in
   the CPU's [Bytes] register file and are moved with the stdlib [Bytes]
   int64 primitives; the ALU, branch and load/store value code below is
   [@inline] so every [int64] stays unboxed inside one closure.  Library
   modules are compiled [-opaque] (nothing inlines across them), so the
   only values that cross a module boundary on the hot path are [int]s:
   [Mmu.translate_pa] returns the physical address, loads and stores read
   the page [Bytes] that [Phys_mem.page] hands back, and the cache and TLB
   entry points return [int]/[bool].  The [Alu] module stays the
   reference semantics for the single-step engine and the per-slot
   tier. *)

module Perm = Roload_mem.Perm
module Mmu = Roload_mem.Mmu
module Tlb = Roload_mem.Tlb
module Phys_mem = Roload_mem.Phys_mem
module Page_table = Roload_mem.Page_table
module Cache = Roload_cache.Cache
module Hierarchy = Roload_cache.Hierarchy
module Inst = Roload_isa.Inst
module Reg = Roload_isa.Reg

type exec_counts = {
  mutable loads : int;
  mutable stores : int;
  mutable roloads : int;
  mutable branches : int;
  mutable jumps : int;
  mutable indirect_jumps : int;
}

(* Why the trace handed control back.  The scratch accumulator is always
   flushed and [Cpu.pc] always set before any of these is returned. *)
type texit =
  | T_redispatch  (** continue at [Cpu.pc] through the dispatch loop *)
  | T_trap of Trap.t
  | T_enter_block of { eb_pc : int; eb_pa : int }
      (** a translation already accounted its I-TLB access but did not
          end in a trace entry (unplanned physical page at a seam, or a
          chained exit whose target has no usable trace); the dispatcher
          must run the block at [eb_pa] without re-translating *)
  | T_code_written
      (** a store hit a page holding decoded code: the dispatcher flushes
          every code cache (this trace included), then continues at
          [Cpu.pc] *)

(* Config-fixed values a trace bakes in at compile time: the cost model
   and the I-cache line size.  Forks of a machine share them, so they
   share its traces too. *)
type statics = {
  line_shift : int;
  c_base : int;
  c_mispredict : int;
  c_jalr_indirect : int;
  c_mul : int;
  c_div : int;
  c_ptw : int;
}

type compiled = {
  c_entry_va : int;
  c_entry_pa : int;
  c_max_retire : int; (* slots retired by one front-to-back pass *)
  c_n_segs : int;
  c_n_slots : int;
  c_run : env -> fuel:int -> Tlb.handle -> texit;
      (* [fuel] must be >= [c_max_retire]; the dispatch loop checks *)
}

(* The run-time record of one machine, passed to every lowered closure:
   its state, the address space it runs now, its one trace table, and
   the trace scratch — cycle/retire accumulators, the remaining fuel as
   of the last flush (the loop-back and chain guards compare against
   it), and the I-cache line handle threaded between fetch batches (a
   segment's first fetch always re-points it, so it needs no reset).
   One scratch serves every trace: a trace hands over only through
   [chain_exit], which flushes first. *)
and env = {
  cpu : Cpu.t;
  regs : Bytes.t; (* Cpu.regs cpu; bytes 0..7 are x0 and stay 0 *)
  mem : Phys_mem.t;
  hier : Hierarchy.t;
  mutable mmu : Mmu.t;
  mutable itlb : Tlb.t;
  counts : exec_counts;
  key_counts : int array;
      (* ld.ro retirements per requested key (one slot per 10-bit key),
         always maintained, so metrics work with tracing off *)
  code_pages : Bytes.t; (* see [register_code_page] *)
  traces : (int, compiled) Hashtbl.t;
  mutable k_cycles : int;
  mutable k_retired : int;
  mutable k_fuel : int;
  k_line : Cache.handle;
}

(* The code-page bitmap over PPNs: pages holding bytes of a memoized
   decoded instruction.  A store into one flushes every code cache. *)
let register_code_page code_pages pa =
  let ppn = pa lsr Page_table.page_shift in
  let i = ppn lsr 3 in
  Bytes.unsafe_set code_pages i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get code_pages i) lor (1 lsl (ppn land 7))))

let page_holds_code code_pages pa =
  let ppn = pa lsr Page_table.page_shift in
  Char.code (Bytes.unsafe_get code_pages (ppn lsr 3)) land (1 lsl (ppn land 7)) <> 0

let flush env =
  if env.k_cycles <> 0 then begin
    Cpu.add_cycles env.cpu env.k_cycles;
    env.k_cycles <- 0
  end;
  if env.k_retired <> 0 then begin
    Cpu.retire_n env.cpu env.k_retired;
    env.k_fuel <- env.k_fuel - env.k_retired;
    env.k_retired <- 0
  end

let side_exit env ~pc =
  flush env;
  Cpu.set_pc env.cpu pc;
  T_redispatch

(* A dynamic exit whose target may itself be a compiled trace.  Performs
   exactly the dispatch loop's per-entry work — fuel check first, then
   one accounted translation — and tail-calls straight into the target
   trace when one is resident, skipping the round trip through the
   dispatch loop that otherwise dominates call/return-heavy code.  A
   target without a usable trace is handed back as [T_enter_block]: its
   translation is already accounted, so the dispatcher runs the block
   there without translating again.  Every chained hop retires at least
   one instruction (the first chunk's statics are charged before any
   exit can chain), so fuel strictly decreases and chains terminate. *)
let chain_exit st env ~pc =
  flush env;
  Cpu.set_pc env.cpu pc;
  if env.k_fuel <= 0 || pc land 1 <> 0 then T_redispatch
  else begin
    let mmu = env.mmu in
    let pa = Mmu.translate_pa mmu ~access:Perm.Fetch pc in
    if pa < 0 then T_trap (Trap.of_mmu_fault ~pc (Mmu.last_fault mmu))
    else begin
      Cpu.add_cycles env.cpu (Mmu.walk_steps mmu * st.c_ptw);
      match Hashtbl.find_opt env.traces pa with
      | Some c when c.c_entry_va = pc && c.c_max_retire <= env.k_fuel ->
        c.c_run env ~fuel:env.k_fuel (Mmu.fetch_handle mmu pc)
      | _ -> T_enter_block { eb_pc = pc; eb_pa = pa }
    end
  end

(* A block is compilable when every slot can be lowered: no ecall/ebreak
   (the kernel decides the resumption pc), and no ld.ro on a baseline
   machine (it must raise Illegal_instruction, which the per-slot tier
   already handles). *)
let compilable ~roload_enabled b =
  let n = Block.length b in
  let ok = ref true in
  for i = 0 to n - 1 do
    match (Block.slot b i).Block.s_inst with
    | Inst.Ecall | Inst.Ebreak -> ok := false
    | Inst.Load_ro _ -> if not roload_enabled then ok := false
    | _ -> ()
  done;
  !ok

(* ---- unboxed value code ----
   The [@inline] helpers below are expanded inside each lowered closure,
   so the [int64]s they compute go straight from one [Bytes] primitive to
   the next and are never boxed.  Register [r] lives at byte [8 * r]. *)

let page_mask = Phys_mem.page_bytes - 1
let[@inline] get regs o = Bytes.get_int64_le regs o
let[@inline] set regs o v = Bytes.set_int64_le regs o v
let[@inline] sext32 v = Int64.of_int32 (Int64.to_int32 v)
let[@inline] ult (a : int64) b = Int64.add a Int64.min_int < Int64.add b Int64.min_int
let[@inline] bool64 b = if b then 1L else 0L

let[@inline] alu (op : Inst.alu_op) (a : int64) b =
  match op with
  | Inst.Add -> Int64.add a b
  | Inst.Sub -> Int64.sub a b
  | Inst.Sll -> Int64.shift_left a (Int64.to_int b land 63)
  | Inst.Slt -> bool64 (a < b)
  | Inst.Sltu -> bool64 (ult a b)
  | Inst.Xor -> Int64.logxor a b
  | Inst.Srl -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Inst.Sra -> Int64.shift_right a (Int64.to_int b land 63)
  | Inst.Or -> Int64.logor a b
  | Inst.And -> Int64.logand a b

let[@inline] alu_w (op : Inst.alu_w_op) a b =
  match op with
  | Inst.Addw -> sext32 (Int64.add a b)
  | Inst.Subw -> sext32 (Int64.sub a b)
  | Inst.Sllw -> sext32 (Int64.shift_left a (Int64.to_int b land 31))
  | Inst.Srlw ->
    sext32 (Int64.shift_right_logical (Int64.logand a 0xFFFFFFFFL) (Int64.to_int b land 31))
  | Inst.Sraw -> sext32 (Int64.shift_right (sext32 a) (Int64.to_int b land 31))

let[@inline] holds (c : Inst.branch_cond) (a : int64) b =
  match c with
  | Inst.Beq -> a = b
  | Inst.Bne -> a <> b
  | Inst.Blt -> a < b
  | Inst.Bge -> a >= b
  | Inst.Bltu -> ult a b
  | Inst.Bgeu -> not (ult a b)

(* [pg]/[off] as handed out by [Phys_mem.page]; aligned, so in bounds. *)
let[@inline] load_value (width : Inst.width) ~unsigned pg off =
  match width with
  | Inst.Byte ->
    Int64.of_int (if unsigned then Bytes.get_uint8 pg off else Bytes.get_int8 pg off)
  | Inst.Half ->
    Int64.of_int (if unsigned then Bytes.get_uint16_le pg off else Bytes.get_int16_le pg off)
  | Inst.Word ->
    let v = Int64.of_int32 (Bytes.get_int32_le pg off) in
    if unsigned then Int64.logand v 0xFFFFFFFFL else v
  | Inst.Double -> Bytes.get_int64_le pg off

let[@inline] store_value (width : Inst.width) pg off v =
  match width with
  | Inst.Byte -> Bytes.set_int8 pg off (Int64.to_int v)
  | Inst.Half -> Bytes.set_int16_le pg off (Int64.to_int v)
  | Inst.Word -> Bytes.set_int32_le pg off (Int64.to_int32 v)
  | Inst.Double -> Bytes.set_int64_le pg off v

(* The shared front of every memory op: alignment check, translation,
   and the walk + D-cache cycle charge.  Returns the physical address,
   or -1 when the access traps — [mem_trap] then builds the trap. *)
let data_pa st env ~access ~amask ~write va_d =
  if va_d land amask <> 0 then -1
  else begin
    let mmu = env.mmu in
    let pa = Mmu.translate_pa mmu ~access va_d in
    if pa >= 0 then
      env.k_cycles <-
        env.k_cycles + (Mmu.walk_steps mmu * st.c_ptw)
        + Hierarchy.access_data env.hier ~pa ~write;
    pa
  end

let mem_trap env ~va ~access ~amask va_d =
  flush env;
  Cpu.set_pc env.cpu va;
  if va_d land amask <> 0 then T_trap (Trap.Misaligned_access { pc = va; va = va_d; access })
  else T_trap (Trap.of_mmu_fault ~pc:va (Mmu.last_fault env.mmu))

(* Static extra cycles an instruction always pays on top of base. *)
let static_extra st (i : Inst.t) =
  match i with
  | Inst.Mulop (op, _, _, _) -> (
    match op with
    | Inst.Mul | Inst.Mulh | Inst.Mulhsu | Inst.Mulhu -> st.c_mul
    | Inst.Div | Inst.Divu | Inst.Rem | Inst.Remu -> st.c_div)
  | Inst.Mulop_w (op, _, _, _) -> (
    match op with
    | Inst.Mulw -> st.c_mul
    | Inst.Divw | Inst.Divuw | Inst.Remw | Inst.Remuw -> st.c_div / 2)
  | _ -> 0

(* Per-chunk instruction-fetch plan, resolved at compile time: a full
   I-cache access on every line change, consecutive same-line fetches
   batched into one O(1) rehit.  [pas] is kept for the (in practice
   unreachable) eviction fallback, which replays each fetch exactly as
   the reference engine would. *)
type fop =
  | F_acc of int (* pa *)
  | F_rehit of { n : int; pas : int array }

let exec_fops env fops =
  for i = 0 to Array.length fops - 1 do
    match Array.unsafe_get fops i with
    | F_acc pa -> env.k_cycles <- env.k_cycles + Hierarchy.ifetch_into env.hier ~pa env.k_line
    | F_rehit { n; pas } ->
      if not (Hierarchy.rehit_ifetch_many env.hier env.k_line ~n) then
        (* the line was evicted across a seam (cannot happen within a
           segment: a page's lines map to distinct sets) — replay each
           fetch individually, exactly like the reference engine *)
        Array.iter
          (fun pa ->
            if not (Hierarchy.rehit_ifetch env.hier env.k_line) then
              env.k_cycles <- env.k_cycles + Hierarchy.ifetch_into env.hier ~pa env.k_line)
          pas
  done

(* ---- slot lowering ---- *)

type slot = env -> Tlb.handle -> texit

(* Lower one non-terminator slot at virtual address [va] into a closure
   chaining to [next].  Slots with no dynamic work (writes to x0, fence)
   lower to [next] itself — their base cycle and retirement are already
   in the chunk statics. *)
let lower_slot st ~va ~next_va (s : Block.slot) (next : slot) : slot =
  let const rd v =
    let d = 8 * Reg.to_int rd in
    if d = 0 then next
    else fun env h ->
      set env.regs d v;
      next env h
  in
  match s.Block.s_inst with
  | Inst.Lui (rd, imm) ->
    const rd (Roload_util.Bits.sign_extend (Int64.shift_left imm 12) ~width:32)
  | Inst.Auipc (rd, imm) ->
    (* pc is a compile-time constant along the trace *)
    const rd
      (Int64.add (Int64.of_int va)
         (Roload_util.Bits.sign_extend (Int64.shift_left imm 12) ~width:32))
  | Inst.Op_imm (op, rd, rs1, imm) ->
    let d = 8 * Reg.to_int rd and a = 8 * Reg.to_int rs1 in
    if d = 0 then next
    else fun env h ->
      set env.regs d (alu op (get env.regs a) imm);
      next env h
  | Inst.Op_imm_w (op, rd, rs1, imm) ->
    let d = 8 * Reg.to_int rd and a = 8 * Reg.to_int rs1 in
    if d = 0 then next
    else fun env h ->
      set env.regs d (alu_w op (get env.regs a) imm);
      next env h
  | Inst.Op (op, rd, rs1, rs2) ->
    let d = 8 * Reg.to_int rd and a = 8 * Reg.to_int rs1 and b = 8 * Reg.to_int rs2 in
    if d = 0 then next
    else fun env h ->
      set env.regs d (alu op (get env.regs a) (get env.regs b));
      next env h
  | Inst.Op_w (op, rd, rs1, rs2) ->
    let d = 8 * Reg.to_int rd and a = 8 * Reg.to_int rs1 and b = 8 * Reg.to_int rs2 in
    if d = 0 then next
    else fun env h ->
      set env.regs d (alu_w op (get env.regs a) (get env.regs b));
      next env h
  | Inst.Mulop (op, rd, rs1, rs2) -> (
    (* mul/div latency is static, charged in the chunk; only [mul] is
       common enough to earn an unboxed closure *)
    let d = 8 * Reg.to_int rd and a = 8 * Reg.to_int rs1 and b = 8 * Reg.to_int rs2 in
    if d = 0 then next
    else
      match op with
      | Inst.Mul ->
        fun env h ->
          set env.regs d (Int64.mul (get env.regs a) (get env.regs b));
          next env h
      | Inst.Mulh | Inst.Mulhsu | Inst.Mulhu | Inst.Div | Inst.Divu | Inst.Rem | Inst.Remu ->
        fun env h ->
          set env.regs d (Alu.mulop op (get env.regs a) (get env.regs b));
          next env h)
  | Inst.Mulop_w (op, rd, rs1, rs2) -> (
    let d = 8 * Reg.to_int rd and a = 8 * Reg.to_int rs1 and b = 8 * Reg.to_int rs2 in
    if d = 0 then next
    else
      match op with
      | Inst.Mulw ->
        fun env h ->
          set env.regs d (sext32 (Int64.mul (sext32 (get env.regs a)) (sext32 (get env.regs b))));
          next env h
      | Inst.Divw | Inst.Divuw | Inst.Remw | Inst.Remuw ->
        fun env h ->
          set env.regs d (Alu.mulop_w op (get env.regs a) (get env.regs b));
          next env h)
  | Inst.Fence -> next
  | Inst.Load { width; unsigned; rd; rs1; imm } ->
    let d = 8 * Reg.to_int rd and a = 8 * Reg.to_int rs1 in
    let len = Inst.width_bytes width in
    let amask = len - 1 in
    fun env h ->
      let regs = env.regs and counts = env.counts in
      counts.loads <- counts.loads + 1;
      let va_d = Int64.to_int (Int64.add (get regs a) imm) in
      let pa = data_pa st env ~access:Perm.Load ~amask ~write:false va_d in
      if pa < 0 then mem_trap env ~va ~access:Perm.Load ~amask va_d
      else begin
        if d <> 0 then
          set regs d
            (load_value width ~unsigned (Phys_mem.page env.mem pa ~len ~write:false)
               (pa land page_mask));
        env.k_retired <- env.k_retired + 1;
        next env h
      end
  | Inst.Load_ro { width; unsigned; rd; rs1; key } ->
    (* only compiled on a ROLoad-enabled machine ([compilable]); the
       tracer's Roload_issue/Roload_fault events are omitted because
       traces never run with a tracer attached *)
    let d = 8 * Reg.to_int rd and a = 8 * Reg.to_int rs1 in
    let len = Inst.width_bytes width in
    let amask = len - 1 in
    let k = key land Roload_isa.Roload_ext.max_key in
    let access = Perm.Roload key in
    fun env h ->
      let regs = env.regs and counts = env.counts and key_counts = env.key_counts in
      counts.roloads <- counts.roloads + 1;
      key_counts.(k) <- key_counts.(k) + 1;
      let va_d = Int64.to_int (get regs a) in
      let pa = data_pa st env ~access ~amask ~write:false va_d in
      if pa < 0 then mem_trap env ~va ~access ~amask va_d
      else begin
        if d <> 0 then
          set regs d
            (load_value width ~unsigned (Phys_mem.page env.mem pa ~len ~write:false)
               (pa land page_mask));
        env.k_retired <- env.k_retired + 1;
        next env h
      end
  | Inst.Store { width; rs2; rs1; imm } ->
    let a = 8 * Reg.to_int rs1 and b = 8 * Reg.to_int rs2 in
    let len = Inst.width_bytes width in
    let amask = len - 1 in
    fun env h ->
      let regs = env.regs and counts = env.counts in
      counts.stores <- counts.stores + 1;
      let va_d = Int64.to_int (Int64.add (get regs a) imm) in
      let pa = data_pa st env ~access:Perm.Store ~amask ~write:true va_d in
      if pa < 0 then mem_trap env ~va ~access:Perm.Store ~amask va_d
      else begin
        store_value width
          (Phys_mem.page env.mem pa ~len ~write:true)
          (pa land page_mask) (get regs b);
        env.k_retired <- env.k_retired + 1;
        if page_holds_code env.code_pages pa then begin
          (* self-modifying code: the dispatcher's flush destroys this
             very trace; leave immediately with the pc already advanced *)
          flush env;
          Cpu.set_pc env.cpu next_va;
          T_code_written
        end
        else next env h
      end
  | Inst.Jal _ | Inst.Jalr _ | Inst.Branch _ | Inst.Ecall | Inst.Ebreak ->
    (* terminators are lowered by [lower_term]; ecall/ebreak never pass
       [compilable] *)
    assert false

(* ---- terminator lowering ---- *)

(* What the stitched edge expects, resolved at compile time. *)
type cont_kind =
  | Stitch of { expect_va : int; cont : env -> texit }
  | Leave

let lower_term st ~end_va (term : Trace.term) (kind : cont_kind) : slot =
  match term with
  | Trace.K_fall { next_va } -> (
    (* no instruction: the block closed at the page boundary *)
    match kind with
    | Stitch { cont; _ } -> fun env _h -> cont env
    | Leave -> fun env _h -> chain_exit st env ~pc:next_va)
  | Trace.K_jal { rd; target_va } -> (
    let d = 8 * Reg.to_int rd in
    let link = Int64.of_int end_va in
    match kind with
    | Stitch { cont; _ } ->
      (* a jal's target is static: the stitched edge always holds *)
      fun env _h ->
        env.counts.jumps <- env.counts.jumps + 1;
        if d <> 0 then set env.regs d link;
        cont env
    | Leave ->
      fun env _h ->
        env.counts.jumps <- env.counts.jumps + 1;
        if d <> 0 then set env.regs d link;
        chain_exit st env ~pc:target_va)
  | Trace.K_jalr { rd; rs1; imm; is_return } ->
    (* the indirect penalty for non-returns is static, charged in the
       chunk *)
    let d = 8 * Reg.to_int rd and a = 8 * Reg.to_int rs1 in
    let link = Int64.of_int end_va in
    fun env _h ->
      let regs = env.regs and counts = env.counts in
      counts.jumps <- counts.jumps + 1;
      if not is_return then counts.indirect_jumps <- counts.indirect_jumps + 1;
      (* target before link write: rs1 may equal rd *)
      let tgt = Int64.to_int (Int64.logand (Int64.add (get regs a) imm) (-2L)) in
      if d <> 0 then set regs d link;
      (match kind with
      | Stitch { expect_va; cont } ->
        if tgt = expect_va then cont env else chain_exit st env ~pc:tgt
      | Leave -> chain_exit st env ~pc:tgt)
  | Trace.K_branch { cond; rs1; rs2; taken_va; fall_va; predicted_taken } -> (
    let a = 8 * Reg.to_int rs1 and b = 8 * Reg.to_int rs2 in
    let c_mispredict = st.c_mispredict in
    match kind with
    | Stitch { expect_va; cont } ->
      let stitch_taken = expect_va = taken_va in
      fun env _h ->
        env.counts.branches <- env.counts.branches + 1;
        let taken = holds cond (get env.regs a) (get env.regs b) in
        if taken <> predicted_taken then env.k_cycles <- env.k_cycles + c_mispredict;
        if taken = stitch_taken then cont env
        else chain_exit st env ~pc:(if taken then taken_va else fall_va)
    | Leave ->
      fun env _h ->
        env.counts.branches <- env.counts.branches + 1;
        let taken = holds cond (get env.regs a) (get env.regs b) in
        if taken <> predicted_taken then env.k_cycles <- env.k_cycles + c_mispredict;
        chain_exit st env ~pc:(if taken then taken_va else fall_va))

(* ---- segment lowering ---- *)

(* Per-chunk compile-time plan (see the module header for why chunk
   boundaries sit at memory ops). *)
type chunk_plan = {
  cp_k0 : int;
  cp_k1 : int;
  cp_first_va : int;
  cp_tlb_n : int; (* batched I-TLB rehits; segment entry covers slot 0 *)
  cp_cycles : int;
  cp_retires : int;
  cp_fops : fop array;
}

let lower_segment st (sg : Trace.seg) ~(kind : cont_kind) : slot =
  let b = sg.Trace.sg_block in
  let len = Block.length b in
  let vpn = sg.Trace.sg_va lsr Page_table.page_shift in
  let vas = Array.make len 0 in
  let () =
    let va = ref sg.Trace.sg_va in
    for i = 0 to len - 1 do
      vas.(i) <- !va;
      va := !va + (Block.slot b i).Block.s_size
    done
  in
  let is_mem i =
    match (Block.slot b i).Block.s_inst with
    | Inst.Load _ | Inst.Store _ | Inst.Load_ro _ -> true
    | _ -> false
  in
  let has_term_slot = match sg.Trace.sg_term with Trace.K_fall _ -> false | _ -> true in
  let term_closure = lower_term st ~end_va:sg.Trace.sg_end_va sg.Trace.sg_term kind in
  let term_extra =
    match sg.Trace.sg_term with
    | Trace.K_jalr { is_return = false; _ } -> st.c_jalr_indirect
    | _ -> 0
  in
  (* chunk boundaries, then per-chunk statics and fetch plans in forward
     order ([cur_line] threads the compile-time I-cache line across
     chunks; it resets per segment, mirroring the per-slot tier's
     per-entry reset) *)
  let bounds = ref [] in
  let k0 = ref 0 in
  for i = 0 to len - 1 do
    if is_mem i || i = len - 1 then begin
      bounds := (!k0, i) :: !bounds;
      k0 := i + 1
    end
  done;
  let bounds = List.rev !bounds in
  let cur_line = ref (-1) in
  let plan_of (k0, k1) =
    let cycles = ref 0 and retires = ref 0 in
    let ops = ref [] and pend = ref [] in
    let flush_pend () =
      match !pend with
      | [] -> ()
      | l ->
        let pas = Array.of_list (List.rev l) in
        ops := F_rehit { n = Array.length pas; pas } :: !ops;
        pend := []
    in
    for i = k0 to k1 do
      let s = Block.slot b i in
      cycles := !cycles + st.c_base + static_extra st s.Block.s_inst;
      if not (is_mem i) then incr retires;
      let line = s.Block.s_pa lsr st.line_shift in
      if line <> !cur_line then begin
        flush_pend ();
        ops := F_acc s.Block.s_pa :: !ops;
        cur_line := line
      end
      else pend := s.Block.s_pa :: !pend
    done;
    flush_pend ();
    if k1 = len - 1 then cycles := !cycles + term_extra;
    let n_slots = k1 - k0 + 1 in
    {
      cp_k0 = k0;
      cp_k1 = k1;
      cp_first_va = vas.(k0);
      cp_tlb_n = (if k0 = 0 then n_slots - 1 else n_slots);
      cp_cycles = !cycles;
      cp_retires = !retires;
      cp_fops = Array.of_list (List.rev !ops);
    }
  in
  let plans = List.map plan_of bounds in
  (* closures, back-to-front; for K_fall the epilogue follows the last
     slot, otherwise the terminator slot itself ends the chain *)
  let chunk_closure cp (next : slot) : slot =
    let chain = ref next in
    for i = cp.cp_k1 downto cp.cp_k0 do
      if has_term_slot && i = len - 1 then chain := term_closure
      else begin
        let s = Block.slot b i in
        chain := lower_slot st ~va:vas.(i) ~next_va:(vas.(i) + s.Block.s_size) s !chain
      end
    done;
    let chain = !chain in
    let { cp_first_va; cp_tlb_n; cp_cycles; cp_retires; cp_fops; _ } = cp in
    fun env h ->
      if cp_tlb_n > 0 && not (Tlb.rehit_many env.itlb ~vpn h ~n:cp_tlb_n) then
        (* entry evicted mid-segment (unreachable in practice): nothing
           was accounted; the dispatch loop's full translate takes over *)
        side_exit env ~pc:cp_first_va
      else begin
        exec_fops env cp_fops;
        env.k_cycles <- env.k_cycles + cp_cycles;
        env.k_retired <- env.k_retired + cp_retires;
        chain env h
      end
  in
  let tail : slot =
    if has_term_slot then fun _env _h -> assert false (* chain ends at the terminator *)
    else term_closure
  in
  List.fold_left (fun next cp -> chunk_closure cp next) tail (List.rev plans)

(* ---- trace compilation ---- *)

let compile st (plan : Trace.plan) : compiled =
  let segs = plan.Trace.p_segs in
  let n = Array.length segs in
  let entry_va = plan.Trace.p_entry_va and max_retire = plan.Trace.p_max_retire in
  (* written once, below, before [compile] returns *)
  let body0_fwd = ref (fun (_ : env) (_ : Tlb.handle) -> T_redispatch) in
  (* Segment seam: re-translate the static entry VA through the running
     MMU (accounting the I-TLB access and any walk, exactly like the
     dispatch loop's block entry), verify the physical placement the plan
     assumed, and fetch a fresh TLB handle for the segment's batched
     rehits. *)
  let seam (sg : Trace.seg) (body : slot) =
    let va = sg.Trace.sg_va and planned_pa = sg.Trace.sg_pa in
    fun env ->
      let mmu = env.mmu in
      let pa = Mmu.translate_pa mmu ~access:Perm.Fetch va in
      if pa < 0 then begin
        flush env;
        Cpu.set_pc env.cpu va;
        T_trap (Trap.of_mmu_fault ~pc:va (Mmu.last_fault mmu))
      end
      else begin
        env.k_cycles <- env.k_cycles + (Mmu.walk_steps mmu * st.c_ptw);
        if pa <> planned_pa then begin
          (* remapped since planning: the fetch is accounted, so hand the
             dispatcher the PA to run without a second translation *)
          flush env;
          Cpu.set_pc env.cpu va;
          T_enter_block { eb_pc = va; eb_pa = pa }
        end
        else body env (Mmu.fetch_handle mmu va)
      end
  in
  let loop_cont =
    let seam0 = seam segs.(0) (fun env h -> !body0_fwd env h) in
    fun env ->
      (* another full pass must fit in the fuel captured at entry;
         otherwise leave with exact counters and let the dispatcher
         re-evaluate *)
      if env.k_retired + max_retire <= env.k_fuel then seam0 env
      else side_exit env ~pc:entry_va
  in
  let bodies = Array.make n (fun (_ : env) (_ : Tlb.handle) -> T_redispatch) in
  for j = n - 1 downto 0 do
    let sg = segs.(j) in
    let kind =
      match sg.Trace.sg_link with
      | Trace.L_exit -> Leave
      | Trace.L_seg ->
        let nxt = segs.(j + 1) in
        Stitch { expect_va = nxt.Trace.sg_va; cont = seam nxt bodies.(j + 1) }
      | Trace.L_loop -> Stitch { expect_va = entry_va; cont = loop_cont }
    in
    bodies.(j) <- lower_segment st sg ~kind
  done;
  body0_fwd := bodies.(0);
  let body0 = bodies.(0) in
  {
    c_entry_va = entry_va;
    c_entry_pa = plan.Trace.p_entry_pa;
    c_max_retire = max_retire;
    c_n_segs = n;
    c_n_slots = max_retire;
    c_run =
      (fun env ~fuel h ->
        env.k_cycles <- 0;
        env.k_retired <- 0;
        env.k_fuel <- fuel;
        body0 env h);
  }
