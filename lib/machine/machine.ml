(* The machine top: fetch/decode/execute with a deterministic cycle model.

   Timing is intentionally simple but shape-preserving:
   - every instruction costs 1 base cycle;
   - instruction fetch and data accesses are charged through the L1
     caches; TLB misses charge the page-table walk;
   - branches use a static predictor (backward taken / forward not-taken)
     with a mispredict penalty; jalr pays an indirect-jump penalty unless
     it is a return (modelled return-address stack);
   - mul/div pay multi-cycle latencies.
   A ld.ro costs exactly as much as the equivalent ld: the read-only+key
   check runs in parallel inside the MMU (the paper's central performance
   claim). *)

module Perm = Roload_mem.Perm
module Mmu = Roload_mem.Mmu
module Tlb = Roload_mem.Tlb
module Phys_mem = Roload_mem.Phys_mem
module Page_table = Roload_mem.Page_table
module Inst = Roload_isa.Inst
module Reg = Roload_isa.Reg
module Event = Roload_obs.Event
module Tracer = Roload_obs.Tracer

type costs = {
  base : int;
  branch_mispredict : int;
  jalr_indirect : int;
  mul : int;
  div : int;
  ptw_step : int; (* cycles per page-table-walk level on a TLB miss *)
}

let default_costs =
  { base = 1; branch_mispredict = 3; jalr_indirect = 2; mul = 3; div = 32; ptw_step = 8 }

(* Dynamic instruction-mix counters live in [Lower] (the trace compiler
   increments them from lowered closures); re-exported here so existing
   users keep saying [Machine.exec_counts]. *)
type exec_counts = Lower.exec_counts = {
  mutable loads : int;
  mutable stores : int;
  mutable roloads : int;
  mutable branches : int;
  mutable jumps : int;
  mutable indirect_jumps : int;
}

type engine = Single_step | Traced

let engine_name = function
  | Single_step -> "single"
  | Traced -> "traced"

let engine_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "single" | "single-step" | "step" -> Ok Single_step
  | "traced" | "trace" -> Ok Traced
  | _ -> Error (Printf.sprintf "unknown engine %S (valid: single, traced)" s)

(* Per-block profile accumulator (traced engine's per-slot tier and its
   traces), keyed by the block's (or trace entry's) start PA.  Profiling,
   like tracing, never touches simulated state — it reads the
   cycle/instret counters around each visit. *)
type prof = {
  mutable p_entries : int;
  mutable p_cycles : int;
  mutable p_insts : int;
}

(* The trace-compiled engine is the default.  An engine set by
   [set_default_engine] (a front-end's explicit flag) wins over
   [ROLOAD_ENGINE], which wins over the built-in default ([single] is the
   per-instruction reference interpreter, kept for differential
   testing).  Environment values fail loudly — a silently misread engine
   name or threshold would invalidate benchmark comparisons. *)
let explicit_engine = ref None
let set_default_engine e = explicit_engine := Some e

(* The engine a [create] with no [?engine] argument would pick right
   now.  Harness front-ends use this to label their output. *)
let effective_engine () =
  match (!explicit_engine, Sys.getenv_opt "ROLOAD_ENGINE") with
  | Some e, _ -> e
  | None, (None | Some "") -> Traced
  | None, Some s -> (
    match engine_of_string s with
    | Ok e -> e
    | Error msg -> failwith ("ROLOAD_ENGINE: " ^ msg))

(* Dispatch-loop entries before a block is considered hot enough to seed
   a trace.  The default follows the trace former: the dispatcher notes
   a block's successor at the dispatch after that block completes, so at
   its k-th entry a block's own dynamic edge has been seen at most k-1
   times in a row.  A trace compiled before entry
   [Trace.stability_threshold + 1] therefore ends at its entry block's
   branch, and it is never re-formed, because the table keeps it until a
   flush.  Any later entry only runs slots on the per-slot tier for no
   gain.  ROLOAD_TRACE_HOT overrides (tests use 1 to force immediate
   compilation, a huge value turns trace compilation off), and the
   differential fuzzer sets the process default per scheme so short
   generated programs still exercise the trace compiler. *)
let default_hot_threshold' = ref (Trace.stability_threshold + 1)
let default_hot_threshold () = !default_hot_threshold'
let set_default_hot_threshold n = default_hot_threshold' := max 1 n

let effective_hot_threshold () =
  match Sys.getenv_opt "ROLOAD_TRACE_HOT" with
  | None | Some "" -> !default_hot_threshold'
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ ->
      failwith
        (Printf.sprintf "ROLOAD_TRACE_HOT: invalid threshold %S (expected an integer >= 1)" s))

type t = {
  config : Config.t;
  rt : Lower.env;
      (* the state compiled traces read at run time — cpu, memory,
         hierarchy, counters, code-page bitmap, installed MMU — and the
         one trace table (keyed by entry-block start PA) every process of
         the machine shares.  The table is flushed with the block cache,
         so self-modifying code can never run a stale trace. *)
  costs : costs;
  engine : engine;
  mutable mmu : Mmu.t option;
  decode_cache : (int, Inst.t * int) Hashtbl.t;
  blocks : (int, Block.t) Hashtbl.t; (* keyed by block start PA *)
  mutable code_gen : int; (* bumped on every decode/block flush *)
  line_shift : int; (* log2 of the I-cache line size *)
  mutable tracer : Tracer.t option;
      (* the obs side channel; [None] costs one option check per retire *)
  mutable block_enters : int;
  mutable block_hits : int; (* entries that found a pre-decoded block *)
  mutable block_decodes : int; (* slots lazily decoded and appended *)
  hot_threshold : int; (* block entries before a trace is attempted *)
  mutable trace_enters : int; (* dispatches into a compiled trace *)
  mutable trace_retires : int; (* instructions retired inside traces *)
  mutable traces_compiled : int;
  mutable injections : int;
      (* roload-chaos faults applied to this machine's state — always
         counted, so the metrics snapshot is exact with tracing off *)
  mutable profile : (int, prof) Hashtbl.t option;
}

type step_result =
  | Continue
  | Trapped of Trap.t

(* The MMU a run-time record names until an address space is installed.
   Nothing translates through it: every run starts at [mmu_exn]. *)
let no_mmu =
  let mem = Phys_mem.create ~size:Phys_mem.page_bytes in
  Mmu.create
    ~page_table:(Page_table.create ~mem ~alloc_frame:(fun () -> 0))
    ~itlb_entries:1 ~dtlb_entries:1 ~roload_check_enabled:false

(* One constructor for [create] and [fork]: memory, caches and code
   tables come in; every counter starts at zero. *)
let make ~costs ~engine ~hot_threshold (config : Config.t) ~mem ~hier ~decode_cache ~blocks
    ~code_pages ~traces =
  let cpu = Cpu.create () in
  {
    config;
    rt =
      {
        Lower.cpu;
        regs = Cpu.regs cpu;
        mem;
        hier;
        mmu = no_mmu;
        itlb = Mmu.itlb no_mmu;
        counts = { loads = 0; stores = 0; roloads = 0; branches = 0; jumps = 0; indirect_jumps = 0 };
        key_counts = Array.make (Roload_isa.Roload_ext.max_key + 1) 0;
        code_pages;
        traces;
        k_cycles = 0;
        k_retired = 0;
        k_fuel = 0;
        k_line = Roload_cache.Cache.handle ();
      };
    costs;
    engine;
    mmu = None;
    decode_cache;
    blocks;
    code_gen = 0;
    line_shift = Roload_util.Bits.log2_exact config.Config.icache.Roload_cache.Cache.line_bytes;
    tracer = None;
    block_enters = 0;
    block_hits = 0;
    block_decodes = 0;
    hot_threshold;
    trace_enters = 0;
    trace_retires = 0;
    traces_compiled = 0;
    injections = 0;
    profile = None;
  }

let create ?(costs = default_costs) ?engine (config : Config.t) =
  let engine = match engine with Some e -> e | None -> effective_engine () in
  (* small tables: images copy them, and [Hashtbl] grows them on demand *)
  make ~costs ~engine ~hot_threshold:(effective_hot_threshold ()) config
    ~mem:(Phys_mem.create ~size:config.Config.phys_mem_bytes)
    ~hier:
      (Roload_cache.Hierarchy.create ~icache_config:config.Config.icache
         ~dcache_config:config.Config.dcache ~latencies:config.Config.latencies ())
    ~decode_cache:(Hashtbl.create 64) ~blocks:(Hashtbl.create 64)
    ~code_pages:
      (Bytes.make ((config.Config.phys_mem_bytes lsr (Page_table.page_shift + 3)) + 1) '\000')
    ~traces:(Hashtbl.create 64)

let cpu t = t.rt.cpu
let mem t = t.rt.mem
let config t = t.config
let hierarchy t = t.rt.hier
let counts t = t.rt.counts
let engine t = t.engine

(* Drop every memoized decode: pre-decoded blocks, compiled traces, the
   per-pa decode memo and the code-page bitmap.  [code_gen] tells an
   in-flight block run that the block it is executing no longer exists. *)
let flush_code_caches t =
  Hashtbl.reset t.decode_cache;
  Hashtbl.reset t.blocks;
  Hashtbl.reset t.rt.traces;
  Bytes.fill t.rt.code_pages 0 (Bytes.length t.rt.code_pages) '\000';
  t.code_gen <- t.code_gen + 1

let register_code_page t pa = Lower.register_code_page t.rt.code_pages pa
let cached_blocks t = Hashtbl.length t.blocks
let cached_decodes t = Hashtbl.length t.decode_cache

(* (Re)point the generic cache/TLB observer closures at the current
   tracer.  The mem/cache libraries stay obs-free: they call a closure,
   and this layer is the one place that builds events from it. *)
let wire_observers t =
  let icache = Roload_cache.Hierarchy.icache t.rt.hier in
  let dcache = Roload_cache.Hierarchy.dcache t.rt.hier in
  match t.tracer with
  | None ->
    Roload_cache.Cache.set_observer icache None;
    Roload_cache.Cache.set_observer dcache None;
    (match t.mmu with
    | None -> ()
    | Some m ->
      Tlb.set_observer (Mmu.itlb m) None;
      Tlb.set_observer (Mmu.dtlb m) None)
  | Some tr ->
    let cache_obs side =
      Some
        (fun ~addr ~write ~hit ~writeback ->
          Tracer.emit tr (Event.Cache_access { side; pa = addr; write; hit; writeback }))
    in
    Roload_cache.Cache.set_observer icache (cache_obs Event.I);
    Roload_cache.Cache.set_observer dcache (cache_obs Event.D);
    (match t.mmu with
    | None -> ()
    | Some m ->
      let tlb_obs side =
        Some (fun ~vpn ~hit -> Tracer.emit tr (Event.Tlb_access { side; vpn; hit }))
      in
      Tlb.set_observer (Mmu.itlb m) (tlb_obs Event.I);
      Tlb.set_observer (Mmu.dtlb m) (tlb_obs Event.D))

(* Install an address space.  The PA-keyed decode/block caches and the
   trace table stay: they are exact under any page table (see the
   [lower.ml] header), which is what makes this the context switch too. *)
let attach_mmu t mmu =
  t.mmu <- Some mmu;
  t.rt.mmu <- mmu;
  t.rt.itlb <- Mmu.itlb mmu;
  wire_observers t

(* Install a freshly loaded process: the loader wrote its code straight
   into memory, past the stores that would have flushed stale decodes. *)
let set_mmu t mmu =
  attach_mmu t mmu;
  flush_code_caches t

let set_tracer t tracer =
  t.tracer <- tracer;
  (match tracer with
  | None -> ()
  | Some tr -> Tracer.set_clock tr (fun () -> Int64.of_int (Cpu.cycles t.rt.cpu)));
  wire_observers t

let tracer t = t.tracer
let roload_key_counts t = t.rt.key_counts
let block_enters t = t.block_enters
let block_hits t = t.block_hits
let block_decodes t = t.block_decodes
let trace_enters t = t.trace_enters
let trace_retires t = t.trace_retires
let traces_compiled t = t.traces_compiled
let injections t = t.injections

(* roload-chaos entry point: count the applied fault and surface it on
   the tracer's kernel lane.  Never called outside a campaign. *)
let note_injection t ~kind ~addr =
  t.injections <- t.injections + 1;
  match t.tracer with
  | None -> ()
  | Some tr -> Tracer.emit tr (Event.Injected { kind; addr })

let set_profiling t on =
  match (on, t.profile) with
  | true, None -> t.profile <- Some (Hashtbl.create 256)
  | true, Some _ | false, None -> ()
  | false, Some _ -> t.profile <- None

let profile_blocks t =
  match t.profile with
  | None -> []
  | Some tbl ->
    Hashtbl.fold
      (fun pa p acc ->
        (* disassembly from the live block cache; a block flushed since it
           was profiled (set_mmu, self-modifying code) renders without one *)
        let disasm =
          match Hashtbl.find_opt t.blocks pa with
          | None -> []
          | Some b ->
            List.init (Block.length b) (fun i ->
                let s = Block.slot b i in
                Printf.sprintf "0x%08x  %s" s.Block.s_pa (Inst.to_string s.Block.s_inst))
        in
        {
          Roload_obs.Profile.pa;
          entries = p.p_entries;
          cycles = Int64.of_int p.p_cycles;
          instructions = Int64.of_int p.p_insts;
          disasm;
        }
        :: acc)
      tbl []

let mmu_exn t =
  match t.mmu with
  | Some m -> m
  | None -> failwith "Machine: no address space installed"

let charge_walk t steps = Cpu.add_cycles t.rt.cpu (steps * t.costs.ptw_step)

(* ---- fetch ---- *)

let fetch_halfword t va =
  let mmu = mmu_exn t in
  match Mmu.translate mmu ~access:Perm.Fetch va with
  | Error f -> Error (Trap.of_mmu_fault ~pc:(Cpu.pc t.rt.cpu) f)
  | Ok { pa; walk_steps; _ } ->
    charge_walk t walk_steps;
    Cpu.add_cycles t.rt.cpu (Roload_cache.Hierarchy.access_ifetch t.rt.hier ~pa);
    Ok (pa, Phys_mem.read_u16 t.rt.mem pa)

let fetch_decode t =
  let pc = Cpu.pc t.rt.cpu in
  if pc land 1 <> 0 then
    Error (Trap.Misaligned_access { pc; va = pc; access = Perm.Fetch })
  else
    match fetch_halfword t pc with
    | Error tr -> Error tr
    | Ok (pa, hw) -> (
      match Hashtbl.find_opt t.decode_cache pa with
      | Some (inst, size) -> Ok (inst, size)
      | None ->
        let decoded =
          if Roload_isa.Decode.is_compressed_halfword hw then
            match Roload_isa.Compressed.decode hw with
            | Ok inst -> Ok (inst, 2, pa)
            | Error info -> Error (Trap.Illegal_instruction { pc; info })
          else
            match fetch_halfword t (pc + 2) with
            | Error tr -> Error tr
            | Ok (pa2, hw2) -> (
              let word = hw lor (hw2 lsl 16) in
              match Roload_isa.Decode.decode word with
              | Ok inst -> Ok (inst, 4, pa2)
              | Error info -> Error (Trap.Illegal_instruction { pc; info }))
        in
        match decoded with
        | Ok (inst, size, last_pa) ->
          Hashtbl.replace t.decode_cache pa (inst, size);
          register_code_page t pa;
          register_code_page t last_pa;
          Ok (inst, size)
        | Error tr -> Error tr)

(* ---- data access ---- *)

let check_alignment ~pc ~va ~width ~access =
  let bytes = Inst.width_bytes width in
  if va land (bytes - 1) <> 0 then Error (Trap.Misaligned_access { pc; va; access })
  else Ok ()

let read_phys t pa (width : Inst.width) ~unsigned =
  match width with
  | Inst.Byte ->
    let v = Int64.of_int (Phys_mem.read_u8 t.rt.mem pa) in
    if unsigned then v else Roload_util.Bits.sign_extend v ~width:8
  | Inst.Half ->
    let v = Int64.of_int (Phys_mem.read_u16 t.rt.mem pa) in
    if unsigned then v else Roload_util.Bits.sign_extend v ~width:16
  | Inst.Word ->
    let v = Int64.of_int (Phys_mem.read_u32 t.rt.mem pa) in
    if unsigned then v else Roload_util.Bits.sign_extend v ~width:32
  | Inst.Double -> Phys_mem.read_u64 t.rt.mem pa

let write_phys t pa (width : Inst.width) v =
  match width with
  | Inst.Byte -> Phys_mem.write_u8 t.rt.mem pa (Int64.to_int (Int64.logand v 0xFFL))
  | Inst.Half -> Phys_mem.write_u16 t.rt.mem pa (Int64.to_int (Int64.logand v 0xFFFFL))
  | Inst.Word -> Phys_mem.write_u32 t.rt.mem pa (Int64.to_int (Int64.logand v 0xFFFFFFFFL))
  | Inst.Double -> Phys_mem.write_u64 t.rt.mem pa v

let data_access t ~pc ~va ~access ~width ~unsigned ~store_value =
  let write = match access with Perm.Store -> true | Perm.Fetch | Perm.Load | Perm.Roload _ -> false in
  match check_alignment ~pc ~va ~width ~access with
  | Error tr -> Error tr
  | Ok () -> (
    let mmu = mmu_exn t in
    let pa = Mmu.translate_pa mmu ~access va in
    if pa < 0 then Error (Trap.of_mmu_fault ~pc (Mmu.last_fault mmu))
    else begin
      charge_walk t (Mmu.walk_steps mmu);
      Cpu.add_cycles t.rt.cpu (Roload_cache.Hierarchy.access_data t.rt.hier ~pa ~write);
      if write then begin
        write_phys t pa width (Option.get store_value);
        (* Self-modifying code: a store into a page holding memoized
           decoded instructions invalidates every decode/block memo, for
           both engines. *)
        if Lower.page_holds_code t.rt.code_pages pa then flush_code_caches t;
        Ok 0L
      end
      else Ok (read_phys t pa width ~unsigned)
    end)

(* ---- execute ---- *)

let to_addr v = Int64.to_int v
(* Addresses in this simulation live well below 2^62; negative or huge
   int64 values map to negative ints and fault in the MMU's range check. *)

let branch_taken (c : Inst.branch_cond) a b =
  match c with
  | Beq -> a = b
  | Bne -> a <> b
  | Blt -> Int64.compare a b < 0
  | Bge -> Int64.compare a b >= 0
  | Bltu -> Roload_util.Bits.ult a b
  | Bgeu -> Roload_util.Bits.uge a b

let classify (inst : Inst.t) : Event.inst_class =
  match inst with
  | Inst.Lui _ | Inst.Auipc _ | Inst.Op_imm _ | Inst.Op_imm_w _ | Inst.Op _
  | Inst.Op_w _ | Inst.Fence ->
    Event.C_alu
  | Inst.Load _ -> Event.C_load
  | Inst.Load_ro _ -> Event.C_roload
  | Inst.Store _ -> Event.C_store
  | Inst.Branch _ -> Event.C_branch
  | Inst.Jal _ -> Event.C_jump
  | Inst.Jalr (rd, rs1, _) ->
    if Reg.to_int rd = 0 && Reg.to_int rs1 = 1 then Event.C_jump else Event.C_indirect
  | Inst.Mulop _ | Inst.Mulop_w _ -> Event.C_muldiv
  | Inst.Ecall | Inst.Ebreak -> Event.C_system

(* Execute one decoded instruction: everything [step] does after
   fetch/decode.  Shared by the single-step engine and the traced
   engine's per-slot tier. *)
let execute_inst t ~pc inst ~size =
  let cpu = t.rt.cpu and counts = t.rt.counts in
  let next = pc + size in
  let result =
  (
    Cpu.add_cycles cpu t.costs.base;
    let continue_at pc' =
      Cpu.set_pc cpu pc';
      Cpu.retire cpu;
      Continue
    in
    match inst with
    | Inst.Lui (rd, imm) ->
      Cpu.set cpu rd (Roload_util.Bits.sign_extend (Int64.shift_left imm 12) ~width:32);
      continue_at next
    | Inst.Auipc (rd, imm) ->
      let v =
        Int64.add (Int64.of_int pc)
          (Roload_util.Bits.sign_extend (Int64.shift_left imm 12) ~width:32)
      in
      Cpu.set cpu rd v;
      continue_at next
    | Inst.Jal (rd, off) ->
      counts.jumps <- counts.jumps + 1;
      Cpu.set cpu rd (Int64.of_int next);
      continue_at (pc + Int64.to_int off)
    | Inst.Jalr (rd, rs1, imm) ->
      counts.jumps <- counts.jumps + 1;
      let target = Int64.logand (Int64.add (Cpu.get cpu rs1) imm) (-2L) in
      let is_return = Reg.to_int rd = 0 && Reg.to_int rs1 = 1 in
      if not is_return then begin
        counts.indirect_jumps <- counts.indirect_jumps + 1;
        Cpu.add_cycles cpu t.costs.jalr_indirect
      end;
      Cpu.set cpu rd (Int64.of_int next);
      continue_at (to_addr target)
    | Inst.Branch (c, rs1, rs2, off) ->
      counts.branches <- counts.branches + 1;
      let taken = branch_taken c (Cpu.get cpu rs1) (Cpu.get cpu rs2) in
      let backward = Int64.compare off 0L < 0 in
      let predicted_taken = backward in
      if taken <> predicted_taken then Cpu.add_cycles cpu t.costs.branch_mispredict;
      continue_at (if taken then pc + Int64.to_int off else next)
    | Inst.Load { width; unsigned; rd; rs1; imm } -> (
      counts.loads <- counts.loads + 1;
      let va = to_addr (Int64.add (Cpu.get cpu rs1) imm) in
      match
        data_access t ~pc ~va ~access:Perm.Load ~width ~unsigned ~store_value:None
      with
      | Error tr -> Trapped tr
      | Ok v ->
        Cpu.set cpu rd v;
        continue_at next)
    | Inst.Load_ro { width; unsigned; rd; rs1; key } -> (
      if not t.config.Config.roload_processor then
        (* Baseline Rocket: the custom-0 opcode is not implemented. *)
        Trapped (Trap.Illegal_instruction { pc; info = "ld.ro: no ROLoad support" })
      else begin
        counts.roloads <- counts.roloads + 1;
        t.rt.key_counts.(key land Roload_isa.Roload_ext.max_key) <-
          t.rt.key_counts.(key land Roload_isa.Roload_ext.max_key) + 1;
        let va = to_addr (Cpu.get cpu rs1) in
        (match t.tracer with
        | None -> ()
        | Some tr -> Tracer.emit tr (Event.Roload_issue { pc; va; key }));
        match
          data_access t ~pc ~va ~access:(Perm.Roload key) ~width ~unsigned
            ~store_value:None
        with
        | Error tr ->
          (match (t.tracer, tr) with
          | Some trc, Trap.Roload_page_fault { va; key_requested; page_key; page_perms; _ } ->
            Tracer.emit trc
              (Event.Roload_fault
                 { pc; va; key_requested; page_key;
                   page_read_only = Perm.read_only page_perms })
          | _ -> ());
          Trapped tr
        | Ok v ->
          Cpu.set cpu rd v;
          continue_at next
      end)
    | Inst.Store { width; rs2; rs1; imm } -> (
      counts.stores <- counts.stores + 1;
      let va = to_addr (Int64.add (Cpu.get cpu rs1) imm) in
      match
        data_access t ~pc ~va ~access:Perm.Store ~width ~unsigned:false
          ~store_value:(Some (Cpu.get cpu rs2))
      with
      | Error tr -> Trapped tr
      | Ok _ -> continue_at next)
    | Inst.Op_imm (op, rd, rs1, imm) ->
      Cpu.set cpu rd (Alu.op op (Cpu.get cpu rs1) imm);
      continue_at next
    | Inst.Op_imm_w (op, rd, rs1, imm) ->
      Cpu.set cpu rd (Alu.op_w op (Cpu.get cpu rs1) imm);
      continue_at next
    | Inst.Op (op, rd, rs1, rs2) ->
      Cpu.set cpu rd (Alu.op op (Cpu.get cpu rs1) (Cpu.get cpu rs2));
      continue_at next
    | Inst.Op_w (op, rd, rs1, rs2) ->
      Cpu.set cpu rd (Alu.op_w op (Cpu.get cpu rs1) (Cpu.get cpu rs2));
      continue_at next
    | Inst.Mulop (op, rd, rs1, rs2) ->
      (match op with
      | Inst.Mul | Inst.Mulh | Inst.Mulhsu | Inst.Mulhu -> Cpu.add_cycles cpu t.costs.mul
      | Inst.Div | Inst.Divu | Inst.Rem | Inst.Remu -> Cpu.add_cycles cpu t.costs.div);
      Cpu.set cpu rd (Alu.mulop op (Cpu.get cpu rs1) (Cpu.get cpu rs2));
      continue_at next
    | Inst.Mulop_w (op, rd, rs1, rs2) ->
      (match op with
      | Inst.Mulw -> Cpu.add_cycles cpu t.costs.mul
      | Inst.Divw | Inst.Divuw | Inst.Remw | Inst.Remuw ->
        Cpu.add_cycles cpu (t.costs.div / 2));
      Cpu.set cpu rd (Alu.mulop_w op (Cpu.get cpu rs1) (Cpu.get cpu rs2));
      continue_at next
    | Inst.Ecall ->
      (* pc stays at the ecall; the kernel advances it after servicing. *)
      Cpu.retire cpu;
      Trapped Trap.Ecall
    | Inst.Ebreak ->
      Cpu.retire cpu;
      Trapped Trap.Breakpoint
    | Inst.Fence -> continue_at next)
  in
  (match t.tracer with
  | None -> ()
  | Some tr -> (
    (* [Retired] fires for instructions that architecturally retired:
       every [Continue], plus ecall/ebreak (which retire, then trap to the
       kernel).  A faulting instruction instead shows as its fault. *)
    match result with
    | Continue | Trapped (Trap.Ecall | Trap.Breakpoint) ->
      Tracer.emit tr (Event.Retired { pc; cls = classify inst })
    | Trapped _ -> ()));
  result

(* The per-instruction reference interpreter: fetch, decode (memoized per
   pa), execute.  The traced engine must match its observable behaviour —
   architectural state, traps, cycles, cache/TLB statistics — exactly. *)
let step t =
  match fetch_decode t with
  | Error tr -> Trapped tr
  | Ok (inst, size) -> execute_inst t ~pc:(Cpu.pc t.rt.cpu) inst ~size

(* ---- the traced engine's per-slot tier ---- *)

type run_stop =
  | Exhausted (* fuel ran out; the caller re-checks its limits *)
  | Trap of Trap.t

let page_mask = Page_table.page_size - 1

(* Execute starting at the current pc until a trap or the fuel runs out.
   Cycle accounting is identical to running [step] in a loop:

   - the block-entry [Mmu.translate] accounts the first slot's I-TLB
     access; every further slot replays a guaranteed I-TLB hit on the
     page's entry through [Tlb.rehit] (same clock tick, recency update and
     hit count as the full lookup — a straight-line run cannot evict its
     own page's entry, and if it somehow is evicted, [rehit] refuses with
     no accounting and we fall back to a full re-entry);
   - every slot's I-cache access goes through [Cache.access] when it
     touches a new line, and through the equivalent-accounting
     [Cache.rehit] when it stays on the line the previous slot fetched
     (within a block nothing can evict that line between slots: a page's
     64 lines map to 64 distinct sets, and a cross-page pc+2 decode fetch
     cannot victimise the just-used line in an 8-way set);
   - decode charges (the pc+2 fetch of an uncompressed instruction) are
     paid lazily, the first time a slot is appended, in execution order —
     exactly when the reference engine pays them — and are memoized per pa
     across blocks, so jumping into already-decoded code never re-charges.
*)

let prof_charge tbl ~pa ~cycles ~insts =
  let p =
    match Hashtbl.find_opt tbl pa with
    | Some p -> p
    | None ->
      let p = { p_entries = 0; p_cycles = 0; p_insts = 0 } in
      Hashtbl.add tbl pa p;
      p
  in
  p.p_entries <- p.p_entries + 1;
  p.p_cycles <- p.p_cycles + cycles;
  p.p_insts <- p.p_insts + insts

(* Execute [block] starting at slot 0 (pc [pc0], already translated to
   [pa] with the I-TLB access accounted and [tlb_handle] captured by the
   caller).  Returns [None] to hand control back to the dispatch loop
   (block over: fall through or jump elsewhere), [Some r] to finish the
   run.  This is the traced engine's per-slot tier: it runs cold blocks,
   blocks no trace covers, and every dispatch a trace cannot take. *)
let exec_block t ~(fuel : int ref) ~pc0 ~pa ~vpn ~tlb_handle ~block =
  let cpu = t.rt.cpu in
  let mmu = mmu_exn t in
  let itlb = Mmu.itlb mmu in
  let hier = t.rt.hier in
  let page_pbase = pa land lnot page_mask in
  (
            let gen0 = t.code_gen in
            let icache_line = ref (-1) in
            let icache_handle = Roload_cache.Cache.handle () in
            (* [run i ~pc]: execute slot [i]; pc is the slot's VA.  Returns
               [None] to hand control back to the outer loop (block over,
               fall through or jump elsewhere), [Some r] to finish. *)
            let rec run i ~pc =
              (* the fuel check happens before any accounting; slot 0's
                 was done by the outer loop *)
              if i > 0 && !fuel <= 0 then Some Exhausted
              else if
                (* I-TLB accounting for this slot's fetch (slot 0: done by
                   the entry translate).  On rehit failure nothing was
                   accounted; re-enter through the outer loop, whose full
                   translate performs whatever accounting is due. *)
                i > 0 && not (Tlb.rehit itlb ~vpn tlb_handle)
              then None
              else if i < Block.length block then begin
                let s = Block.slot block i in
                let line = s.Block.s_pa lsr t.line_shift in
                if line <> !icache_line then begin
                  icache_line := line;
                  Cpu.add_cycles cpu
                    (Roload_cache.Hierarchy.ifetch_into hier ~pa:s.Block.s_pa icache_handle)
                end
                else if not (Roload_cache.Hierarchy.rehit_ifetch hier icache_handle) then
                  Cpu.add_cycles cpu
                    (Roload_cache.Hierarchy.ifetch_into hier ~pa:s.Block.s_pa icache_handle);
                match execute_inst t ~pc s.Block.s_inst ~size:s.Block.s_size with
                | Trapped tr -> Some (Trap tr)
                | Continue ->
                  decr fuel;
                  if t.code_gen <> gen0 then None (* block flushed under us *)
                  else if Block.is_terminator s.Block.s_inst then None
                  else if i + 1 >= Block.length block && Block.closed block then None
                  else run (i + 1) ~pc:(pc + s.Block.s_size)
              end
              else if Block.closed block then None
              else begin
                (* Lazy extension: decode slot [i] at [pc], charging the
                   fetches exactly as the reference engine would. *)
                let off = pc land page_mask in
                let spa = page_pbase lor off in
                let line = spa lsr t.line_shift in
                if line <> !icache_line then begin
                  icache_line := line;
                  Cpu.add_cycles cpu
                    (Roload_cache.Hierarchy.ifetch_into hier ~pa:spa icache_handle)
                end
                else if not (Roload_cache.Hierarchy.rehit_ifetch hier icache_handle) then
                  Cpu.add_cycles cpu
                    (Roload_cache.Hierarchy.ifetch_into hier ~pa:spa icache_handle);
                let decoded =
                  match Hashtbl.find_opt t.decode_cache spa with
                  | Some (inst, size) -> Ok (inst, size)
                  | None -> (
                    let hw = Phys_mem.read_u16 t.rt.mem spa in
                    if Roload_isa.Decode.is_compressed_halfword hw then (
                      match Roload_isa.Compressed.decode hw with
                      | Ok inst ->
                        Hashtbl.replace t.decode_cache spa (inst, 2);
                        register_code_page t spa;
                        Ok (inst, 2)
                      | Error info -> Error (Trap.Illegal_instruction { pc; info }))
                    else
                      (* uncompressed: charge the pc+2 halfword fetch *)
                      let fetch2 =
                        let va2 = pc + 2 in
                        if va2 lsr Page_table.page_shift = vpn then (
                          (* same page: a guaranteed I-TLB hit, replayed
                             with exact accounting *)
                          if Tlb.rehit itlb ~vpn tlb_handle then
                            Ok (page_pbase lor (off + 2))
                          else (
                            match Mmu.translate mmu ~access:Perm.Fetch va2 with
                            | Error f -> Error (Trap.of_mmu_fault ~pc f)
                            | Ok { pa = pa2; walk_steps; _ } ->
                              charge_walk t walk_steps;
                              Ok pa2))
                        else
                          match Mmu.translate mmu ~access:Perm.Fetch va2 with
                          | Error f -> Error (Trap.of_mmu_fault ~pc f)
                          | Ok { pa = pa2; walk_steps; _ } ->
                            charge_walk t walk_steps;
                            Ok pa2
                      in
                      match fetch2 with
                      | Error tr -> Error tr
                      | Ok pa2 -> (
                        Cpu.add_cycles cpu (Roload_cache.Hierarchy.access_ifetch hier ~pa:pa2);
                        let hw2 = Phys_mem.read_u16 t.rt.mem pa2 in
                        let word = hw lor (hw2 lsl 16) in
                        match Roload_isa.Decode.decode word with
                        | Ok inst ->
                          Hashtbl.replace t.decode_cache spa (inst, 4);
                          register_code_page t spa;
                          register_code_page t pa2;
                          Ok (inst, 4)
                        | Error info -> Error (Trap.Illegal_instruction { pc; info })))
                in
                match decoded with
                | Error tr -> Some (Trap tr) (* not memoized, like the reference *)
                | Ok (inst, size) ->
                  Block.append block { Block.s_inst = inst; s_size = size; s_pa = spa };
                  t.block_decodes <- t.block_decodes + 1;
                  (match t.tracer with
                  | None -> ()
                  | Some tr -> Tracer.emit tr (Event.Block_decode { pa = spa }));
                  if Block.is_terminator inst || off + size >= Page_table.page_size then
                    Block.close block;
                  match execute_inst t ~pc inst ~size with
                  | Trapped tr -> Some (Trap tr)
                  | Continue ->
                    decr fuel;
                    if t.code_gen <> gen0 then None
                    else if Block.is_terminator inst then None
                    else if i + 1 >= Block.length block && Block.closed block then None
                    else run (i + 1) ~pc:(pc + size)
              end
            in
            match t.profile with
            | None -> run 0 ~pc:pc0
            | Some tbl ->
              (* attribute this block visit's cycles/instructions to the
                 block's start PA; reading the counters is side-effect-free *)
              let cyc0 = Cpu.cycles cpu and ins0 = Cpu.instret cpu in
              let r = run 0 ~pc:pc0 in
              prof_charge tbl ~pa
                ~cycles:(Cpu.cycles cpu - cyc0)
                ~insts:(Cpu.instret cpu - ins0);
              r)

(* ---- trace-compiled engine ---- *)

let statics t =
  {
    Lower.line_shift = t.line_shift;
    c_base = t.costs.base;
    c_mispredict = t.costs.branch_mispredict;
    c_jalr_indirect = t.costs.jalr_indirect;
    c_mul = t.costs.mul;
    c_div = t.costs.div;
    c_ptw = t.costs.ptw_step;
  }

(* Try to stitch and compile a trace rooted at [block].  The static
   resolver mirrors the MMU's user-fetch check without touching TLB or
   cache state; a wrong answer only wastes a compile — every placement is
   re-verified at run time by the trace's seams. *)
let attempt_compile t ~entry_va ~entry_pa ~block =
  let pt = Mmu.page_table (mmu_exn t) in
  let resolve va =
    if va < 0 || va land 1 <> 0 then None
    else
      match Page_table.walk pt va with
      | Error _ -> None
      | Ok { Page_table.pte; _ } ->
        if Roload_mem.Pte.valid pte && Roload_mem.Pte.user pte
           && Perm.allows (Roload_mem.Pte.perms pte) Perm.Fetch
        then Some ((Roload_mem.Pte.ppn pte lsl Page_table.page_shift) lor (va land page_mask))
        else None
  in
  let ok = Lower.compilable ~roload_enabled:t.config.Config.roload_processor in
  match
    Trace.build ~entry_va ~entry_pa ~entry_block:block ~resolve
      ~block_at:(fun pa -> Hashtbl.find_opt t.blocks pa)
      ~ok
  with
  | None -> Block.set_no_trace block
  | Some plan ->
    Hashtbl.replace t.rt.traces entry_pa (Lower.compile (statics t) plan);
    t.traces_compiled <- t.traces_compiled + 1

(* The traced engine: a dispatch loop over pre-decoded blocks, plus
   hot-path promotion.  Blocks record entry counts and taken successors; once a
   block is hot its trace is stitched ([Trace.build]) and lowered
   ([Lower.compile]), and later dispatches that land on the trace entry
   run the compiled closure instead of interpreting slots.

   Traces only run on "plain" dispatches: no obs tracer and enough fuel
   for a full pass — otherwise the dispatch falls back to [exec_block],
   whose per-slot path emits the events and stops on the exact retire.
   A hot threshold no block reaches (ROLOAD_TRACE_HOT set huge) runs
   every dispatch on that tier, compiling nothing.  Correctness never
   depends on when or whether a trace runs. *)
let run_traced t ~fuel =
  let cpu = t.rt.cpu in
  let mmu = mmu_exn t in
  let fuel = ref fuel in
  let finished = ref None in
  let usable = t.tracer = None in
  (* the block that just finished, for successor-edge recording *)
  let prev_block = ref None in
  (* a seam translation that already accounted its I-TLB access but
     resolved to an unplanned PA: run that block without re-translating *)
  let pending_pc = ref (-1) and pending_pa = ref 0 in
  while !finished = None do
    if !fuel <= 0 then finished := Some Exhausted
    else begin
      let pc0 = Cpu.pc cpu in
      if pc0 land 1 <> 0 then
        finished :=
          Some (Trap (Trap.Misaligned_access { pc = pc0; va = pc0; access = Perm.Fetch }))
      else begin
        let pa =
          if !pending_pc = pc0 then !pending_pa
          else begin
            let pa = Mmu.translate_pa mmu ~access:Perm.Fetch pc0 in
            if pa >= 0 then charge_walk t (Mmu.walk_steps mmu);
            pa
          end
        in
        pending_pc := -1;
        if pa < 0 then finished := Some (Trap (Trap.of_mmu_fault ~pc:pc0 (Mmu.last_fault mmu)))
        else begin
          let vpn = pc0 lsr Page_table.page_shift in
          let tlb_handle = Mmu.fetch_handle mmu pc0 in
          (match !prev_block with
          | Some pb ->
            Block.note_successor pb pc0;
            prev_block := None
          | None -> ());
          let ran_trace =
            usable
            &&
            match Hashtbl.find_opt t.rt.traces pa with
            | Some c when c.Lower.c_entry_va = pc0 && !fuel >= c.Lower.c_max_retire ->
              t.trace_enters <- t.trace_enters + 1;
              let cyc0 = Cpu.cycles cpu and ins0 = Cpu.instret cpu in
              let r = c.Lower.c_run t.rt ~fuel:!fuel tlb_handle in
              let dins = Cpu.instret cpu - ins0 in
              fuel := !fuel - dins;
              t.trace_retires <- t.trace_retires + dins;
              (match t.profile with
              | None -> ()
              | Some tbl -> prof_charge tbl ~pa ~cycles:(Cpu.cycles cpu - cyc0) ~insts:dins);
              (match r with
              | Lower.T_redispatch -> ()
              | Lower.T_code_written -> flush_code_caches t
              | Lower.T_trap tr -> finished := Some (Trap tr)
              | Lower.T_enter_block { eb_pc; eb_pa } ->
                pending_pc := eb_pc;
                pending_pa := eb_pa);
              true
            | _ -> false
          in
          if not ran_trace then begin
            let block, cached =
              match Hashtbl.find_opt t.blocks pa with
              | Some b -> (b, true)
              | None ->
                let b = Block.create ~start_pa:pa in
                Hashtbl.add t.blocks pa b;
                (b, false)
            in
            t.block_enters <- t.block_enters + 1;
            if cached then t.block_hits <- t.block_hits + 1;
            (match t.tracer with
            | None -> ()
            | Some tr -> Tracer.emit tr (Event.Block_enter { pa; cached }));
            Block.note_enter block;
            if
              usable && cached && Block.closed block
              && (not (Block.no_trace block))
              && Block.hot block >= t.hot_threshold
              && not (Hashtbl.mem t.rt.traces pa)
            then attempt_compile t ~entry_va:pc0 ~entry_pa:pa ~block;
            match exec_block t ~fuel ~pc0 ~pa ~vpn ~tlb_handle ~block with
            | Some r -> finished := Some r
            | None -> prev_block := Some block
          end
        end
      end
    end
  done;
  match !finished with Some r -> r | None -> assert false

let rec run_single t ~fuel =
  if fuel <= 0 then Exhausted
  else
    match step t with
    | Trapped tr -> Trap tr
    | Continue -> run_single t ~fuel:(fuel - 1)

(* The kernel-facing run loop entry point: [fuel] bounds the number of
   retired instructions. *)
let run_steps ~fuel t =
  match t.engine with
  | Single_step -> run_single t ~fuel
  | Traced -> run_traced t ~fuel

(* ---- snapshots ----

   An [image] captures everything a paused machine needs to replay
   byte-identically: architectural state (cpu, physical memory), timing
   state (cache/TLB contents, clocks and statistics), the MMU fault
   counters, the decode/block caches (decode charges are paid lazily
   once per pa, so the set of memoized decodes affects *when* cycles are
   charged — it must be captured for exactness), the code-page bitmap
   and generation, and every metrics-visible counter.

   [fork] builds a new, fully independent machine from the image, in one
   pass per layer; an image is never put back into a live machine.
   Both cost what the machine holds, not what its tables could hold:
   pages are shared copy-on-write, the decode and block tables start
   small, and each cache is three flat arrays.  A fork copies the trace
   table: a compiled trace captures no machine (it runs on the
   [Lower.env] it is handed), so a fork runs its parent's hot traces
   and matches the parent run on every counter, trace-engine counters
   included. *)

let copy_counts (c : exec_counts) =
  {
    loads = c.loads;
    stores = c.stores;
    roloads = c.roloads;
    branches = c.branches;
    jumps = c.jumps;
    indirect_jumps = c.indirect_jumps;
  }

let assign_counts ~(dst : exec_counts) (src : exec_counts) =
  dst.loads <- src.loads;
  dst.stores <- src.stores;
  dst.roloads <- src.roloads;
  dst.branches <- src.branches;
  dst.jumps <- src.jumps;
  dst.indirect_jumps <- src.indirect_jumps

type image = {
  im_config : Config.t;
  im_costs : costs;
  im_engine : engine;
  im_hot_threshold : int;
  im_cpu : Cpu.image;
  im_mem : Phys_mem.image;
  im_hier : Roload_cache.Hierarchy.image;
  im_decode : (int, Inst.t * int) Hashtbl.t; (* values immutable: shallow copy *)
  im_blocks : (int, Block.t) Hashtbl.t; (* deep copies, frozen *)
  im_traces : (int, Lower.compiled) Hashtbl.t; (* values immutable: shallow copy *)
  im_code_pages : Bytes.t;
  im_code_gen : int;
  im_counts : exec_counts;
  im_key_counts : int array; (* up to the last nonzero key *)
  im_block_enters : int;
  im_block_hits : int;
  im_block_decodes : int;
  im_trace_enters : int;
  im_trace_retires : int;
  im_traces_compiled : int;
  im_injections : int;
}

let copy_blocks tbl =
  let out = Hashtbl.create (max 16 (Hashtbl.length tbl)) in
  Hashtbl.iter (fun pa b -> Hashtbl.add out pa (Block.copy b)) tbl;
  out

(* The ld.ro key counters up to the last nonzero one: the rest of the
   1,024 keys are zero in any image of a real program. *)
let used_prefix counts =
  let n = ref (Array.length counts) in
  while !n > 0 && counts.(!n - 1) = 0 do
    decr n
  done;
  Array.sub counts 0 !n

let snapshot t =
  {
    im_config = t.config;
    im_costs = t.costs;
    im_engine = t.engine;
    im_hot_threshold = t.hot_threshold;
    im_cpu = Cpu.snapshot t.rt.cpu;
    im_mem = Phys_mem.snapshot t.rt.mem;
    im_hier = Roload_cache.Hierarchy.snapshot t.rt.hier;
    im_decode = Hashtbl.copy t.decode_cache;
    im_blocks = copy_blocks t.blocks;
    im_traces = Hashtbl.copy t.rt.traces;
    im_code_pages = Bytes.copy t.rt.code_pages;
    im_code_gen = t.code_gen;
    im_counts = copy_counts t.rt.counts;
    im_key_counts = used_prefix t.rt.key_counts;
    im_block_enters = t.block_enters;
    im_block_hits = t.block_hits;
    im_block_decodes = t.block_decodes;
    im_trace_enters = t.trace_enters;
    im_trace_retires = t.trace_retires;
    im_traces_compiled = t.traces_compiled;
    im_injections = t.injections;
  }

let mem_image img = img.im_mem

(* Every counter of the image, into a fork's own records. *)
let load_counters t img =
  t.code_gen <- img.im_code_gen;
  assign_counts ~dst:t.rt.counts img.im_counts;
  Array.blit img.im_key_counts 0 t.rt.key_counts 0 (Array.length img.im_key_counts);
  t.block_enters <- img.im_block_enters;
  t.block_hits <- img.im_block_hits;
  t.block_decodes <- img.im_block_decodes;
  t.trace_enters <- img.im_trace_enters;
  t.trace_retires <- img.im_trace_retires;
  t.traces_compiled <- img.im_traces_compiled;
  t.injections <- img.im_injections

let fork img =
  let config = img.im_config in
  let t =
    make ~costs:img.im_costs ~engine:img.im_engine ~hot_threshold:img.im_hot_threshold config
      ~mem:(Phys_mem.fork img.im_mem)
      ~hier:(Roload_cache.Hierarchy.of_image ~latencies:config.Config.latencies img.im_hier)
      ~decode_cache:(Hashtbl.copy img.im_decode) ~blocks:(copy_blocks img.im_blocks)
      ~code_pages:(Bytes.copy img.im_code_pages) ~traces:(Hashtbl.copy img.im_traces)
  in
  Cpu.restore t.rt.cpu img.im_cpu;
  load_counters t img;
  t
