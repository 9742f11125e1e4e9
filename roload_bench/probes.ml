(* Layer probes: every measurement here times or counts a layer's public
   entry points from outside the library, so the program under test is
   the same code the untraced run executes. *)

module Pass = Roload_passes.Pass
module Machine = Roload_machine.Machine
module Kernel = Roload_kernel.Kernel
module Process = Roload_kernel.Process
module Metrics = Roload_obs.Metrics
module Exe = Roload_obj.Exe
module System = Core.System
module Toolchain = Core.Toolchain

(* One program of a workload, as the probes re-drive it. *)
type program = {
  name : string;
  scheme : Pass.scheme;
  source : string;
  exe : Exe.t;  (** the executable the workload itself runs *)
  requests : int array option;  (** served programs: the probe's request stream *)
}

let variant = System.Processor_kernel_modified
let limit = { Kernel.max_instructions = 2_000_000_000L }

(* Machine.create -> Kernel.create -> Kernel.load -> run: the steps of
   [Kernel.exec] / [Kernel.exec_all], separated so each gets its span. *)
let split_exec spans ?op ?requests exe =
  let span name f = Spans.with_span spans ?op name f in
  let machine = span "machine.create" (fun () -> Machine.create (System.machine_config variant)) in
  let kernel =
    span "kernel.create" (fun () -> Kernel.create ~machine ~config:(System.kernel_config variant))
  in
  Option.iter (Kernel.set_requests kernel) requests;
  let proc = span "kernel.load" (fun () -> Kernel.load kernel exe) in
  let outcome =
    span "kernel.run" (fun () ->
        match requests with
        | None ->
          Kernel.schedule kernel proc;
          Kernel.run ~limit kernel proc
        | Some _ ->
          Kernel.spawn_root kernel proc;
          Kernel.run_all ~limit kernel)
  in
  (outcome, System.snapshot_metrics ~machine ~kernel ~mmu:(Process.mmu proc))

(* ---------- simulator counters, summed over runs ---------- *)

type counters = {
  mutable runs : int;
  mutable insts : float;
  mutable cycles : float;
  mutable trace_retires : float;
  mutable trace_enters : float;
  mutable traces_compiled : float;
  mutable block_enters : float;
  mutable block_hits : float;
  mutable block_decodes : float;
  mutable roloads : float;
  mutable itlb : float * float;  (** hits, misses *)
  mutable dtlb : float * float;
  mutable icache : float * float;
  mutable dcache : float * float;
  mutable syscalls : float;
}

let counters () =
  {
    runs = 0; insts = 0.; cycles = 0.; trace_retires = 0.; trace_enters = 0.;
    traces_compiled = 0.; block_enters = 0.; block_hits = 0.; block_decodes = 0.;
    roloads = 0.; itlb = (0., 0.); dtlb = (0., 0.); icache = (0., 0.); dcache = (0., 0.);
    syscalls = 0.;
  }

let add_metrics c (m : Metrics.t) =
  let f = float_of_int and pair (h, m) h' m' = (h +. float_of_int h', m +. float_of_int m') in
  c.runs <- c.runs + 1;
  c.insts <- c.insts +. Int64.to_float m.Metrics.instructions;
  c.cycles <- c.cycles +. Int64.to_float m.Metrics.cycles;
  c.trace_retires <- c.trace_retires +. f m.Metrics.trace_retires;
  c.trace_enters <- c.trace_enters +. f m.Metrics.trace_enters;
  c.traces_compiled <- c.traces_compiled +. f m.Metrics.traces_compiled;
  c.block_enters <- c.block_enters +. f m.Metrics.block_enters;
  c.block_hits <- c.block_hits +. f m.Metrics.block_hits;
  c.block_decodes <- c.block_decodes +. f m.Metrics.block_decodes;
  c.roloads <- c.roloads +. f m.Metrics.roloads;
  c.itlb <- pair c.itlb m.Metrics.itlb_hits m.Metrics.itlb_misses;
  c.dtlb <- pair c.dtlb m.Metrics.dtlb_hits m.Metrics.dtlb_misses;
  c.icache <- pair c.icache m.Metrics.icache_hits m.Metrics.icache_misses;
  c.dcache <- pair c.dcache m.Metrics.dcache_hits m.Metrics.dcache_misses;
  c.syscalls <- c.syscalls +. f m.Metrics.syscalls

(* One split run of each program, under the workload's trace threshold. *)
let run_programs spans ?hot_threshold programs =
  let c = counters () in
  let prev = Machine.default_hot_threshold () in
  Option.iter Machine.set_default_hot_threshold hot_threshold;
  Fun.protect
    ~finally:(fun () -> Machine.set_default_hot_threshold prev)
    (fun () ->
      List.iter
        (fun p ->
          let _, m = split_exec spans ?requests:p.requests p.exe in
          add_metrics c m)
        programs);
  c

let ratio a b = if b = 0.0 then 0.0 else a /. b
let miss_ratio (h, m) = ratio m (h +. m)

let counter_metrics c =
  let per_kinst x = ratio x (c.insts /. 1000.0) in
  [
    ("machine.cpi", ratio c.cycles c.insts, "cycles/inst");
    ("machine.trace_coverage", ratio c.trace_retires c.insts, "ratio");
    ("machine.trace_enters_per_kinst", per_kinst c.trace_enters, "1/kinst");
    ("machine.traces_compiled", ratio c.traces_compiled (float_of_int c.runs), "count");
    ("machine.block_hit_ratio", ratio c.block_hits c.block_enters, "ratio");
    ("machine.block_decodes_per_kinst", per_kinst c.block_decodes, "1/kinst");
    ("machine.roloads_per_kinst", per_kinst c.roloads, "1/kinst");
    ("mem.itlb_miss_ratio", miss_ratio c.itlb, "ratio");
    ("mem.dtlb_miss_ratio", miss_ratio c.dtlb, "ratio");
    ("cache.icache_miss_ratio", miss_ratio c.icache, "ratio");
    ("cache.dcache_miss_ratio", miss_ratio c.dcache, "ratio");
    ("kernel.syscalls_per_kinst", per_kinst c.syscalls, "1/kinst");
  ]

(* Mean duration of the named spans, in the given unit (1e3 = ms). *)
let mean_span spans name scale =
  let total, n =
    Array.fold_left
      (fun (t, n) (s : Spans.span) ->
        if String.equal s.Spans.name name then (t +. (s.Spans.stop -. s.Spans.start), n + 1)
        else (t, n))
      (0.0, 0) spans
  in
  if n = 0 then 0.0 else total /. float_of_int n *. scale

let machine_metrics spans c =
  let all = Spans.spans spans in
  let run_ms = mean_span all "kernel.run" 1e3 in
  [
    ("machine.create_ms", mean_span all "machine.create" 1e3, "ms");
    ("kernel.load_ms", mean_span all "kernel.load" 1e3, "ms");
    ("kernel.run_ms", run_ms, "ms");
    ( "machine.host_ns_per_inst",
      ratio (run_ms *. 1e6 *. float_of_int c.runs) c.insts,
      "ns" );
  ]
  @ counter_metrics c

(* ---------- the toolchain, stage by stage ---------- *)

(* The steps of [Toolchain.compile] with default options, each under its
   own span.  The runtime's extension object is linked under the same
   rule the toolchain uses; the byte-identity check against
   [Toolchain.compile_exe] catches any drift between the two. *)
let ext_runtime_symbols = [ "fork"; "wait"; "read_request"; "complete_request"; "server_checksum" ]

let calls_ext (m : Roload_ir.Ir.modul) =
  List.exists
    (fun (f : Roload_ir.Ir.func) ->
      List.exists
        (fun (b : Roload_ir.Ir.block) ->
          List.exists
            (function
              | Roload_ir.Ir.Call { callee; _ } -> List.mem callee ext_runtime_symbols
              | _ -> false)
            b.Roload_ir.Ir.b_instrs)
        f.Roload_ir.Ir.f_blocks)
    m.Roload_ir.Ir.m_funcs

type staged = { identical : bool; ir_insts : int; text_bytes : int }

let staged_compile spans (p : program) =
  let span name f = Spans.with_span spans name f in
  let o = Toolchain.default_options in
  let verify = Roload_ir.Verify.check_module_exn in
  let assemble items =
    Roload_asm.Assemble.assemble
      ~options:{ Roload_asm.Assemble.compress = o.Toolchain.compress }
      items
  in
  Toolchain.wrap_errors (fun () ->
      let ast = span "front.parse" (fun () -> Roload_front.Parser.parse p.source) in
      let m =
        span "front.lower" (fun () ->
            let m = Roload_front.Lower.lower ast ~module_name:p.name in
            verify m;
            m)
      in
      span "passes.opt" (fun () ->
          ignore (Roload_passes.Constfold.run m);
          ignore (Roload_passes.Dce.run m);
          verify m);
      span "passes.harden" (fun () ->
          ignore (Pass.apply p.scheme m);
          verify m);
      let items = span "codegen.emit" (fun () -> Roload_codegen.Codegen.emit_module m) in
      let objects =
        span "asm.assemble" (fun () ->
            let program = assemble items in
            let runtime = Toolchain.runtime_object ~compress:o.Toolchain.compress in
            let ext =
              if calls_ext m then [ assemble (Roload_asm.Asm_parser.parse Core.Runtime.ext_source) ]
              else []
            in
            program :: runtime :: ext)
      in
      let exe =
        span "link.link" (fun () ->
            Roload_link.Linker.link
              ~options:
                { Roload_link.Linker.default_options with
                  separate_code = o.Toolchain.separate_code }
              objects)
      in
      let ir_insts =
        List.fold_left
          (fun acc (f : Roload_ir.Ir.func) ->
            List.fold_left
              (fun acc (b : Roload_ir.Ir.block) -> acc + List.length b.Roload_ir.Ir.b_instrs + 1)
              acc f.Roload_ir.Ir.f_blocks)
          0 m.Roload_ir.Ir.m_funcs
      in
      let text_bytes =
        Option.value ~default:0
          (List.assoc_opt ".text" (Roload_asm.Assemble.section_sizes (List.hd objects)))
      in
      { identical = String.equal (Exe.to_bytes exe) (Exe.to_bytes p.exe); ir_insts; text_bytes })

let toolchain_metrics spans staged =
  let all = Spans.spans spans in
  let n = float_of_int (max 1 (List.length staged)) in
  let mean f = List.fold_left (fun a s -> a +. float_of_int (f s)) 0.0 staged /. n in
  List.map
    (fun stage -> (stage ^ "_us", mean_span all stage 1e6, "us"))
    [ "front.parse"; "front.lower"; "passes.opt"; "passes.harden"; "codegen.emit";
      "asm.assemble"; "link.link" ]
  @ [
      ("ir.insts", mean (fun s -> s.ir_insts), "count");
      ("obj.text_bytes", mean (fun s -> s.text_bytes), "bytes");
    ]

(* ---------- micro-benchmarks (Bechamel, ns per call) ---------- *)

let bechamel ~quota tests =
  let open Bechamel in
  let open Toolkit in
  (* no stabilising compaction: under the workload's large heap it lands
     inside the samples and swamps nanosecond-scale calls *)
  let cfg = Benchmark.cfg ~stabilize:false ~limit:500 ~quota:(Time.second quota) ~kde:None () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  List.map
    (fun (name, f) ->
      let raw = Benchmark.all cfg [ Instance.monotonic_clock ] (Test.make ~name (Staged.stage f)) in
      let est =
        Hashtbl.fold
          (fun _ r acc ->
            match Analyze.OLS.estimates (Analyze.one ols Instance.monotonic_clock r) with
            | Some [ e ] when Float.is_finite e -> Some e
            | _ -> acc)
          raw None
      in
      match est with
      | Some e -> (name, e, "ns")
      | None -> failwith ("Bechamel gave no estimate for " ^ name))
    tests

let micro ~quick (programs : program list) =
  let cfg = System.machine_config variant in
  (* decode: every instruction parcel of the workload's executables, swept
     as the fetch path splits them (16-bit compressed or 32-bit) *)
  let is_compressed p = Roload_isa.Decode.is_compressed_halfword (p land 0xffff) in
  let rec sweep data o acc =
    if o + 2 > String.length data then acc
    else
      let hw = String.get_uint16_le data o in
      if Roload_isa.Decode.is_compressed_halfword hw then sweep data (o + 2) (hw :: acc)
      else if o + 4 > String.length data then acc
      else sweep data (o + 4) ((hw lor (String.get_uint16_le data (o + 2) lsl 16)) :: acc)
  in
  let parcels =
    Array.of_list
      (List.concat_map
         (fun (p : program) ->
           List.concat_map
             (fun (s : Exe.segment) ->
               if s.Exe.perms.Roload_mem.Perm.x then sweep s.Exe.data 0 [] else [])
             p.exe.Exe.segments)
         programs)
  in
  let cursor = ref 0 in
  let decode () =
    cursor := (!cursor + 1) mod Array.length parcels;
    let p = parcels.(!cursor) in
    if is_compressed p then ignore (Roload_isa.Compressed.decode p)
    else ignore (Roload_isa.Decode.decode p)
  in
  (* translation: the first program's loaded address space *)
  let first = List.hd programs in
  let machine = Machine.create cfg in
  let kernel = Kernel.create ~machine ~config:(System.kernel_config variant) in
  let proc = Kernel.load kernel first.exe in
  let mmu = Process.mmu proc in
  let text_pages =
    Array.of_list
      (List.concat_map
         (fun (s : Exe.segment) ->
           if s.Exe.perms.Roload_mem.Perm.x then
             List.init (max 1 (Exe.segment_pages s)) (fun i -> s.Exe.vaddr + (i * Exe.page))
           else [])
         first.exe.Exe.segments)
  in
  let page = ref 0 in
  let next_page () =
    page := (!page + 1) mod Array.length text_pages;
    text_pages.(!page)
  in
  let translate va = ignore (Roload_mem.Mmu.translate mmu ~access:Roload_mem.Perm.Fetch va) in
  (* cache: a fresh hierarchy; 1024 page-strided lines all land in one set *)
  let h = Machine.hierarchy (Machine.create cfg) in
  let line = ref 0 in
  (* snapshot/fork: the chaos victim booted and paused mid-run *)
  let victim = Roload_inject.Campaign.compile_victim Pass.Icall in
  let vm = Machine.create cfg in
  let vk = Kernel.create ~machine:vm ~config:(System.kernel_config variant) in
  let vp = Kernel.load vk victim in
  Kernel.schedule vk vp;
  ignore (Kernel.run ~limit:{ Kernel.max_instructions = 20_000L } vk vp);
  let mem_image = Roload_mem.Phys_mem.snapshot (Machine.mem vm) in
  let machine_image = Machine.snapshot vm in
  let snap = Roload_kernel.Snapshot.capture ~machine:vm ~kernel:vk ~process:vp in
  bechamel
    ~quota:(if quick then 0.02 else 0.15)
    [
      ("isa.decode_ns", decode);
      ("mem.translate_tlb_ns", fun () -> translate (next_page ()));
      ( "mem.translate_walk_ns",
        fun () ->
          let va = next_page () in
          Roload_mem.Mmu.invalidate mmu ~va;
          translate va );
      ( "cache.access_hit_ns",
        fun () -> ignore (Roload_cache.Hierarchy.access_data h ~pa:4096 ~write:false) );
      ( "cache.access_miss_ns",
        fun () ->
          line := (!line + 1) land 1023;
          ignore (Roload_cache.Hierarchy.access_data h ~pa:(!line * 4096) ~write:false) );
      ("mem.phys_fork_ns", fun () -> ignore (Roload_mem.Phys_mem.fork mem_image));
      ("machine.fork_ns", fun () -> ignore (Machine.fork machine_image));
      ( "snapshot.capture_ns",
        fun () -> ignore (Roload_kernel.Snapshot.capture ~machine:vm ~kernel:vk ~process:vp) );
      ("snapshot.fork_ns", fun () -> ignore (Roload_kernel.Snapshot.fork snap));
    ]

(* ---------- GC pauses from the runtime's event ring ---------- *)

type gc_pauses = { mutable total_ns : int64; mutable max_ns : int64; mutable lost : int }

(* A pause is an outermost runtime phase (minor collection, major slice,
   ...) on one domain's ring, from its begin to its matching end.
   Returns the running tally and the poll to call at op boundaries. *)
let gc_watch () =
  Runtime_events.start ();
  let p = { total_ns = 0L; max_ns = 0L; lost = 0 } in
  let open_ = Hashtbl.create 4 in
  let ns = Runtime_events.Timestamp.to_int64 in
  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun ring ts _ ->
        match Hashtbl.find_opt open_ ring with
        | Some (depth, start) -> Hashtbl.replace open_ ring (depth + 1, start)
        | None -> Hashtbl.replace open_ ring (1, ts))
      ~runtime_end:(fun ring ts _ ->
        match Hashtbl.find_opt open_ ring with
        | Some (1, start) ->
          Hashtbl.remove open_ ring;
          let d = Int64.sub (ns ts) (ns start) in
          p.total_ns <- Int64.add p.total_ns d;
          if d > p.max_ns then p.max_ns <- d
        | Some (depth, start) -> Hashtbl.replace open_ ring (depth - 1, start)
        | None -> ())
      ~lost_events:(fun _ n -> p.lost <- p.lost + n)
      ()
  in
  let cursor = Runtime_events.create_cursor None in
  (* drop whatever the ring already holds: pauses count from here *)
  ignore (Runtime_events.read_poll cursor (Runtime_events.Callbacks.create ()) None);
  (p, fun () -> ignore (Runtime_events.read_poll cursor callbacks None))
