(* The chaos campaign: baseline-vs-injected differential runs.

   One seeded plan drives every scheme.  Per scheme the victim is
   compiled once and a baseline (uninjected) run is measured; each cell
   then runs the victim paused at the plan entry's trigger point (a
   retire-count fraction of that scheme's baseline), applies the fault
   through the injector backdoors, resumes under a watchdog budget, and
   classifies the outcome against the baseline.

   The snapshot ladder (the default): instead of re-booting the victim
   from reset for every cell, each scheme boots one parent system and
   advances it through the sorted distinct trigger frontiers.  At each
   it captures a copy-on-write snapshot, forks that frontier's cells off
   it, settles their rows and drops it, so a ladder holds one snapshot
   at a time.  Pause/resume at a cumulative retire count is
   bit-identical to an uninterrupted run, and forks replay the captured
   state exactly, so the verdict table, checkpoint rows and resume
   behavior are byte-identical to [from_reset = true] — only the
   campaign throughput changes (each cell skips the boot and the
   warm-up prefix).  Silent-corruption verdicts additionally carry a
   page-level diff against the baseline's final memory (the
   differential-state localizer), identical in both modes.

   Robustness: both campaigns in this file (classic and live-server) are
   instances of one cell driver, [run_cells], which runs each scheme's
   ladder in parallel across schemes.  Every cell runs behind the
   driver's containment — a crashing cell is retried a bounded,
   deterministic number of times at its rung and then becomes a
   structured failure row instead of aborting the campaign.  Each row is
   appended to a checkpoint file the moment its cell settles, and
   [resume = true] skips cells already recorded there; the final report
   is sorted by (plan index, scheme), so a resumed run renders
   byte-identically to an uninterrupted one. *)

module Pass = Roload_passes.Pass
module Exe = Roload_obj.Exe
module Kernel = Roload_kernel.Kernel
module Process = Roload_kernel.Process
module Signal = Roload_kernel.Signal
module Machine = Roload_machine.Machine
module System = Core.System
module Parallel = Core.Parallel
module Toolchain = Core.Toolchain
module Ir = Roload_ir.Ir
module Trapclass = Roload_security.Trapclass
module Table = Roload_util.Table
module Json = Roload_util.Json
module Diff = Roload_fuzz.Diff
module Ir_eval = Roload_fuzz.Ir_eval
module Snapshot = Roload_kernel.Snapshot
module Phys_mem = Roload_mem.Phys_mem

let roload_schemes = [ Pass.Vcall; Pass.Icall; Pass.Retcall ]
let default_schemes = [ Pass.Unprotected; Pass.Cfi_baseline; Pass.Vcall; Pass.Icall ]

(* Which (scheme, kind) cells are meaningful.  The icall redirect is
   only run where the scheme claims to police indirect calls (or claims
   nothing): under VCall/VTint an indirect call is out of scope by
   design, and reporting their silent miss would charge them for an
   attack they never promise to stop. *)
let applicable scheme (kind : Fault.kind) =
  match kind with
  | Fault.Ptr_redirect Fault.Icall_sink -> (
    match scheme with
    | Pass.Unprotected | Pass.Cfi_baseline | Pass.Icall -> true
    | Pass.Vcall | Pass.Vtint_baseline | Pass.Retcall -> false)
  | Fault.Ptr_redirect Fault.Vcall_sink -> (
    match scheme with Pass.Retcall -> false | _ -> true)
  | _ -> true

type config = {
  seed : int64;
  count : int;  (** plan length; cells = count x applicable schemes *)
  schemes : Pass.scheme list;
  attempts : int;  (** bounded deterministic retries per cell *)
  jobs : int option;
  budget_factor : int;  (** watchdog = factor x baseline instructions *)
  checkpoint : string option;  (** incremental persistence file *)
  resume : bool;  (** skip cells already in the checkpoint *)
  sabotage : (index:int -> scheme:Pass.scheme -> attempt:int -> unit) option;
      (** test hook: raise from inside a chosen cell *)
  max_cells : int option;  (** test hook: simulate a mid-run kill *)
  elide : bool;  (** compile victims with proof-guided ld.ro check elision *)
  from_reset : bool;
      (** boot every cell from reset instead of forking trigger
          snapshots; verdicts are byte-identical, only slower *)
}

let default_config =
  {
    seed = 1L;
    count = 60;
    schemes = default_schemes;
    attempts = 2;
    jobs = None;
    budget_factor = 8;
    checkpoint = None;
    resume = false;
    sabotage = None;
    max_cells = None;
    elide = false;
    from_reset = false;
  }

type outcome = Verdict of Fault.verdict | Failed

type row = {
  index : int;
  scheme : string;
  cls : string;
  label : string;
  trigger : int64;
  applied : bool;
  attempts : int;
  outcome : outcome;
  detail : string;
}

type report = {
  rows : row list;
  schemes : Pass.scheme list;
  oracle_checked : bool;
  oracle_agreed : bool;
  corruption_diffs : ((int * string) * Phys_mem.page_diff list) list;
      (* per silent-corruption cell, keyed by (index, scheme): the pages
         where the injected run's final memory differs from the clean
         baseline's — localization only, never part of rows/checkpoint *)
}

(* ---------- one run, pausable ---------- *)

let baseline_budget = 50_000_000L

(* A fresh system with [exe] loaded and scheduled, not yet run. *)
let boot ?engine ?(variant = System.Processor_kernel_modified) exe () =
  let machine = Machine.create ?engine (System.machine_config variant) in
  let kernel = Kernel.create ~machine ~config:(System.kernel_config variant) in
  let process = Kernel.load kernel exe in
  Kernel.schedule kernel process;
  (machine, kernel, process)

let run_with_pause ?engine ?variant ~max_instructions ?pause_at ?inject exe =
  let machine, kernel, process = boot ?engine ?variant exe () in
  let finish () = Kernel.run ~limit:{ Kernel.max_instructions } kernel process in
  let outcome =
    match pause_at with
    | Some at when Int64.compare at 0L > 0 && Int64.compare at max_instructions < 0
      -> (
      (* run limits are cumulative retire counts, so pausing at [at] and
         finishing under the full budget retires exactly the same
         instruction stream as one uninterrupted run *)
      let paused = Kernel.run ~limit:{ Kernel.max_instructions = at } kernel process in
      match (paused.Kernel.status, inject) with
      | Process.Running, Some f ->
        f ~machine ~process;
        finish ()
      | Process.Running, None -> finish ()
      | _ -> paused)
    | _ -> finish ()
  in
  (outcome, machine, kernel, process)

let measure ?engine ?variant ?pause_at ~max_instructions exe =
  let outcome, machine, kernel, process =
    run_with_pause ?engine ?variant ~max_instructions ?pause_at exe
  in
  (outcome, System.snapshot_metrics ~machine ~kernel ~mmu:(Process.mmu process))

(* ---------- verdicts ---------- *)

let status_str = function
  | Process.Exited n -> Printf.sprintf "exit %d" n
  | Process.Killed sg -> Signal.to_string sg
  | Process.Running -> "running"

let classify ~(baseline : Kernel.run_outcome) (final : Kernel.run_outcome) =
  match final.Kernel.status with
  | Process.Killed sg -> (
    match Trapclass.classify_signal sg with
    | Trapclass.Roload_fault -> (Fault.Detected_roload, "killed: " ^ Signal.to_string sg)
    | _ -> (Fault.Detected_segv, "killed: " ^ Signal.to_string sg))
  | Process.Running ->
    (Fault.Divergent_output, "watchdog: still running at the instruction budget")
  | Process.Exited code -> (
    match baseline.Kernel.status with
    | Process.Exited b
      when b = code && String.equal final.Kernel.output baseline.Kernel.output ->
      (Fault.Masked, "behavior identical to baseline")
    | Process.Exited 0 when code = 0 ->
      ( Fault.Silent_corruption,
        Printf.sprintf "clean exit, corrupted output %S (baseline %S)"
          final.Kernel.output baseline.Kernel.output )
    | _ ->
      ( Fault.Divergent_output,
        Printf.sprintf "exit %d vs baseline %s" code (status_str baseline.Kernel.status)
      ))

(* ---------- compile & baseline ---------- *)

(* A campaign parses and lowers its victim once.  Each scheme compiles
   its own copy of that front half inside its own [Parallel] cell; the
   front half itself is only ever read, so the cells may copy it at
   once. *)
let compile_scheme ?(elide = false) front scheme =
  (Toolchain.back_half
     ~options:{ Toolchain.default_options with Toolchain.scheme; Toolchain.elide }
     (Ir.copy_module front))
    .Toolchain.exe

let victim_front ast = Toolchain.front_half ~name:"chaos" ast

let compile_victim ?elide scheme =
  compile_scheme ?elide (victim_front (Toolchain.parse Chaos_victim.source)) scheme

(* The baseline keeps its final memory image: silent-corruption verdicts
   are localized by diffing the injected run's final memory against it. *)
let baseline_run_full exe =
  let outcome, machine, _, _ = run_with_pause ~max_instructions:baseline_budget exe in
  (outcome, Phys_mem.snapshot (Machine.mem machine))

(* ---------- one cell ---------- *)

let trigger_of ~(baseline : Kernel.run_outcome) (inj : Fault.injection) =
  let t =
    Int64.div
      (Int64.mul baseline.Kernel.instructions (Int64.of_int inj.Fault.trigger_permille))
      1000L
  in
  if Int64.compare t 1L < 0 then 1L else t

(* the watchdog of both campaigns' cells: factor x baseline instructions *)
let budget_of ~budget_factor instructions =
  Int64.add (Int64.mul instructions (Int64.of_int budget_factor)) 100_000L

(* Verdict + row assembly shared by the from-reset and snapshot-seeded
   cell paths — both feed it the same (final outcome, final machine), so
   rows are byte-identical across modes by construction. *)
let cell_row ~attempt ~baseline ~baseline_mem ~trigger ~applied (inj : Fault.injection)
    scheme ~machine (final : Kernel.run_outcome) =
  let verdict, detail = classify ~baseline final in
  let diffs =
    match (verdict, baseline_mem) with
    | Fault.Silent_corruption, Some bm ->
      Some (Phys_mem.diff_images bm (Phys_mem.snapshot (Machine.mem machine)))
    | _ -> None
  in
  ( {
      index = inj.Fault.index;
      scheme = Pass.scheme_name scheme;
      cls = Fault.class_name inj.Fault.kind;
      label = Fault.kind_label inj.Fault.kind;
      trigger;
      applied = applied <> None;
      attempts = attempt;
      outcome = Verdict verdict;
      detail =
        (match applied with
        | Some (a : Injector.applied) -> a.Injector.desc ^ "; " ^ detail
        | None -> "not applied; " ^ detail);
    },
    diffs )

let run_one ?(budget_factor = default_config.budget_factor) ?baseline_mem ~attempt
    ~(baseline : Kernel.run_outcome) (inj : Fault.injection) scheme exe =
  let trigger = trigger_of ~baseline inj in
  let budget = budget_of ~budget_factor baseline.Kernel.instructions in
  let applied = ref None in
  let inject ~machine ~process =
    applied := Injector.apply ~machine ~process ~exe inj.Fault.kind
  in
  let final, machine, _, _ =
    run_with_pause ~max_instructions:budget ~pause_at:trigger ~inject exe
  in
  cell_row ~attempt ~baseline ~baseline_mem ~trigger ~applied:!applied inj scheme
    ~machine final

(* The snapshot-seeded cell: fork the warm image captured at this cell's
   trigger frontier, inject, resume.  The fork holds exactly the state a
   from-reset run paused at [trigger] would hold (the pause/resume
   bit-identity invariant), so the verdict is identical — the boot and
   warm-up prefix are simply never re-executed. *)
let run_one_seeded ?(budget_factor = default_config.budget_factor) ?baseline_mem
    ~attempt ~(baseline : Kernel.run_outcome) ~snap (inj : Fault.injection) scheme exe =
  let trigger = trigger_of ~baseline inj in
  let budget = budget_of ~budget_factor baseline.Kernel.instructions in
  let machine, kernel, process = Snapshot.fork snap in
  let applied = ref None in
  if Process.status process = Process.Running then
    applied := Injector.apply ~machine ~process ~exe inj.Fault.kind;
  let final = Kernel.run ~limit:{ Kernel.max_instructions = budget } kernel process in
  cell_row ~attempt ~baseline ~baseline_mem ~trigger ~applied:!applied inj scheme
    ~machine final

(* ---------- the snapshot ladder ---------- *)

(* Boot one parent system and [advance] it through the sorted distinct
   trigger frontiers; at each, capture a snapshot and hand it to [rung].
   Returns what the rungs returned and the parent, paused at the last
   frontier.  Both clocks the campaigns use pause exactly — the classic
   one's cumulative retire count and the server's request hand-out
   count — so the parent paused at each frontier is bit-identical to a
   from-reset run paused there. *)
let climb_ladder ~boot ~advance ~triggers ~rung =
  let ((machine, kernel, process) as parent) = boot () in
  let rungs =
    List.map
      (fun t ->
        advance kernel process t;
        rung t (Snapshot.capture ~machine ~kernel ~process))
      (List.sort_uniq compare triggers)
  in
  (rungs, parent)

(* ---------- the row format ----------

   One column list per row type is that row's whole format: a
   checkpoint line is rendered from it and parsed back through it, and
   the JSON report's row objects are rendered from it.  Column order is
   both the TSV field order and the JSON key order.  Each field's parser
   accepts only what its encoder writes, so a malformed checkpoint row
   is dropped and its cell runs again. *)

type 'r column = {
  key : string;  (* the JSON key *)
  json : 'r -> string;
  tsv : 'r -> string;
  parse : string -> 'r -> 'r option;  (* set this field from its TSV text *)
}

let column key ~json ~tsv ~parse get set =
  {
    key;
    json = (fun r -> json (get r));
    tsv = (fun r -> tsv (get r));
    parse = (fun field r -> Option.map (set r) (parse field));
  }

let sanitize s =
  String.map (fun c -> match c with '\t' | '\n' | '\r' -> ' ' | c -> c) s

let int_col key = column key ~json:Json.int ~tsv:string_of_int ~parse:int_of_string_opt
let bool_col key = column key ~json:Json.bool ~tsv:string_of_bool ~parse:bool_of_string_opt
let str_col key = column key ~json:Json.str ~tsv:sanitize ~parse:Option.some
let to_line columns r = String.concat "\t" (List.map (fun c -> c.tsv r) columns)
let row_json columns r = Json.obj (List.map (fun c -> (c.key, c.json r)) columns)

(* every column sets its field, so nothing of [blank] survives a parse *)
let of_line columns ~blank line =
  let fields = String.split_on_char '\t' line in
  if List.compare_lengths fields columns <> 0 then None
  else
    List.fold_left2 (fun r c field -> Option.bind r (c.parse field)) (Some blank) columns
      fields

let outcome_tag = function Verdict v -> Fault.verdict_name v | Failed -> "failed"

let outcome_of_tag = function
  | "failed" -> Some Failed
  | t -> Option.map (fun v -> Verdict v) (Fault.verdict_of_string t)

let row_columns =
  [
    int_col "index" (fun (r : row) -> r.index) (fun r index -> { r with index });
    str_col "scheme" (fun r -> r.scheme) (fun r scheme -> { r with scheme });
    str_col "class" (fun r -> r.cls) (fun r cls -> { r with cls });
    str_col "label" (fun r -> r.label) (fun r label -> { r with label });
    column "trigger" ~json:Json.int64 ~tsv:Int64.to_string ~parse:Int64.of_string_opt
      (fun r -> r.trigger) (fun r trigger -> { r with trigger });
    bool_col "applied" (fun r -> r.applied) (fun r applied -> { r with applied });
    int_col "attempts" (fun r -> r.attempts) (fun r attempts -> { r with attempts });
    column "verdict" ~json:(fun o -> Json.str (outcome_tag o)) ~tsv:outcome_tag
      ~parse:outcome_of_tag (fun r -> r.outcome) (fun r outcome -> { r with outcome });
    str_col "detail" (fun r -> r.detail) (fun r detail -> { r with detail });
  ]

let blank_row =
  { index = 0; scheme = ""; cls = ""; label = ""; trigger = 0L; applied = false;
    attempts = 0; outcome = Failed; detail = "" }

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !lines

(* The newline-terminated lines of a checkpoint and the bytes they span.
   A last line cut mid-write has no newline and is no row, even when
   what survived of it would still parse. *)
let checkpoint_lines path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match String.rindex_opt text '\n' with
  | None -> ([], 0)
  | Some i -> (String.split_on_char '\n' (String.sub text 0 i), i + 1)

(* ---------- the checkpoint writer ----------

   One channel per campaign.  A checkpoint without usable prior rows
   ([keep = None]) starts over under [header]; otherwise the file is cut
   back to its first [keep] bytes, dropping a torn last line, and
   settled rows are appended to it.  Each row is written whole under the
   mutex and flushed at once, so a killed campaign leaves every settled
   cell on disk and no two rows interleave.  Without a checkpoint no line
   is rendered. *)
let with_appender checkpoint ~header ~columns ~keep f =
  match checkpoint with
  | None -> f (fun _ -> ())
  | Some path ->
    let oc =
      match keep with
      | Some bytes ->
        Unix.truncate path bytes;
        open_out_gen [ Open_wronly; Open_append ] 0o644 path
      | None -> open_out path
    in
    let m = Mutex.create () in
    let write line =
      Mutex.protect m (fun () ->
          output_string oc line;
          output_char oc '\n';
          flush oc)
    in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        if keep = None then write header;
        f (fun row -> write (to_line columns row)))

(* ---------- the cell driver ----------

   A cell is (plan entry, scheme).  Each campaign describes its cells
   with a spec; the driver owns the rest: enumerating the applicable
   cells, the checkpoint header, resume (prior rows, done keys), the
   [max_cells] cut and the final sort by (plan index, scheme position).
   Per scheme, in parallel across schemes, it hands the campaign's
   ladder that scheme's cells in plan order.  The ladder runs each cell
   through the cell's [start] at the cell's rung, and hands the
   settled row to [settle], which appends it to the checkpoint at once.
   A row may carry an extra ['x] that never reaches the checkpoint (the
   classic campaign's corruption diff). *)

type ('inj, 'row, 'x) cell = {
  inj : 'inj;
  start : 'a. (attempt:int -> 'a) -> ('a, 'row) result;
      (** the containment: the sabotage hook immediately before each
          attempt's work, bounded retry, and the failed row once every
          attempt raised *)
  settle : 'row * 'x option -> unit;
}

type ('inj, 'row, 'x, 'b) cell_spec = {
  header : string;  (** first checkpoint line; pins the campaign parameters *)
  applies : Pass.scheme -> 'inj -> bool;
  index_of : 'inj -> int;
  key_of_row : 'row -> int * string;  (** (plan index, scheme name) *)
  columns : 'row column list;  (** the checkpoint and JSON row format *)
  blank : 'row;  (** what a checkpoint line is parsed into *)
  failed_row : 'inj -> Pass.scheme -> error:string -> attempts:int -> 'row;
  revisit : 'row -> bool;
      (** prior rows whose cell is re-run once, without the hook and
          without a new row, to recover its ['x], which the checkpoint
          does not persist *)
  ladder : Pass.scheme -> Exe.t -> ('inj, 'row, 'x) cell list -> 'b;
      (** runs and settles every cell of one scheme; what it returns is
          the campaign's to check across schemes *)
}

(* Start a cell and settle it at once: its row, or its failed row. *)
let run_cell c work =
  c.settle (match c.start work with Ok rx -> rx | Error row -> (row, None))

let error_text e = sanitize (Printexc.to_string e)

(* Returns the rows with their extras, sorted, and each scheme's ladder
   result in scheme order. *)
let run_cells spec ~checkpoint ~resume ~attempts ~jobs ~sabotage ~max_cells ~plan exes =
  let cells =
    List.concat_map
      (fun inj ->
        List.filter_map (fun (s, _) -> if spec.applies s inj then Some (inj, s) else None) exes)
      plan
  in
  let key (inj, s) = (spec.index_of inj, Pass.scheme_name s) in
  (* a checkpoint is the header plus one TSV row per settled cell; a
     different header (another campaign, or corrupt) starts over *)
  let prior, keep =
    match checkpoint with
    | Some path when resume && Sys.file_exists path -> (
      match checkpoint_lines path with
      | h :: rest, bytes when String.equal h spec.header -> (
        match List.filter_map (of_line spec.columns ~blank:spec.blank) rest with
        | [] -> ([], None)
        | rows -> (rows, Some bytes))
      | _ -> ([], None))
    | _ -> ([], None)
  in
  let done_rows = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace done_rows (spec.key_of_row r) r) prior;
  let todo = List.filter (fun c -> not (Hashtbl.mem done_rows (key c))) cells in
  let todo =
    match max_cells with Some k -> List.filteri (fun i _ -> i < k) todo | None -> todo
  in
  let recorded = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace recorded (key c) ()) todo;
  let revisit c =
    match Hashtbl.find_opt done_rows (key c) with Some r -> spec.revisit r | None -> false
  in
  let attempts = max 1 attempts in
  let per_scheme =
    with_appender checkpoint ~header:spec.header ~columns:spec.columns ~keep
    @@ fun append_row ->
    Parallel.map ?jobs
      (fun (scheme, exe) ->
        let fresh = ref [] and recovered = ref [] in
        let cell ((inj, _) as c) =
          let index = spec.index_of inj in
          if Hashtbl.mem recorded (key c) then
            let start work =
              let rec go attempt =
                match
                  Option.iter (fun f -> f ~index ~scheme ~attempt) sabotage;
                  work ~attempt
                with
                | v -> Ok v
                | exception _ when attempt < attempts -> go (attempt + 1)
                | exception e ->
                  Error (spec.failed_row inj scheme ~error:(error_text e) ~attempts:attempt)
              in
              go 1
            in
            let settle ((row, _) as rx) =
              append_row row;
              fresh := rx :: !fresh
            in
            Some { inj; start; settle }
          else if revisit c then
            Some
              {
                inj;
                start = (fun work -> Ok (work ~attempt:1));
                settle = (fun (_, x) -> recovered := (key c, x) :: !recovered);
              }
          else None
        in
        let mine = List.filter_map (fun ((_, s) as c) -> if s = scheme then cell c else None) cells in
        let b = spec.ladder scheme exe mine in
        (!fresh, !recovered, b))
      exes
  in
  let recovered = Hashtbl.create 16 in
  List.iter (fun (_, r, _) -> List.iter (fun (k, x) -> Hashtbl.replace recovered k x) r) per_scheme;
  let prior =
    List.map
      (fun r -> (r, Option.join (Hashtbl.find_opt recovered (spec.key_of_row r))))
      prior
  in
  let scheme_pos =
    let names = List.mapi (fun i (s, _) -> (Pass.scheme_name s, i)) exes in
    fun n -> match List.assoc_opt n names with Some i -> i | None -> max_int
  in
  let pos (r, _) =
    let index, name = spec.key_of_row r in
    (index, scheme_pos name)
  in
  let fresh = List.concat_map (fun (f, _, _) -> f) per_scheme in
  let sorted = List.sort (fun a b -> compare (pos a) (pos b)) (prior @ fresh) in
  ( List.map fst sorted,
    List.filter_map (fun (r, x) -> Option.map (fun x -> (spec.key_of_row r, x)) x) sorted,
    List.map (fun (_, _, b) -> b) per_scheme )

(* ---------- the campaign ---------- *)

exception Broken_victim of string

let failed_row (inj : Fault.injection) scheme ~error ~attempts =
  {
    index = inj.Fault.index;
    scheme = Pass.scheme_name scheme;
    cls = Fault.class_name inj.Fault.kind;
    label = Fault.kind_label inj.Fault.kind;
    trigger = 0L;
    applied = false;
    attempts;
    outcome = Failed;
    detail = error;
  }

(* One scheme's cells.  The ladder boots one parent and advances it
   through the sorted distinct trigger frontiers; at each it captures,
   runs that frontier's cells off the snapshot in plan order, settles
   their rows and drops the snapshot.  From reset, the reference path,
   cells boot one by one, in the same order. *)
let classic_ladder (cfg : config) ~baseline ~baseline_mem scheme exe cells =
  let trigger c = trigger_of ~baseline c.inj in
  let budget_factor = cfg.budget_factor in
  if cfg.from_reset then
    List.iter
      (fun c ->
        run_cell c (fun ~attempt ->
            run_one ~budget_factor ~baseline_mem ~attempt ~baseline c.inj scheme exe))
      (List.stable_sort (fun a b -> compare (trigger a) (trigger b)) cells)
  else
    ignore
      (climb_ladder ~boot:(boot exe) ~triggers:(List.map trigger cells)
         ~advance:(fun kernel process t ->
           ignore (Kernel.run ~limit:{ Kernel.max_instructions = t } kernel process))
         ~rung:(fun t snap ->
           List.iter
             (fun c ->
               if trigger c = t then
                 run_cell c (fun ~attempt ->
                     run_one_seeded ~budget_factor ~baseline_mem ~attempt ~baseline ~snap c.inj
                       scheme exe))
             cells))

let run (cfg : config) =
  let schemes = cfg.schemes in
  let ast = Toolchain.parse Chaos_victim.source in
  let front = victim_front ast in
  let compiled =
    Parallel.map ?jobs:cfg.jobs
      (fun s ->
        let exe = compile_scheme ~elide:cfg.elide front s in
        ((s, exe), (s, baseline_run_full exe)))
      schemes
  in
  let exes, baselines = List.split compiled in
  List.iter
    (fun (s, ((b : Kernel.run_outcome), _)) ->
      match b.Kernel.status with
      | Process.Exited 0 when String.equal b.Kernel.output Chaos_victim.benign_output ->
        ()
      | st ->
        raise
          (Broken_victim
             (Printf.sprintf "chaos victim broken under %s: %s, output %S"
                (Pass.scheme_name s) (status_str st) b.Kernel.output)))
    baselines;
  (* cross-check the baselines against the reference IR oracle — the
     differential machinery roload-fuzz already trusts *)
  let oracle_checked, oracle_agreed =
    match Diff.oracle_of_ast ~schemes ast with
    | preds ->
      let ok =
        List.for_all2
          (fun (_, (b : Ir_eval.behavior)) (_, ((o : Kernel.run_outcome), _)) ->
            Trapclass.stop_equal b.Ir_eval.stop (Trapclass.stop_of_status o.Kernel.status)
            && String.equal b.Ir_eval.output o.Kernel.output)
          preds baselines
      in
      (true, ok)
    | exception _ -> (false, true)
  in
  let spec =
    {
      (* [elide=true] is appended only when on, so checkpoints of
         pre-elision campaigns keep their exact header (and stay
         resumable) *)
      header =
        Printf.sprintf "# roload-chaos v1 seed=%Ld count=%d schemes=%s%s" cfg.seed
          cfg.count
          (String.concat "," (List.map Pass.scheme_name schemes))
          (if cfg.elide then " elide=true" else "");
      applies = (fun s (inj : Fault.injection) -> applicable s inj.Fault.kind);
      index_of = (fun (inj : Fault.injection) -> inj.Fault.index);
      key_of_row = (fun (r : row) -> (r.index, r.scheme));
      columns = row_columns;
      blank = blank_row;
      failed_row;
      (* Silent-corruption rows restored from a checkpoint carry no diff
         (the checkpoint persists rows only), so a resumed report would
         lose their localization.  Re-derive those cells
         deterministically — the re-run reproduces the fresh run's diff
         bit-for-bit, keeping resumed and uninterrupted reports
         byte-identical. *)
      revisit = (fun (r : row) -> r.outcome = Verdict Fault.Silent_corruption);
      ladder =
        (fun scheme exe cells ->
          let baseline, baseline_mem = List.assoc scheme baselines in
          classic_ladder cfg ~baseline ~baseline_mem scheme exe cells);
    }
  in
  let rows, corruption_diffs, _ =
    run_cells spec ~checkpoint:cfg.checkpoint ~resume:cfg.resume ~attempts:cfg.attempts
      ~jobs:cfg.jobs ~sabotage:cfg.sabotage ~max_cells:cfg.max_cells
      ~plan:(Plan.build ~seed:cfg.seed ~count:cfg.count)
      exes
  in
  { rows; schemes; oracle_checked; oracle_agreed; corruption_diffs }

(* ---------- reporting ---------- *)

let verdict_of_row (r : row) = match r.outcome with Verdict v -> Some v | Failed -> None
let count p rows = List.length (List.filter p rows)

(* The class x scheme grid both campaigns render: one row per injection
   class, one column per scheme; [cell] renders the rows of one (class,
   scheme) pair. *)
let class_grid ~title ~classes ~schemes ~key ~cell rows =
  let t =
    Table.create ~title ~header:("injection class" :: List.map Pass.scheme_name schemes) ()
  in
  List.iter
    (fun cls ->
      let cells =
        List.map
          (fun s ->
            let name = Pass.scheme_name s in
            cell
              (List.filter
                 (fun r ->
                   let c, n = key r in
                   String.equal c cls && String.equal n name)
                 rows))
          schemes
      in
      Table.add_row t (cls :: cells))
    classes;
  t

let coverage_table (rp : report) =
  class_grid
    ~title:
      "roload-chaos verdicts by class (R=ld.ro fault  S=other fault  C=silent \
       corruption  M=masked  D=divergent  F=cell failure)"
    ~classes:Fault.all_class_names ~schemes:rp.schemes
    ~key:(fun (r : row) -> (r.cls, r.scheme))
    ~cell:(fun rs ->
      if rs = [] then "-"
      else begin
        let c v = count (fun (r : row) -> r.outcome = Verdict v) rs in
        let f = count (fun (r : row) -> r.outcome = Failed) rs in
        Printf.sprintf "%dR %dS %dC %dM %dD%s" (c Fault.Detected_roload)
          (c Fault.Detected_segv) (c Fault.Silent_corruption) (c Fault.Masked)
          (c Fault.Divergent_output)
          (if f > 0 then Printf.sprintf " %dF" f else "")
      end)
    rp.rows

(* Both campaigns' gates hold only the ROLoad schemes of a report to
   the standard: [under_roload schemes scheme_of] selects their rows. *)
let under_roload schemes scheme_of =
  let roload_names =
    List.filter_map
      (fun s -> if List.mem s roload_schemes then Some (Pass.scheme_name s) else None)
      schemes
  in
  fun r -> List.exists (String.equal (scheme_of r)) roload_names

(* The release gates: what the CI chaos-smoke job asserts. *)
type gate = { silent_under_roload : int; undetected_tamper : int; cell_failures : int }

let tamper_classes = [ "pte-key-flip"; "pte-ro-tamper"; "tlb-key-flip" ]

let gate (rp : report) =
  let under_roload = under_roload rp.schemes (fun (r : row) -> r.scheme) in
  {
    silent_under_roload =
      count
        (fun (r : row) -> under_roload r && r.outcome = Verdict Fault.Silent_corruption)
        rp.rows;
    undetected_tamper =
      count
        (fun (r : row) ->
          under_roload r
          && List.mem r.cls tamper_classes
          && r.outcome <> Verdict Fault.Detected_roload)
        rp.rows;
    cell_failures = count (fun (r : row) -> r.outcome = Failed) rp.rows;
  }

let render (rp : report) =
  let g = gate rp in
  Table.render (coverage_table rp)
  ^ Printf.sprintf
      "\n\
       cells: %d   silent-under-roload: %d   undetected-tamper-under-roload: %d   \
       cell-failures: %d\n\
       oracle cross-check: %s\n"
      (List.length rp.rows) g.silent_under_roload g.undetected_tamper g.cell_failures
      (if not rp.oracle_checked then "skipped (oracle declined the victim)"
       else if rp.oracle_agreed then "agreed"
       else "DIVERGED")

let to_json (rp : report) =
  let diff_json ((index, scheme), (ds : Phys_mem.page_diff list)) =
    Json.obj
      [
        ("index", Json.int index);
        ("scheme", Json.str scheme);
        ( "pages",
          Json.arr
            (List.map
               (fun (d : Phys_mem.page_diff) ->
                 Json.obj
                   [
                     ("page", Json.int d.Phys_mem.page);
                     ("addr", Json.int d.Phys_mem.addr);
                     ("baseline_byte", Json.int d.Phys_mem.a_byte);
                     ("corrupt_byte", Json.int d.Phys_mem.b_byte);
                   ])
               ds) );
      ]
  in
  let g = gate rp in
  Json.obj
    [
      ("schemes", Json.arr (List.map (fun s -> Json.str (Pass.scheme_name s)) rp.schemes));
      ("oracle_checked", Json.bool rp.oracle_checked);
      ("oracle_agreed", Json.bool rp.oracle_agreed);
      ("silent_under_roload", Json.int g.silent_under_roload);
      ("undetected_tamper", Json.int g.undetected_tamper);
      ("cell_failures", Json.int g.cell_failures);
      ("rows", Json.arr (List.map (row_json row_columns) rp.rows));
      ("corruption_diffs", Json.arr (List.map diff_json rp.corruption_diffs));
    ]

(* --diff-pages: the human-readable localization report.  A separate
   artifact on purpose — [render]'s table stays byte-identical to
   pre-snapshot campaigns. *)
let render_diffs (rp : report) =
  let buf = Buffer.create 256 in
  List.iter
    (fun ((index, scheme), (ds : Phys_mem.page_diff list)) ->
      Buffer.add_string buf
        (Printf.sprintf "silent corruption at cell #%d under %s: %d page(s) differ\n"
           index scheme (List.length ds));
      List.iter
        (fun (d : Phys_mem.page_diff) ->
          Buffer.add_string buf
            (Printf.sprintf "  page %#x: first diff at %#x, baseline %#04x != %#04x\n"
               d.Phys_mem.page d.Phys_mem.addr d.Phys_mem.a_byte d.Phys_mem.b_byte))
        ds)
    rp.corruption_diffs;
  if rp.corruption_diffs = [] then
    Buffer.add_string buf "no silent corruption: nothing to localize\n";
  Buffer.contents buf

(* ---------- corpus reproducers ---------- *)

type replay_check = { rc_scheme : string; rc_expected : string; rc_actual : string }

let replay ~path =
  let seed = ref None and entry = ref None and expects = ref [] in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then
        match String.split_on_char ' ' line with
        | [ "seed"; v ] -> seed := Int64.of_string_opt v
        | [ "entry"; v ] -> entry := int_of_string_opt v
        | [ "expect"; s; v ] -> expects := (s, v) :: !expects
        | _ -> ())
    (read_lines path);
  match (!seed, !entry, List.rev !expects) with
  | Some seed, Some entry, (_ :: _ as expects) ->
    let inj = List.nth (Plan.build ~seed ~count:(entry + 1)) entry in
    List.map
      (fun (sname, expected) ->
        match Pass.scheme_of_string sname with
        | None -> { rc_scheme = sname; rc_expected = expected; rc_actual = "unknown-scheme" }
        | Some scheme ->
          let exe = compile_victim scheme in
          let baseline = fst (baseline_run_full exe) in
          let r, _ = run_one ~attempt:1 ~baseline inj scheme exe in
          { rc_scheme = sname; rc_expected = expected; rc_actual = outcome_tag r.outcome })
      expects
  | _ -> failwith ("malformed chaos reproducer: " ^ path)

(* ---------- the live-server campaign ----------

   The classic campaign above injects into a paused single-process
   victim and asks "was the tamper detected?".  The server campaign
   injects into a RUNNING multi-worker serving system and asks the
   robustness question instead: "how many requests were served
   correctly?" — per (injection class, scheme), with the supervised
   kernel restarting dead workers and redelivering their in-flight
   requests.

   Every cell is a full server run: compile the server workload under
   the scheme, load the sharded request device, arm the supervisor, and
   install a one-shot request hook that strikes the chosen worker when
   the device has handed out the entry's trigger count.  Per-request
   outcomes are judged against the scheme's uninjected baseline run
   (every request's correct result is a pure function of its payload),
   then folded into the serving-availability table.

   Determinism: the trigger is a handout count (not wall-clock), the
   scheduler quantum is retired instructions, the supervisor restart is
   a pure function of kernel state, and the injector backdoors are
   deterministic — so every cell, and hence the availability table, is
   byte-identical across engines and across -j. *)

type server_config = {
  sv_seed : int64;
  sv_count : int;  (** plan length; cells = count x applicable schemes *)
  sv_requests : int;  (** request-stream length per cell *)
  sv_workers : int;  (** forked worker-pool size *)
  sv_shards : int;  (** request-device shards *)
  sv_schemes : Pass.scheme list;
  sv_attempts : int;
  sv_jobs : int option;
  sv_time_slice : int option;
  sv_engine : Machine.engine option;
  sv_max_restarts : int;  (** supervisor restart budget per worker *)
  sv_deadline_cycles : int64;  (** per-request watchdog; 0 = off *)
  sv_budget_factor : int;  (** cell fuel = factor x baseline instructions *)
  sv_checkpoint : string option;
  sv_resume : bool;
  sv_sabotage : (index:int -> scheme:Pass.scheme -> attempt:int -> unit) option;
  sv_max_cells : int option;
}

let default_server_config =
  {
    sv_seed = 1L;
    sv_count = 12;
    sv_requests = 400;
    sv_workers = 4;
    sv_shards = 1;
    sv_schemes = default_schemes;
    sv_attempts = 2;
    sv_jobs = None;
    sv_time_slice = None;
    sv_engine = None;
    sv_max_restarts = 3;
    sv_deadline_cycles = 5_000_000L;
    sv_budget_factor = 8;
    sv_checkpoint = None;
    sv_resume = false;
    sv_sabotage = None;
    sv_max_cells = None;
  }

(* The icall redirect stays out of scope for schemes that never claim to
   police indirect calls (same reasoning as [applicable]); the kill and
   page-level classes are meaningful everywhere. *)
let server_applicable scheme (k : Server_fault.kind) =
  match k with
  | Server_fault.Worker_kill -> true
  | Server_fault.Tamper fk -> applicable scheme fk

type server_row = {
  sv_index : int;
  sv_scheme : string;
  sv_cls : string;
  sv_label : string;
  sv_worker : int;
  sv_trigger : int;  (* handout count the hook fired at *)
  sv_applied : bool;
  sv_cell_attempts : int;
  sv_failed : bool;  (* crash containment: the cell itself blew up *)
  sv_tally : Server_fault.tally;
  sv_restarts : int;
  sv_detail : string;
}

type server_report = {
  sv_rows : server_row list;  (** sorted by (plan index, scheme position) *)
  sv_report_schemes : Pass.scheme list;
  sv_report_requests : int;
}

let server_trigger_of ~requests (inj : Server_fault.injection) =
  max 1 (inj.Server_fault.trigger_permille * requests / 1000)

(* ---------- the serving ladder ----------

   Per scheme, one supervised run is both the baseline and the ladder.
   It pauses at each distinct trigger hand-out of the scheme's cells,
   captures, forks that trigger's cells off the snapshot and runs them,
   drops the snapshot and serves on.  So a cell pays only for the
   requests after its strike, and a ladder holds one snapshot at a
   time.

   A pause changes nothing the run retires, so the ladder's end is the
   uninterrupted baseline.  The cells' watchdog budget derives from it,
   and it is not known while they run: each cell first runs under the
   budget of the instructions the ladder retired before its strike, a
   lower bound, and a cell still running there resumes under the full
   budget once the ladder ends — pause and resume are exact, so this is
   one run under the full budget.  Cells are classified against the
   baseline's committed results then, and their rows settle in plan
   order.  Containment covers the work at the rung (fork, strike, run
   to the lower bound), where the hook fires; a cell that raises when
   it resumes after the ladder settles as a failed row at once, since
   its rung is gone. *)

let baseline_limit = { Kernel.max_instructions = 2_000_000_000L }

(* The strike a cell's request hook makes: kill or tamper the plan
   entry's worker. *)
let strike (inj : Server_fault.injection) exe applied k =
  match Kernel.worker_pids k with
  | [] -> ()
  | pids -> (
    let pid = List.nth pids (inj.Server_fault.worker_slot mod List.length pids) in
    match inj.Server_fault.kind with
    | Server_fault.Worker_kill ->
      if Kernel.kill_task k ~pid ~info:"chaos" then
        applied :=
          Some { Injector.desc = Printf.sprintf "killed worker pid %d" pid; Injector.addr = 0 }
    | Server_fault.Tamper fk -> (
      match Kernel.task_process k pid with
      | None -> ()
      | Some process -> applied := Injector.apply ~machine:(Kernel.machine k) ~process ~exe fk))

(* A cell's requests as classification needs them while the baseline
   is still unknown: each one's outcome if its committed result is the
   baseline's, and that result (8 bytes per request) — a fraction of
   the request records' size. *)
let served (records : Kernel.request_record array) =
  let results = Bytes.make (8 * Array.length records) '\000' in
  let outcomes =
    Array.mapi
      (fun id (rr : Kernel.request_record) ->
        Option.iter (Bytes.set_int64_le results (8 * id)) rr.Kernel.rr_result;
        Server_fault.classify_record ~baseline:rr.Kernel.rr_result rr)
      records
  in
  (outcomes, results)

(* One cell off its trigger's snapshot: fork, arm the strike there, run
   under [limit].  Returns the strike's record and the function that
   finishes the run under the full budget and measures it: the root's
   status, the requests (see [served]) and the restart count.  A cell
   that ended within [limit] is measured at once and its system
   dropped. *)
let fork_cell (cfg : server_config) ~snap ~limit ~trigger inj exe =
  let applied = ref None in
  let machine, kernel, process = Snapshot.fork snap in
  Kernel.set_request_hook kernel ~at:trigger (strike inj exe applied);
  let run budget =
    Kernel.run_all ~limit:{ Kernel.max_instructions = budget } ?time_slice:cfg.sv_time_slice
      kernel
  in
  let measure outcome =
    let m, stats = System.measure_server ~machine ~kernel ~process exe outcome in
    (System.status_string m, served stats.System.records, stats.System.restarts)
  in
  let outcome = run limit in
  let finish =
    if outcome.Kernel.status = Process.Running then fun budget -> measure (run budget)
    else
      let measured = measure outcome in
      fun _ -> measured
  in
  (applied, finish)

(* classify every request against the baseline's committed results:
   a committed result the baseline does not share is corrupted *)
let server_row (cfg : server_config) ~(baseline_results : int64 option array) ~attempts
    (inj : Server_fault.injection) scheme applied (root, (outcomes, results), restarts) =
  let tally = ref Server_fault.empty_tally in
  Array.iteri
    (fun id outcome ->
      tally :=
        Server_fault.tally_add !tally
          (match outcome with
          | Server_fault.Lost -> outcome
          | _ when baseline_results.(id) <> Some (Bytes.get_int64_le results (8 * id)) ->
            Server_fault.Corrupted
          | _ -> outcome))
    outcomes;
  {
    sv_index = inj.Server_fault.index;
    sv_scheme = Pass.scheme_name scheme;
    sv_cls = Server_fault.class_name inj.Server_fault.kind;
    sv_label = Server_fault.kind_label inj.Server_fault.kind;
    sv_worker = inj.Server_fault.worker_slot;
    sv_trigger = server_trigger_of ~requests:cfg.sv_requests inj;
    sv_applied = applied <> None;
    sv_cell_attempts = attempts;
    sv_failed = false;
    sv_tally = !tally;
    sv_restarts = restarts;
    sv_detail =
      (match applied with
      | Some (a : Injector.applied) ->
        Printf.sprintf "%s; root %s; %d restart(s)" a.Injector.desc root restarts
      | None -> Printf.sprintf "not applied; root %s" root);
  }

(* An uninjected run must exit cleanly, serve every request and need no
   restart. *)
let check_baseline (cfg : server_config) scheme
    ((m : System.measurement), (stats : System.server_stats)) =
  let name = Pass.scheme_name scheme in
  if not (System.exited_cleanly m) then
    raise
      (Broken_victim
         (Printf.sprintf "server victim under %s: root %s" name (System.status_string m)));
  if stats.System.served <> cfg.sv_requests then
    raise
      (Broken_victim
         (Printf.sprintf "server victim under %s served %d of %d" name stats.System.served
            cfg.sv_requests));
  if stats.System.restarts <> 0 then
    raise
      (Broken_victim
         (Printf.sprintf "server victim under %s needed %d restart(s) uninjected" name
            stats.System.restarts))

let server_failed_row (inj : Server_fault.injection) scheme ~error ~attempts =
  {
    sv_index = inj.Server_fault.index;
    sv_scheme = Pass.scheme_name scheme;
    sv_cls = Server_fault.class_name inj.Server_fault.kind;
    sv_label = Server_fault.kind_label inj.Server_fault.kind;
    sv_worker = inj.Server_fault.worker_slot;
    sv_trigger = 0;
    sv_applied = false;
    sv_cell_attempts = attempts;
    sv_failed = true;
    sv_tally = Server_fault.empty_tally;
    sv_restarts = 0;
    sv_detail = error;
  }

(* Every cell of one scheme off one serving ladder.  Checks the
   baseline, settles every cell's row, and returns the baseline's
   checksum and console. *)
let serve_scheme (cfg : server_config) ~stream scheme exe cells =
  let trigger_of c = server_trigger_of ~requests:cfg.sv_requests c.inj in
  let retired = ref 0L in
  let pending, (machine, kernel, process) =
    climb_ladder
      ~triggers:(List.map trigger_of cells)
      ~boot:(fun () ->
        System.boot_server ?engine:cfg.sv_engine ~shards:cfg.sv_shards
          ~supervision:
            {
              Kernel.max_restarts = cfg.sv_max_restarts;
              Kernel.deadline_cycles = cfg.sv_deadline_cycles;
            }
          ~variant:System.Processor_kernel_modified ~requests:stream exe)
      ~advance:(fun kernel _ k ->
        retired :=
          (Kernel.run_all ~limit:baseline_limit ?time_slice:cfg.sv_time_slice
             ~pause_at_handout:k kernel)
            .Kernel.instructions)
      ~rung:(fun trigger snap ->
        let limit = budget_of ~budget_factor:cfg.sv_budget_factor !retired in
        List.filter_map
          (fun c ->
            if trigger_of c <> trigger then None
            else
              Some
                ( c,
                  c.start (fun ~attempt ->
                      (attempt, fork_cell cfg ~snap ~limit ~trigger c.inj exe)) ))
          cells)
  in
  let outcome = Kernel.run_all ~limit:baseline_limit ?time_slice:cfg.sv_time_slice kernel in
  let ((m, stats) as baseline) = System.measure_server ~machine ~kernel ~process exe outcome in
  check_baseline cfg scheme baseline;
  let budget = budget_of ~budget_factor:cfg.sv_budget_factor m.System.instructions in
  let baseline_results =
    Array.map (fun (rr : Kernel.request_record) -> rr.Kernel.rr_result) stats.System.records
  in
  let row c = function
    | Error row -> row
    | Ok (attempts, (applied, finish)) -> (
      match finish budget with
      | measured -> server_row cfg ~baseline_results ~attempts c.inj scheme !applied measured
      | exception e -> server_failed_row c.inj scheme ~error:(error_text e) ~attempts)
  in
  let index c = c.inj.Server_fault.index in
  List.iter
    (fun (c, started) -> c.settle (row c started, None))
    (List.sort (fun (a, _) (b, _) -> compare (index a) (index b)) (List.concat pending));
  (stats.System.checksum, stats.System.console)

(* ---------- server checkpoint rows ---------- *)

let tally_col key get set =
  int_col key (fun r -> get r.sv_tally) (fun r v -> { r with sv_tally = set r.sv_tally v })

let server_row_columns =
  [
    int_col "index" (fun r -> r.sv_index) (fun r sv_index -> { r with sv_index });
    str_col "scheme" (fun r -> r.sv_scheme) (fun r sv_scheme -> { r with sv_scheme });
    str_col "class" (fun r -> r.sv_cls) (fun r sv_cls -> { r with sv_cls });
    str_col "label" (fun r -> r.sv_label) (fun r sv_label -> { r with sv_label });
    int_col "worker_slot" (fun r -> r.sv_worker) (fun r sv_worker -> { r with sv_worker });
    int_col "trigger" (fun r -> r.sv_trigger) (fun r sv_trigger -> { r with sv_trigger });
    bool_col "applied" (fun r -> r.sv_applied) (fun r sv_applied -> { r with sv_applied });
    int_col "attempts"
      (fun r -> r.sv_cell_attempts)
      (fun r sv_cell_attempts -> { r with sv_cell_attempts });
    column "failed" ~json:Json.bool
      ~tsv:(fun failed -> if failed then "failed" else "ok")
      ~parse:(function "ok" -> Some false | "failed" -> Some true | _ -> None)
      (fun r -> r.sv_failed) (fun r sv_failed -> { r with sv_failed });
    tally_col "served" (fun t -> t.Server_fault.served) (fun t served -> { t with served });
    tally_col "retried" (fun t -> t.retried) (fun t retried -> { t with retried });
    tally_col "duplicated" (fun t -> t.duplicated) (fun t duplicated -> { t with duplicated });
    tally_col "corrupted" (fun t -> t.corrupted) (fun t corrupted -> { t with corrupted });
    tally_col "lost" (fun t -> t.lost) (fun t lost -> { t with lost });
    int_col "restarts" (fun r -> r.sv_restarts) (fun r sv_restarts -> { r with sv_restarts });
    str_col "detail" (fun r -> r.sv_detail) (fun r sv_detail -> { r with sv_detail });
  ]

let blank_server_row =
  { sv_index = 0; sv_scheme = ""; sv_cls = ""; sv_label = ""; sv_worker = 0;
    sv_trigger = 0; sv_applied = false; sv_cell_attempts = 0; sv_failed = false;
    sv_tally = Server_fault.empty_tally; sv_restarts = 0; sv_detail = "" }

(* ---------- the server campaign ---------- *)

let run_server (cfg : server_config) =
  let schemes = cfg.sv_schemes in
  let stream =
    Roload_workloads.Server_like.requests ~seed:cfg.sv_seed ~count:cfg.sv_requests
  in
  let front =
    Toolchain.front_half ~name:"server-chaos"
      (Toolchain.parse
         (Roload_workloads.Server_like.source_workers ~workers:cfg.sv_workers ~scale:1))
  in
  let exes = Parallel.map ?jobs:cfg.sv_jobs (fun s -> (s, compile_scheme front s)) schemes in
  let spec =
    {
      header =
        Printf.sprintf
          "# roload-chaos-server v1 seed=%Ld count=%d requests=%d workers=%d shards=%d \
           restarts=%d deadline=%Ld schemes=%s"
          cfg.sv_seed cfg.sv_count cfg.sv_requests cfg.sv_workers cfg.sv_shards
          cfg.sv_max_restarts cfg.sv_deadline_cycles
          (String.concat "," (List.map Pass.scheme_name schemes));
      applies =
        (fun s (inj : Server_fault.injection) -> server_applicable s inj.Server_fault.kind);
      index_of = (fun (inj : Server_fault.injection) -> inj.Server_fault.index);
      key_of_row = (fun (r : server_row) -> (r.sv_index, r.sv_scheme));
      columns = server_row_columns;
      blank = blank_server_row;
      failed_row = server_failed_row;
      revisit = (fun _ -> false);
      (* per scheme, the serving ladder runs the cells; its end is the
         uninjected baseline *)
      ladder = serve_scheme cfg ~stream;
    }
  in
  let rows, (_ : ((int * string) * unit) list), baselines =
    run_cells spec ~checkpoint:cfg.sv_checkpoint ~resume:cfg.sv_resume
      ~attempts:cfg.sv_attempts ~jobs:cfg.sv_jobs ~sabotage:cfg.sv_sabotage ~max_cells:cfg.sv_max_cells
      ~plan:(Plan.build_server ~seed:cfg.sv_seed ~count:cfg.sv_count)
      exes
  in
  (* the committed results are a pure function of the payloads, so
     every scheme's baseline must agree — a divergence means a
     miscompile, not a chaos finding *)
  (match List.combine schemes baselines with
  | (_, first) :: rest ->
    List.iter
      (fun (s, baseline) ->
        if baseline <> first then
          raise
            (Broken_victim
               (Printf.sprintf "server baseline checksum diverges under %s"
                  (Pass.scheme_name s))))
      rest
  | [] -> ());
  { sv_rows = rows; sv_report_schemes = schemes; sv_report_requests = cfg.sv_requests }

(* ---------- server reporting & gates ---------- *)

let server_tally_of rows =
  List.fold_left
    (fun acc (r : server_row) ->
      {
        Server_fault.served = acc.Server_fault.served + r.sv_tally.Server_fault.served;
        retried = acc.Server_fault.retried + r.sv_tally.Server_fault.retried;
        duplicated = acc.Server_fault.duplicated + r.sv_tally.Server_fault.duplicated;
        corrupted = acc.Server_fault.corrupted + r.sv_tally.Server_fault.corrupted;
        lost = acc.Server_fault.lost + r.sv_tally.Server_fault.lost;
      })
    Server_fault.empty_tally rows

(* The serving-availability table: correct-service percentage over the
   ok/retried/duplicated/corrupted/lost tallies of the cells that ran,
   their restarts, and crashed cells counted apart. *)
let availability_table (rp : server_report) =
  class_grid
    ~title:
      "roload-chaos --server: serving availability by class (correct% over ok / \
       retried / duplicated / corrupted / lost)"
    ~classes:Server_fault.all_class_names ~schemes:rp.sv_report_schemes
    ~key:(fun (r : server_row) -> (r.sv_cls, r.sv_scheme))
    ~cell:(fun rs ->
      let failures = count (fun (r : server_row) -> r.sv_failed) rs in
      let rs = List.filter (fun (r : server_row) -> not r.sv_failed) rs in
      if rs = [] && failures = 0 then "-"
      else begin
        let tl = server_tally_of rs in
        let restarts = List.fold_left (fun a (r : server_row) -> a + r.sv_restarts) 0 rs in
        Printf.sprintf "%.2f%% (%s) %dre%s"
          (100.0 *. Server_fault.availability tl)
          (Server_fault.tally_str tl) restarts
          (if failures > 0 then Printf.sprintf " %dF" failures else "")
      end)
    rp.sv_rows

(* The server release gates: under every ROLoad scheme every cell must
   keep availability at or above the floor with zero corrupted payloads;
   crashed cells are counted separately. *)
type server_gate = {
  sg_low_availability : int;
  sg_corrupted_under_roload : int;
  sg_cell_failures : int;
}

let availability_floor = 0.99

let server_gate (rp : server_report) =
  let under_roload =
    under_roload rp.sv_report_schemes (fun (r : server_row) -> r.sv_scheme)
  in
  {
    sg_low_availability =
      count
        (fun (r : server_row) ->
          under_roload r && (not r.sv_failed)
          && Server_fault.availability r.sv_tally < availability_floor)
        rp.sv_rows;
    sg_corrupted_under_roload =
      count
        (fun (r : server_row) -> under_roload r && r.sv_tally.Server_fault.corrupted > 0)
        rp.sv_rows;
    sg_cell_failures = count (fun (r : server_row) -> r.sv_failed) rp.sv_rows;
  }

let render_server (rp : server_report) =
  let g = server_gate rp in
  Table.render (availability_table rp)
  ^ Printf.sprintf
      "\n\
       cells: %d   requests/cell: %d   low-availability-under-roload: %d   \
       corrupted-under-roload: %d   cell-failures: %d\n"
      (List.length rp.sv_rows) rp.sv_report_requests g.sg_low_availability
      g.sg_corrupted_under_roload g.sg_cell_failures

let server_to_json (rp : server_report) =
  let g = server_gate rp in
  Json.obj
    [
      ( "schemes",
        Json.arr
          (List.map (fun s -> Json.str (Pass.scheme_name s)) rp.sv_report_schemes) );
      ("requests", Json.int rp.sv_report_requests);
      ("low_availability_under_roload", Json.int g.sg_low_availability);
      ("corrupted_under_roload", Json.int g.sg_corrupted_under_roload);
      ("cell_failures", Json.int g.sg_cell_failures);
      ("rows", Json.arr (List.map (row_json server_row_columns) rp.sv_rows));
    ]

(* per-scheme availability over every non-failed cell — pinned exactly
   by test_chaos, and reported by roload_bench as served_ratio_min *)
let served_ratios (rp : server_report) =
  List.map
    (fun s ->
      let name = Pass.scheme_name s in
      let rs =
        List.filter
          (fun (r : server_row) -> String.equal r.sv_scheme name && not r.sv_failed)
          rp.sv_rows
      in
      (name, Server_fault.availability (server_tally_of rs)))
    rp.sv_report_schemes
