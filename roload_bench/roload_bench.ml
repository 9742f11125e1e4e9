(* roload_bench: the benchmark harness.

     roload_bench run --workload W --seed N --seconds S --trace 0|1
                      [--quick] [--out DIR]
     roload_bench compare [--benchmark FILE] A.json... -- B.json...
     roload_bench check [--benchmark FILE] RESULTS.json...

   [run] measures one workload in this process and writes one results
   file (plus a Chrome trace when traced); its last stdout line is the
   summary object {correct, attempted, failed, metrics}.  Untraced runs
   report the end-to-end metrics, traced runs the per-layer ones. *)

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("roload_bench: " ^ s);
      exit 2)
    fmt

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* The set-ups [setup_s] is the median of.  All but the last run in
   forked children, before this process has set anything up, so each one
   is cold: it compiles, boots its templates and fills every lazily built
   table itself.  The last one is this process's own.  A set-up takes
   0.05-0.3 s, short enough for one spell of host contention to cover it
   whole, so the median needs five. *)
let setups = 5

let cold_setup_s make ctx =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    (try
       let t0 = Unix.gettimeofday () in
       ignore (make ctx);
       let s = Printf.sprintf "%.17g" (Unix.gettimeofday () -. t0) in
       ignore (Unix.write_substring w s 0 (String.length s));
       Unix._exit 0
     with _ -> Unix._exit 1)
  | pid -> (
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let s = In_channel.input_all ic in
    close_in ic;
    match (snd (Unix.waitpid [] pid), float_of_string_opt s) with
    | Unix.WEXITED 0, Some t -> t
    | _ -> die "a set-up in a child process failed")

(* VmHWM: the high-water resident set of this process (one workload). *)
let peak_rss_mib () =
  let hwm =
    try
      In_channel.with_open_text "/proc/self/status" In_channel.input_all
      |> String.split_on_char '\n'
      |> List.find_map (fun l ->
             match String.split_on_char ':' l with
             | [ "VmHWM"; v ] ->
               Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                   float_of_int kb /. 1024.0)
             | _ -> None)
    with Sys_error _ -> None
  in
  match hwm with Some mib -> mib | None -> die "no VmHWM in /proc/self/status"

let metric_obj l =
  Jsonv.Obj
    (List.map
       (fun (name, v, unit) ->
         (name, Jsonv.Obj [ ("value", Jsonv.Num v); ("unit", Jsonv.Str unit) ]))
       l)

(* ---------- run ---------- *)

let run ~workload ~seed ~seconds ~trace ~quick ~out =
  let make =
    match List.assoc_opt workload Workloads.all with
    | Some f -> f
    | None ->
      die "unknown workload %S (one of %s)" workload
        (String.concat ", " (List.map fst Workloads.all))
  in
  Core.Parallel.set_jobs 1;
  let spans = if trace then Some (Spans.create ()) else None in
  let tick = ref ignore in
  let ctx = { Workloads.seed; seconds; quick; spans; tick = (fun () -> !tick ()) } in
  (* the traced run reports no [setup_s], so it sets up once *)
  let children = if trace then [] else List.init (setups - 1) (fun _ -> cold_setup_s make ctx) in
  let t0 = Unix.gettimeofday () in
  let timed = Spans.with_span spans "bench.setup" (fun () -> make ctx) in
  let setup_runs = children @ [ Unix.gettimeofday () -. t0 ] in
  let pauses =
    if trace then begin
      let p, poll = Probes.gc_watch () in
      tick := poll;
      Some p
    end
    else None
  in
  let gc0 = Gc.quick_stat () in
  let r : Workloads.result = timed () in
  let gc1 = Gc.quick_stat () in
  !tick ();
  let peak = peak_rss_mib () in
  let ops = float_of_int (max 1 r.Workloads.attempted) in
  let ops_per_s = r.Workloads.rate in
  let elapsed = List.fold_left ( +. ) 0.0 r.Workloads.passes in
  let minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words in
  let gc =
    let di f = float_of_int (f gc1 - f gc0) in
    [
      ("gc.minor_words_per_op", minor_words /. ops, "words");
      ("gc.major_words_per_op", (gc1.Gc.major_words -. gc0.Gc.major_words) /. ops, "words");
      ("gc.minor_collections", di (fun g -> g.Gc.minor_collections), "count");
      ("gc.major_collections", di (fun g -> g.Gc.major_collections), "count");
      ( "gc.top_heap_mib",
        float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0,
        "MiB" );
    ]
    @
    match pauses with
    | Some p ->
      [
        ("gc.pause_ms_total", Int64.to_float p.Probes.total_ns /. 1e6, "ms");
        ("gc.pause_max_ms", Int64.to_float p.Probes.max_ns /. 1e6, "ms");
      ]
    | None -> []
  in
  let per_inst =
    match r.Workloads.instructions with
    | Some n when n > 0.0 -> [ ("gc.minor_words_per_inst", minor_words /. n, "words/inst") ]
    | _ -> []
  in
  let stem = Printf.sprintf "%s-seed%Ld" workload seed in
  let results_file traced =
    Filename.concat out
      (Printf.sprintf "%s-%s%s.json" stem
         (if traced then "traced" else "untraced")
         (if quick then "-quick" else ""))
  in
  mkdir_p out;
  (* per-layer probes: after the timed phase, so they never perturb it *)
  let staged_failures, layer, extra =
    match spans with
    | None -> (0, [], [])
    | Some sp ->
      let programs = r.Workloads.programs () in
      let staged = List.map (Probes.staged_compile spans) programs in
      let mismatches = List.length (List.filter (fun s -> not s.Probes.identical) staged) in
      let counters =
        match r.Workloads.counters with
        | Some c when c.Probes.runs > 0 -> c
        | _ -> Probes.run_programs spans ?hot_threshold:r.Workloads.hot_threshold programs
      in
      let micro = Probes.micro ~quick programs in
      ( mismatches,
        (("bench.traced_ops_per_s", ops_per_s, "1/s") :: Probes.toolchain_metrics sp staged)
        @ Probes.machine_metrics sp counters @ micro,
        r.Workloads.probe_detail () )
  in
  let failed = r.Workloads.failed + staged_failures in
  let failures =
    r.Workloads.failures
    @
    if staged_failures = 0 then []
    else [ Printf.sprintf "%d staged compiles differ from Toolchain.compile_exe" staged_failures ]
  in
  let metrics =
    if trace then layer @ gc
    else
      [
        ("setup_s", Judge.median setup_runs, "s");
        ("ops_per_s", ops_per_s, "1/s");
        ("peak_rss_mib", peak, "MiB");
      ]
  in
  let detail =
    (* against the untraced run of the same workload and seed, if any *)
    let overhead =
      let untraced = results_file false in
      if trace && Sys.file_exists untraced then
        match Jsonv.member "ops_per_s" (Jsonv.member "metrics" (Jsonv.of_file untraced)) with
        | Jsonv.Obj _ as m ->
          let base = Jsonv.to_num (Jsonv.member "value" m) in
          [ ("bench.trace_overhead_pct", 100.0 *. ((base /. ops_per_s) -. 1.0), "%") ]
        | _ -> []
      else []
    in
    (* the GC tallies are deterministic evidence for wall-clock claims,
       so the untraced run keeps them too *)
    r.Workloads.detail @ (if trace then [] else gc) @ per_inst @ extra @ overhead
  in
  let trace_file, self_time, events_lost =
    match (spans, pauses) with
    | Some sp, Some p ->
      let all = Spans.spans sp in
      let file = Filename.concat out (stem ^ ".trace.json") in
      write_file file (Spans.chrome_json all);
      let table = Spans.layer_table all in
      let total = List.fold_left (fun a (_, t, _) -> a +. t) 0.0 table in
      ( Jsonv.Str file,
        Jsonv.Arr
          (List.map
             (fun (layer, t, n) ->
               Jsonv.Obj
                 [
                   ("layer", Jsonv.Str layer);
                   ("self_ms", Jsonv.Num (t *. 1e3));
                   ("share", Jsonv.Num (if total > 0.0 then t /. total else 0.0));
                   ("spans", Jsonv.Num (float_of_int n));
                 ])
             table),
        Jsonv.Num (float_of_int p.Probes.lost) )
    | _ -> (Jsonv.Null, Jsonv.Arr [], Jsonv.Null)
  in
  let correct = failed = 0 in
  let doc =
    Jsonv.Obj
      [
        ("workload", Jsonv.Str workload);
        ("seed", Jsonv.Num (Int64.to_float seed));
        ("seconds", Jsonv.Num seconds);
        ("trace", Jsonv.Bool trace);
        ("quick", Jsonv.Bool quick);
        ("correct", Jsonv.Bool correct);
        ("attempted", Jsonv.Num (float_of_int r.Workloads.attempted));
        ("failed", Jsonv.Num (float_of_int failed));
        ("metrics", metric_obj metrics);
        ("exact", metric_obj r.Workloads.exact);
        ("sim_digest", Jsonv.Str r.Workloads.digest);
        ("setup_runs_s", Jsonv.Arr (List.map (fun x -> Jsonv.Num x) setup_runs));
        ("passes_s", Jsonv.Arr (List.map (fun x -> Jsonv.Num x) r.Workloads.passes));
        ("detail", metric_obj detail);
        ("self_time", self_time);
        ("gc_events_lost", events_lost);
        ("trace_file", trace_file);
        ("failures", Jsonv.Arr (List.map (fun s -> Jsonv.Str s) failures));
      ]
  in
  let results = results_file trace in
  write_file results (Jsonv.to_string doc ^ "\n");
  Printf.printf "roload_bench %s seed %Ld%s: %d ops in %d passes, %.2f s, %d failed\n" workload
    seed
    (if trace then " (traced)" else "")
    r.Workloads.attempted (List.length r.Workloads.passes) elapsed failed;
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) failures;
  let show (n, v, u) = Printf.printf "  %-34s %14.6g %s\n" n v u in
  List.iter show metrics;
  print_endline "  exact (deterministic for the seed):";
  List.iter show r.Workloads.exact;
  Printf.printf "  sim_digest %s\n  results %s\n" r.Workloads.digest results;
  print_endline
    (Jsonv.to_string
       (Jsonv.Obj
          [
            ("correct", Jsonv.Bool correct);
            ("attempted", Jsonv.Num (float_of_int r.Workloads.attempted));
            ("failed", Jsonv.Num (float_of_int failed));
            ("metrics", metric_obj metrics);
          ]))

(* ---------- compare / check ---------- *)

let load_results files = List.map (fun f -> (f, Jsonv.of_file f)) files

let compare_cmd ~benchmark files =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | f :: rest -> split (f :: acc) rest
    | [] -> die "compare: expected A files, then --, then B files"
  in
  let a, b = split [] files in
  if a = [] || b = [] then die "compare: both sets need at least one results file";
  let runs fs = List.map (fun (_, j) -> Judge.run_of_json j) (load_results fs) in
  let specs = Judge.specs_of_benchmark (Jsonv.of_file benchmark) in
  let report = Judge.compare specs ~a:(runs a) ~b:(runs b) in
  print_string (Judge.render report);
  exit (if Judge.passed report then 0 else 1)

(* The smoke assertions: no failed op, every metric BENCHMARK.json
   declares is present (end-to-end when untraced, per-layer when traced)
   for a workload it declares, and a traced run lost no GC event. *)
let check_cmd ~benchmark files =
  let doc = Jsonv.of_file benchmark in
  let names field =
    List.map
      (fun m -> Jsonv.to_str (Jsonv.member "name" m))
      (Jsonv.to_list (Jsonv.member field doc))
  in
  let workloads = names "workloads" in
  let problems =
    List.concat_map
      (fun (file, j) ->
        let traced = Jsonv.member "trace" j = Jsonv.Bool true in
        let present = List.map fst (Jsonv.to_assoc (Jsonv.member "metrics" j)) in
        let wanted = names (if traced then "per_layer" else "end_to_end") in
        let w = Jsonv.to_str (Jsonv.member "workload" j) in
        let failed = Jsonv.to_num (Jsonv.member "failed" j) in
        (if List.mem w workloads then []
         else [ Printf.sprintf "%s: workload %s not declared" file w ])
        @ (if failed = 0.0 then [] else [ Printf.sprintf "%s: %g failed ops" file failed ])
        @ (match Jsonv.member "gc_events_lost" j with
          | Jsonv.Num 0.0 -> []
          | Jsonv.Null when not traced -> []
          | v -> [ Printf.sprintf "%s: gc_events_lost is %s" file (Jsonv.to_string v) ])
        @ List.filter_map
            (fun n ->
              if List.mem n present then None
              else Some (Printf.sprintf "%s: metric %s missing" file n))
            wanted)
      (load_results files)
  in
  List.iter print_endline problems;
  Printf.printf "checked %d results files: %s\n" (List.length files)
    (if problems = [] then "ok" else "FAIL");
  exit (if problems = [] then 0 else 1)

(* ---------- command line ---------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | ("--workload" | "--seed" | "--seconds" | "--trace" | "--out" | "--benchmark") as k :: v :: rest
      ->
      opts ((k, v) :: acc) rest
    | "--quick" :: rest -> opts (("--quick", "1") :: acc) rest
    | rest -> (acc, rest)
  in
  let opt o k default = Option.value ~default (List.assoc_opt k o) in
  let num conv k v = match conv v with Some x -> x | None -> die "bad %s %S" k v in
  match args with
  | "run" :: rest ->
    let o, extra = opts [] rest in
    if extra <> [] then die "run: unexpected %s" (String.concat " " extra);
    let workload =
      match List.assoc_opt "--workload" o with
      | Some w -> w
      | None -> die "run: --workload is required"
    in
    run ~workload
      ~seed:(num Int64.of_string_opt "--seed" (opt o "--seed" "1"))
      ~seconds:(num float_of_string_opt "--seconds" (opt o "--seconds" "20"))
      ~trace:
        (match opt o "--trace" "0" with
        | "0" -> false
        | "1" -> true
        | v -> die "bad --trace %S" v)
      ~quick:(List.mem_assoc "--quick" o)
      ~out:(opt o "--out" ".roload_bench")
  | "compare" :: rest ->
    let o, files = opts [] rest in
    compare_cmd ~benchmark:(opt o "--benchmark" "BENCHMARK.json") files
  | "check" :: rest ->
    let o, files = opts [] rest in
    check_cmd ~benchmark:(opt o "--benchmark" "BENCHMARK.json") files
  | _ ->
    prerr_string
      "usage: roload_bench run --workload W --seed N --seconds S --trace 0|1\n\
      \                          [--quick] [--out DIR]\n\
      \       roload_bench compare [--benchmark FILE] A.json... -- B.json...\n\
      \       roload_bench check [--benchmark FILE] RESULTS.json...\n";
    exit 2
