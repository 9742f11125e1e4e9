(* roload_chaos — the seeded fault-injection campaign.

   Usage: roload_chaos [--seed N] [--count N] [--scheme S]... [-j N]
                       [--json PATH] [--checkpoint PATH] [--resume]
                       [--attempts N] [--fail-cell IDX] [--max-cells N]
                       [--replay PATH]
                       [--elide] [--from-reset] [--diff-pages]  (classic only)
                       [--server [--requests N] [--workers N] [--shards N]
                                 [--max-restarts N] [--deadline CYCLES]]

   Runs baseline-vs-injected pairs for every plan entry under every
   scheme, prints the detection-coverage table, and exits:

     0  clean — no silent corruption or undetected tampering under the
        ROLoad schemes, no cell failures
     1  findings — silent corruption or undetected tampering under a
        ROLoad scheme (or a replayed reproducer's verdict changed)
     2  usage error (including --elide, --from-reset or --diff-pages
        combined with --server, and --replay combined with any campaign
        flag: --seed, --count, --scheme, -j, --json, --checkpoint,
        --resume, --attempts, --fail-cell, --max-cells, --elide,
        --from-reset, --diff-pages, --server, --requests, --workers,
        --shards, --max-restarts or --deadline)
     3  cell failures — some cells kept crashing and were recorded as
        structured failure rows

   [--server] runs the live-server campaign instead: every cell boots
   the multi-worker request server under supervision, strikes one
   worker mid-stream at a request-count trigger, and classifies every
   request as served / retried / duplicated / corrupted / lost.  Exits:

     0  clean — every roload cell holds the availability floor with
        zero corrupted payloads, no cell failures
     1  findings — a roload cell dropped below the availability floor
        or committed a corrupted payload
     3  cell failures

   [--fail-cell] artificially crashes the cells of one plan index (the
   crash-containment self-test); [--max-cells] stops after N cells to
   simulate a mid-run kill, for exercising [--resume]. *)

open Cmdliner
module Campaign = Roload_inject.Campaign
module Pass = Roload_passes.Pass

let run seed count schemes jobs json checkpoint resume attempts fail_cell max_cells
    replay elide from_reset diff_pages server requests workers shards max_restarts
    deadline =
  match replay with
  | Some _
    when seed <> None || count <> None || schemes <> [] || jobs <> None || json <> None
         || checkpoint <> None || resume || attempts <> None || fail_cell <> None
         || max_cells <> None || elide || from_reset || diff_pages || server
         || requests <> None || workers <> None || shards <> None
         || max_restarts <> None || deadline <> None ->
    prerr_endline
      "--replay re-runs one reproducer (its own seed, entry and schemes) and takes no \
       campaign flag: none of --seed, --count, --scheme, -j, --json, --checkpoint, \
       --resume, --attempts, --fail-cell, --max-cells, --elide, --from-reset, \
       --diff-pages, --server, --requests, --workers, --shards, --max-restarts or \
       --deadline";
    exit 2
  | Some path ->
    let checks = Campaign.replay ~path in
    let bad =
      List.filter
        (fun (c : Campaign.replay_check) -> c.rc_expected <> c.rc_actual)
        checks
    in
    List.iter
      (fun (c : Campaign.replay_check) ->
        Printf.printf "%-8s expected %-18s got %-18s %s\n" c.rc_scheme c.rc_expected
          c.rc_actual
          (if c.rc_expected = c.rc_actual then "ok" else "MISMATCH"))
      checks;
    if bad <> [] then exit 1
  | None ->
    let cfg = Campaign.default_config and sv = Campaign.default_server_config in
    let seed = Option.value seed ~default:cfg.Campaign.seed
    and count = Option.value count ~default:cfg.Campaign.count
    and attempts = Option.value attempts ~default:cfg.Campaign.attempts
    and requests = Option.value requests ~default:sv.Campaign.sv_requests
    and workers = Option.value workers ~default:sv.Campaign.sv_workers
    and shards = Option.value shards ~default:sv.Campaign.sv_shards
    and max_restarts = Option.value max_restarts ~default:sv.Campaign.sv_max_restarts
    and deadline = Option.value deadline ~default:sv.Campaign.sv_deadline_cycles in
    let schemes =
      match schemes with
      | [] -> Campaign.default_schemes
      | names ->
        List.map
          (fun n ->
            match Pass.scheme_of_string n with
            | Some s -> s
            | None ->
              Printf.eprintf "unknown scheme %s\n" n;
              exit 2)
          names
    in
    if server && (elide || from_reset || diff_pages) then begin
      prerr_endline
        "--elide, --from-reset and --diff-pages apply to the classic campaign only, \
         not to --server";
      exit 2
    end;
    let sabotage =
      Option.map
        (fun idx ~index ~scheme:_ ~attempt:_ ->
          if index = idx then failwith "sabotaged cell (--fail-cell)")
        fail_cell
    in
    let write_json doc =
      Option.iter
        (fun path ->
          let oc = open_out path in
          output_string oc doc;
          close_out oc;
          Printf.printf "report written to %s\n" path)
        json
    in
    if server then begin
      let report =
        Campaign.run_server
          {
            Campaign.default_server_config with
            Campaign.sv_seed = seed;
            sv_count = count;
            sv_requests = requests;
            sv_workers = workers;
            sv_shards = shards;
            sv_schemes = schemes;
            sv_attempts = attempts;
            sv_jobs = jobs;
            sv_max_restarts = max_restarts;
            sv_deadline_cycles = deadline;
            sv_checkpoint = checkpoint;
            sv_resume = resume;
            sv_sabotage = sabotage;
            sv_max_cells = max_cells;
          }
      in
      print_string (Campaign.render_server report);
      write_json (Campaign.server_to_json report);
      let g = Campaign.server_gate report in
      if g.Campaign.sg_cell_failures > 0 then exit 3
      else if g.Campaign.sg_low_availability > 0 || g.Campaign.sg_corrupted_under_roload > 0
      then exit 1
    end
    else begin
    let report =
      Campaign.run
        {
          Campaign.default_config with
          Campaign.seed;
          count;
          schemes;
          jobs;
          attempts;
          checkpoint;
          resume;
          sabotage;
          max_cells;
          elide;
          from_reset;
        }
    in
    print_string (Campaign.render report);
    if diff_pages then print_string (Campaign.render_diffs report);
    write_json (Campaign.to_json report);
    let g = Campaign.gate report in
    if g.Campaign.cell_failures > 0 then exit 3
    else if g.Campaign.silent_under_roload > 0 || g.Campaign.undetected_tamper > 0 then
      exit 1
    end

(* Every campaign flag defaults to [None], so [--replay] can tell a flag
   given on the command line from an unset one; the [~none] text is the
   default [run] resolves it to. *)
let defaulted conv default = Arg.some ~none:default conv

let seed_arg =
  Arg.(value
       & opt (defaulted int64 (Int64.to_string Campaign.default_config.Campaign.seed)) None
       & info [ "seed" ] ~doc:"Campaign plan seed (deterministic).")

let count_arg =
  Arg.(value
       & opt (defaulted int (string_of_int Campaign.default_config.Campaign.count)) None
       & info [ "count" ] ~doc:"Plan length (injections per scheme before filtering).")

let scheme_arg =
  Arg.(value
       & opt_all string []
       & info [ "scheme" ] ~docv:"SCHEME"
           ~doc:"Scheme to include (repeatable): none, cfi, vtint, vcall, icall, \
                 retcall. Default: none, cfi, vcall, icall.")

let jobs_arg =
  Arg.(value
       & opt (some int) None
       & info [ "j"; "jobs" ]
           ~doc:"Schemes run in parallel; each runs its own cells in turn (default: \
                 \\$ROLOAD_JOBS, else the recommended domain count). Results are \
                 identical at any job count.")

let json_arg =
  Arg.(value
       & opt (some string) None
       & info [ "json" ] ~docv:"PATH" ~doc:"Write the full row-level report as JSON.")

let checkpoint_arg =
  Arg.(value
       & opt (some string) None
       & info [ "checkpoint" ] ~docv:"PATH"
           ~doc:"Append each cell's row to PATH the moment it settles (incremental \
                 persistence).")

let resume_arg =
  Arg.(value
       & flag
       & info [ "resume" ]
           ~doc:"Skip cells already recorded in the checkpoint; the final report is \
                 byte-identical to an uninterrupted run.")

let attempts_arg =
  Arg.(value
       & opt (defaulted int (string_of_int Campaign.default_config.Campaign.attempts)) None
       & info [ "attempts" ] ~doc:"Deterministic retries per crashing cell.")

let fail_cell_arg =
  Arg.(value
       & opt (some int) None
       & info [ "fail-cell" ] ~docv:"IDX"
           ~doc:"Artificially crash every cell of plan index IDX (containment \
                 self-test).")

let max_cells_arg =
  Arg.(value
       & opt (some int) None
       & info [ "max-cells" ] ~docv:"N"
           ~doc:"Stop after N cells (simulates a mid-run kill; use with --checkpoint \
                 then --resume).")

let replay_arg =
  Arg.(value
       & opt (some string) None
       & info [ "replay" ] ~docv:"PATH"
           ~doc:"Re-run a pinned corpus reproducer and compare verdicts instead of \
                 running a campaign.")

let elide_arg =
  Arg.(value
       & flag
       & info [ "elide" ]
           ~doc:"Compile every victim with proof-guided ld.ro check elision \
                 (roload-prove + roload-elide); the detection-coverage table must be \
                 byte-identical to the unelided campaign.")

let from_reset_arg =
  Arg.(value
       & flag
       & info [ "from-reset" ]
           ~doc:"Boot every cell from reset instead of forking it off the per-scheme \
                 snapshot ladder (the default). Tables, checkpoints and JSON are \
                 byte-identical either way — only the throughput changes.")

let diff_pages_arg =
  Arg.(value
       & flag
       & info [ "diff-pages" ]
           ~doc:"After the coverage table, print the silent-corruption localizer: one \
                 line per page where an injected run's final memory diverged from the \
                 clean baseline, with the first differing byte.")

let server_arg =
  Arg.(value
       & flag
       & info [ "server" ]
           ~doc:"Run the live-server chaos campaign: supervised multi-worker request \
                 serving with mid-stream tamper/kill faults and a per-request \
                 serving-availability table.")

let server_int_arg name field ~doc =
  Arg.(value
       & opt
           (defaulted int (string_of_int (field Campaign.default_server_config)))
           None
       & info [ name ] ~doc)

let requests_arg =
  server_int_arg "requests" (fun c -> c.Campaign.sv_requests)
    ~doc:"Requests in the server stream per cell."

let workers_arg =
  server_int_arg "workers" (fun c -> c.Campaign.sv_workers)
    ~doc:"Forked worker tasks in the server victim."

let shards_arg =
  server_int_arg "shards" (fun c -> c.Campaign.sv_shards)
    ~doc:"Request-device shards (request id mod N; workers steal from dry shards \
          deterministically)."

let max_restarts_arg =
  server_int_arg "max-restarts" (fun c -> c.Campaign.sv_max_restarts)
    ~doc:"Per-worker reincarnation budget."

let deadline_arg =
  Arg.(value
       & opt
           (defaulted int64
              (Int64.to_string Campaign.default_server_config.Campaign.sv_deadline_cycles))
           None
       & info [ "deadline" ] ~docv:"CYCLES"
           ~doc:"Per-request deadline in simulated cycles (0 disables the watchdog).")

let cmd =
  Cmd.v
    (Cmd.info "roload_chaos"
       ~doc:"Seeded fault-injection campaign with crash containment and resume")
    Term.(const run $ seed_arg $ count_arg $ scheme_arg $ jobs_arg $ json_arg
          $ checkpoint_arg $ resume_arg $ attempts_arg $ fail_cell_arg $ max_cells_arg
          $ replay_arg $ elide_arg $ from_reset_arg $ diff_pages_arg $ server_arg
          $ requests_arg $ workers_arg $ shards_arg $ max_restarts_arg $ deadline_arg)

let () = exit (Cmd.eval cmd)
