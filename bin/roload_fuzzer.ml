(* roload-fuzz — differential conformance fuzzing against the IR oracle.

   Usage:
     roload-fuzz --seed 1 --count 2000              # fixed-seed campaign
     roload-fuzz --count 200 --time-budget 60       # time-bounded smoke run
     roload-fuzz --scheme icall --count 500         # focus one scheme
     roload-fuzz --engine traced --matrix out.tsv   # one engine, timing-free matrix
     roload-fuzz --check-oracle                     # mutation self-check
     roload-fuzz --replay corpus/foo.mc             # re-check a reproducer
     roload-fuzz --json ...                         # machine-readable report

   Every failure line carries the case seed: `--seed N --count 1` with the
   printed seed replays exactly that program. *)

open Cmdliner
module Pass = Roload_passes.Pass
module Prng = Roload_util.Prng
module Gen = Roload_fuzz.Gen
module Diff = Roload_fuzz.Diff
module Shrink = Roload_fuzz.Shrink
module Ir_eval = Roload_fuzz.Ir_eval

let scheme_name = Pass.scheme_name

let stop_line scheme (b : Ir_eval.behavior) =
  Printf.sprintf "%s\t%s\t%s" (scheme_name scheme)
    (Roload_security.Trapclass.stop_name b.Ir_eval.stop)
    (String.escaped b.Ir_eval.output)

let expected_lines behaviors =
  String.concat "" (List.map (fun (s, b) -> stop_line s b ^ "\n") behaviors)

let json_escape = Roload_util.Json.escape

type tally = {
  mutable cases : int;
  mutable agreed : int;
  mutable skipped : int;
  mutable divergent : int;
  mutable failures : (int64 * Diff.divergence * string) list; (* seed, what, reproducer *)
}

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let shrink_failure ~schemes ~engines prog (d : Diff.divergence) =
  let still_failing candidate =
    match
      Diff.run_source ~schemes ~engines ~name:"shrink" (Gen.to_source candidate)
    with
    | Diff.Divergent d' -> d'.Diff.dv_scheme = d.Diff.dv_scheme
    | Diff.Agree _ | Diff.Skipped _ -> false
  in
  Shrink.shrink ~still_failing prog

let save_reproducer ~corpus_dir ~seed prog =
  (try Unix.mkdir corpus_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let base = Filename.concat corpus_dir (Printf.sprintf "fuzz-%Ld" seed) in
  let source = Shrink.reproducer_source prog in
  write_file (base ^ ".mc") source;
  (match Diff.oracle_behaviors (Gen.to_source prog) with
  | behaviors -> write_file (base ^ ".expected") (expected_lines behaviors)
  | exception _ -> ());
  base ^ ".mc"

let report_json t ~seed ~elapsed =
  let fail_json (fseed, (d : Diff.divergence), repro) =
    Printf.sprintf
      {|    {"seed": %Ld, "scheme": "%s", "stage": "%s", "expected": "%s", "actual": "%s", "reproducer": "%s"}|}
      fseed (scheme_name d.Diff.dv_scheme) d.Diff.dv_stage
      (json_escape d.Diff.dv_expected) (json_escape d.Diff.dv_actual)
      (json_escape repro)
  in
  Printf.printf
    {|{
  "seed": %Ld,
  "cases": %d,
  "agreed": %d,
  "skipped": %d,
  "divergent": %d,
  "elapsed_s": %.1f,
  "divergences": [
%s
  ]
}
|}
    seed t.cases t.agreed t.skipped t.divergent elapsed
    (String.concat ",\n" (List.rev_map fail_json t.failures))

let fuzz_loop ~seed ~count ~time_budget ~schemes ~engines ~size ~json ~corpus_dir
    ~sabotage ~stop_on_divergence ~elide ~matrix =
  let rng = Prng.create seed in
  let t = { cases = 0; agreed = 0; skipped = 0; divergent = 0; failures = [] } in
  (* the per-case outcome matrix: one deterministic, timing-free line per
     case, so two campaigns (e.g. elided vs unelided builds) can be
     compared byte-for-byte *)
  let matrix_lines = ref [] in
  let record_matrix case_seed outcome =
    if matrix <> None then matrix_lines := Printf.sprintf "%Ld\t%s" case_seed outcome :: !matrix_lines
  in
  let t0 = Unix.gettimeofday () in
  let within_budget () =
    match time_budget with
    | None -> true
    | Some s -> Unix.gettimeofday () -. t0 < float_of_int s
  in
  let i = ref 0 in
  while
    !i < count && within_budget ()
    && not (stop_on_divergence && t.divergent > 0)
  do
    incr i;
    let case_seed = Prng.next_int64 rng in
    let case_size = 1 + Prng.next_int rng size in
    let prog = Gen.generate ~seed:case_seed ~size:case_size in
    t.cases <- t.cases + 1;
    (match
       Diff.run_source ~schemes ~engines ~elide ?sabotage ~name:"fuzz"
         (Gen.to_source prog)
     with
    | Diff.Agree _ ->
      t.agreed <- t.agreed + 1;
      record_matrix case_seed "agree"
    | Diff.Skipped r ->
      t.skipped <- t.skipped + 1;
      record_matrix case_seed ("skip\t" ^ r);
      if not json then
        Printf.printf "case %d seed=%Ld: skipped (%s)\n%!" !i case_seed r
    | Diff.Divergent d ->
      t.divergent <- t.divergent + 1;
      record_matrix case_seed
        (Printf.sprintf "divergent\t%s\t%s" (scheme_name d.Diff.dv_scheme) d.Diff.dv_stage);
      let repro =
        if sabotage = None then begin
          let shrunk = shrink_failure ~schemes ~engines prog d in
          save_reproducer ~corpus_dir ~seed:case_seed shrunk
        end
        else "(check-oracle: not saved)"
      in
      t.failures <- (case_seed, d, repro) :: t.failures;
      if not json then
        Printf.printf
          "case %d DIVERGENCE seed=%Ld scheme=%s stage=%s\n  expected %s\n  actual   %s\n  reproducer: %s\n  replay: roload-fuzz --seed %Ld --count 1\n%!"
          !i case_seed (scheme_name d.Diff.dv_scheme) d.Diff.dv_stage
          d.Diff.dv_expected d.Diff.dv_actual repro case_seed);
    if (not json) && !i mod 100 = 0 then
      Printf.printf "... %d cases (%d agreed, %d skipped, %d divergent)\n%!" !i
        t.agreed t.skipped t.divergent
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  (match matrix with
  | None -> ()
  | Some path ->
    write_file path (String.concat "" (List.rev_map (fun l -> l ^ "\n") !matrix_lines));
    if not json then Printf.printf "matrix written to %s\n" path);
  if json then report_json t ~seed ~elapsed
  else
    Printf.printf "%d cases in %.1fs: %d agreed, %d skipped, %d divergent (seed %Ld)\n"
      t.cases elapsed t.agreed t.skipped t.divergent seed;
  t

(* ---- corpus distillation ----

   Sweep generated cases, keep the first representative of every distinct
   per-scheme outcome signature (which schemes trap, and how), shrink it
   down to the chunks that still produce that signature, and pin the
   shrunk program's full oracle behavior in a .expected file.  This is
   how the checked-in corpus/ regression programs were produced. *)

let signature_of behaviors =
  List.map
    (fun (s, b) ->
      ( s,
        match b.Ir_eval.stop with
        | Roload_security.Trapclass.Exit _ -> "exit"
        | st -> Roload_security.Trapclass.stop_name st ))
    behaviors

let distill ~seed ~count ~size ~corpus_dir ~want =
  let rng = Prng.create seed in
  let seen = Hashtbl.create 16 in
  let found = ref 0 in
  let i = ref 0 in
  while !found < want && !i < count do
    incr i;
    let case_seed = Prng.next_int64 rng in
    let case_size = 1 + Prng.next_int rng size in
    let prog = Gen.generate ~seed:case_seed ~size:case_size in
    match Diff.run_source ~name:"distill" (Gen.to_source prog) with
    | Diff.Agree behaviors ->
      let sg = signature_of behaviors in
      if not (Hashtbl.mem seen sg) then begin
        Hashtbl.add seen sg ();
        incr found;
        let keeps candidate =
          match Diff.run_source ~name:"distill" (Gen.to_source candidate) with
          | Diff.Agree b -> signature_of b = sg
          | Diff.Skipped _ | Diff.Divergent _ -> false
        in
        let shrunk = Shrink.shrink ~still_failing:keeps prog in
        let path = save_reproducer ~corpus_dir ~seed:case_seed shrunk in
        Printf.printf "distilled %s (%s)\n%!" path
          (String.concat " "
             (List.map (fun (s, c) -> scheme_name s ^ ":" ^ c) sg))
      end
    | Diff.Skipped _ | Diff.Divergent _ -> ()
  done;
  Printf.printf "distill: %d signatures from %d cases\n" !found !i;
  if !found < want then 1 else 0

let replay ~json path =
  let source = read_file path in
  match Diff.run_source ~name:(Filename.basename path) source with
  | Diff.Skipped r ->
    Printf.eprintf "replay %s: skipped (%s)\n" path r;
    2
  | Diff.Divergent d ->
    Printf.printf
      "replay %s: DIVERGENCE scheme=%s stage=%s\n  expected %s\n  actual   %s\n" path
      (scheme_name d.Diff.dv_scheme) d.Diff.dv_stage d.Diff.dv_expected d.Diff.dv_actual;
    1
  | Diff.Agree behaviors ->
    let got = expected_lines behaviors in
    if not json then print_string got;
    let expected_path = Filename.remove_extension path ^ ".expected" in
    if Sys.file_exists expected_path then begin
      let want = read_file expected_path in
      if String.equal want got then begin
        Printf.printf "replay %s: conforming, matches %s\n" path expected_path;
        0
      end
      else begin
        Printf.printf "replay %s: conforming but deviates from %s\n--- want\n%s--- got\n%s"
          path expected_path want got;
        1
      end
    end
    else begin
      Printf.printf "replay %s: conforming (no .expected to compare)\n" path;
      0
    end

let main seed count time_budget scheme_opt engine_opt size json check_oracle
    corpus_dir replay_path distill_want elide matrix =
  let schemes =
    match scheme_opt with
    | None -> Diff.schemes_under_test
    | Some s -> (
      match Pass.scheme_of_string s with
      | Some sch -> [ sch ]
      | None ->
        Printf.eprintf "unknown scheme %s (expected none|vcall|icall|retcall|vtint|cfi)\n" s;
        exit 2)
  in
  let engines =
    match engine_opt with
    | None -> Diff.engines_under_test
    | Some s -> (
      match Roload_machine.Machine.engine_of_string s with
      | Ok e -> [ e ]
      | Error msg ->
        prerr_endline msg;
        exit 2)
  in
  match replay_path with
  | Some path -> exit (replay ~json path)
  | None when distill_want <> None ->
    ignore schemes;
    let want = Option.get distill_want in
    exit (distill ~seed ~count ~size ~corpus_dir ~want)
  | None ->
    if check_oracle then begin
      (* plant a known miscompile (drop one GFPT redirect under ICall) and
         verify the fuzzer flags it within the case budget *)
      let schemes =
        if List.mem Pass.Icall schemes then schemes else Pass.Icall :: schemes
      in
      let t =
        fuzz_loop ~seed ~count ~time_budget ~schemes ~engines ~size ~json ~corpus_dir
          ~sabotage:(Some Diff.sabotage_drop_gfpt) ~stop_on_divergence:true ~elide
          ~matrix
      in
      if t.divergent > 0 then begin
        if not json then
          Printf.printf "check-oracle: planted miscompile caught after %d cases\n" t.cases;
        exit 0
      end
      else begin
        Printf.eprintf
          "check-oracle: planted miscompile NOT caught in %d cases — oracle or runner is blind\n"
          t.cases;
        exit 1
      end
    end
    else begin
      let t =
        fuzz_loop ~seed ~count ~time_budget ~schemes ~engines ~size ~json ~corpus_dir
          ~sabotage:None ~stop_on_divergence:false ~elide ~matrix
      in
      exit (if t.divergent > 0 then 1 else 0)
    end

let seed_arg =
  Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed; every case seed derives from it deterministically.")

let count_arg =
  Arg.(value & opt int 100 & info [ "count" ] ~docv:"N" ~doc:"Maximum number of generated cases.")

let budget_arg =
  Arg.(value & opt (some int) None & info [ "time-budget" ] ~docv:"SEC" ~doc:"Stop after this many seconds even if --count is not reached.")

let scheme_arg =
  Arg.(value & opt (some string) None & info [ "scheme" ] ~docv:"SCHEME" ~doc:"Restrict the differential check to one scheme (default: the full evaluation matrix).")

let engine_arg =
  Arg.(value & opt (some string) None
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Restrict the machine side of the differential check to one execution \
                 engine (single or traced; default: both).")

let size_arg =
  Arg.(value & opt int 6 & info [ "size" ] ~docv:"N" ~doc:"Upper bound on program size (number of optional chunks).")

let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON report.")

let check_oracle_arg =
  Arg.(value & flag & info [ "check-oracle" ] ~doc:"Mutation self-check: plant a known ICall miscompile and verify the fuzzer catches it.")

let corpus_arg =
  Arg.(value & opt string "corpus" & info [ "corpus" ] ~docv:"DIR" ~doc:"Directory for shrunk reproducers.")

let distill_arg =
  Arg.(value & opt (some int) None & info [ "distill" ] ~docv:"N" ~doc:"Distill N outcome-signature-distinct shrunk programs into --corpus with pinned .expected files, then exit.")

let replay_arg =
  Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"FILE.mc" ~doc:"Differentially re-check one MiniC file (compared against FILE.expected when present).")

let elide_arg =
  Arg.(value & flag
       & info [ "elide" ]
           ~doc:"Compile every case with proof-guided ld.ro check elision (roload-prove + \
                 roload-elide); the oracle is unchanged, so any behavioral effect of the \
                 rewrite surfaces as a divergence.")

let matrix_arg =
  Arg.(value & opt (some string) None
       & info [ "matrix" ] ~docv:"PATH"
           ~doc:"Write a deterministic, timing-free per-case outcome matrix (one \
                 seed/outcome line per case) to PATH — byte-comparable across campaigns, \
                 e.g. --elide vs plain.")

let cmd =
  let doc = "differential conformance fuzzing with a reference IR interpreter oracle" in
  Cmd.v
    (Cmd.info "roload-fuzz" ~doc)
    Term.(
      const main $ seed_arg $ count_arg $ budget_arg $ scheme_arg $ engine_arg
      $ size_arg $ json_arg $ check_oracle_arg $ corpus_arg $ replay_arg
      $ distill_arg $ elide_arg $ matrix_arg)

let () = exit (Cmd.eval cmd)
