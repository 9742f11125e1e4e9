(* The benchmark's own arithmetic: the compare rule and span self time. *)

let ops =
  { Judge.name = "ops_per_s"; unit_ = "1/s"; better = Judge.Higher; bound = 0.10; floor = 0.0 }
let verdict = Alcotest.testable (Fmt.of_to_string Judge.verdict_name) ( = )
let judge a b = fst (Judge.judge ops ~a ~b)

let run ?(failed = 0) ?(digest = "d") ?(exact = [ ("sim_cycles", 100.0) ]) seed v =
  {
    Judge.workload = "spec";
    seed;
    attempted = 100;
    failed;
    metrics = [ ("ops_per_s", v) ];
    exact;
    digest;
  }

let test_quartiles () =
  (* the values Python's statistics.quantiles(n=4) gives *)
  let q = Alcotest.(triple (float 1e-12) (float 1e-12) (float 1e-12)) in
  Alcotest.check q "1..10" (2.75, 5.5, 8.25)
    (Judge.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check q "three" (1.0, 2.0, 3.0) (Judge.quartiles [ 3.0; 1.0; 2.0 ]);
  Alcotest.check q "two" (4.5, 6.0, 7.5) (Judge.quartiles [ 5.0; 7.0 ]);
  Alcotest.check q "one" (4.0, 4.0, 4.0) (Judge.quartiles [ 4.0 ])

let test_rule () =
  Alcotest.check verdict "win: every B run beats every A run" Judge.Ok
    (judge [ 100.; 101.; 102.; 99.; 100. ] [ 120.; 121.; 119.; 122.; 120. ]);
  Alcotest.check verdict "tie" Judge.Ok
    (judge [ 100.; 101.; 102.; 99.; 100. ] [ 100.; 101.; 102.; 99.; 100. ]);
  Alcotest.check verdict "within the bound" Judge.Ok
    (judge [ 100.; 101.; 102.; 99.; 100. ] [ 95.; 96.; 94.; 95.; 95. ]);
  Alcotest.check verdict "worse by more than the bound" Judge.Regressed
    (judge [ 100.; 101.; 102.; 99.; 100. ] [ 80.; 81.; 79.; 80.; 80. ]);
  Alcotest.check verdict "spread wider than the bound" Judge.Unresolved
    (judge [ 60.; 100.; 140.; 80.; 120. ] [ 50.; 90.; 130.; 70.; 110. ]);
  Alcotest.check verdict "wide spread, but B wins every pair" Judge.Ok
    (judge [ 60.; 100.; 80. ] [ 150.; 200.; 250. ]);
  let lower = { ops with Judge.better = Judge.Lower } in
  Alcotest.check verdict "lower is better" Judge.Regressed
    (fst (Judge.judge lower ~a:[ 1.0; 1.0; 1.0 ] ~b:[ 1.2; 1.2; 1.2 ]));
  let setup = { lower with Judge.name = "setup_s"; floor = 0.1 } in
  Alcotest.check verdict "set-up worse by more than the bound, under the floor" Judge.Ok
    (fst (Judge.judge setup ~a:[ 0.05; 0.05; 0.05 ] ~b:[ 0.09; 0.09; 0.09 ]));
  Alcotest.check verdict "set-up worse by more than the bound and the floor" Judge.Regressed
    (fst (Judge.judge setup ~a:[ 1.0; 1.0; 1.0 ] ~b:[ 1.2; 1.2; 1.2 ]))

let test_compare () =
  let a = [ run 1 100.; run 2 101.; run 3 99. ] in
  let same = Judge.compare [ ops ] ~a ~b:[ run 1 100.; run 2 100.; run 3 101. ] in
  Alcotest.(check bool) "same code passes" true (Judge.passed same);
  let drift = Judge.compare [ ops ] ~a ~b:[ run ~exact:[ ("sim_cycles", 101.0) ] 2 100. ] in
  Alcotest.(check bool) "exact metric mismatch fails" false (Judge.passed drift);
  Alcotest.(check int) "one mismatch" 1 (List.length drift.Judge.mismatches);
  let digest = Judge.compare [ ops ] ~a ~b:[ run ~digest:"e" 3 100. ] in
  Alcotest.(check bool) "digest mismatch fails" false (Judge.passed digest);
  let other_seed = Judge.compare [ ops ] ~a ~b:[ run ~digest:"e" 9 100. ] in
  Alcotest.(check bool) "no common seed: exact not compared" true (Judge.passed other_seed);
  let fails = Judge.compare [ ops ] ~a ~b:[ run ~failed:1 1 100.; run 2 100. ] in
  Alcotest.(check bool) "failed share increase fails" false (Judge.passed fails);
  Alcotest.(check int) "one workload" 1 (List.length fails.Judge.fail_increases)

let span name start stop parent = { Spans.name; start; stop; parent; op = -1 }
let float = Alcotest.(array (float 1e-9))

let test_self_time () =
  Alcotest.check float "nested" [| 7.0; 2.0; 1.0 |]
    (Spans.self_times [| span "a" 0. 10. (-1); span "b" 2. 5. 0; span "c" 3. 4. 1 |]);
  Alcotest.check float "disjoint siblings" [| 7.0; 2.0; 1.0 |]
    (Spans.self_times [| span "a" 0. 10. (-1); span "b" 1. 3. 0; span "c" 5. 6. 0 |]);
  Alcotest.check float "overlapping siblings count once" [| 5.0; 2.0; 4.0 |]
    (Spans.self_times [| span "a" 0. 10. (-1); span "b" 1. 3. 0; span "c" 2. 6. 0 |]);
  let table =
    Spans.layer_table
      [| span "kernel.run" 0. 10. (-1); span "machine.create" 1. 4. 0; span "kernel.load" 5. 6. 0 |]
  in
  Alcotest.(check (list (triple string (float 1e-9) int)))
    "per layer" [ ("kernel", 7.0, 2); ("machine", 3.0, 1) ] table

let test_json () =
  let doc =
    Jsonv.Obj
      [
        ("a", Jsonv.Num 0.1);
        ("b", Jsonv.Num 1234.0);
        ("c", Jsonv.Arr [ Jsonv.Bool true; Jsonv.Null ]);
        ("d", Jsonv.Str "q\"\n\\");
        ("e", Jsonv.Num 1.0000000000000002);
      ]
  in
  Alcotest.(check bool) "round trip" true (Jsonv.parse (Jsonv.to_string doc) = doc);
  Alcotest.(check bool) "rejects trailing garbage" true
    (match Jsonv.parse "{} x" with _ -> false | exception Jsonv.Parse_error _ -> true)

let () =
  Alcotest.run "roload_bench"
    [
      ( "compare",
        [
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "rule" `Quick test_rule;
          Alcotest.test_case "sets" `Quick test_compare;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "json" `Quick test_json;
        ] );
    ]
