type better = Lower | Higher

type spec = { name : string; unit_ : string; better : better; bound : float; floor : float }

(* A set-up of a few tens of milliseconds moves by more than its bound
   on host noise alone, so [setup_s] must also worsen by 0.1 s. *)
let floor_of = function "setup_s" -> 0.1 | _ -> 0.0

let specs_of_benchmark doc =
  List.map
    (fun m ->
      let name = Jsonv.to_str (Jsonv.member "name" m) in
      {
        name;
        floor = floor_of name;
        unit_ = Jsonv.to_str (Jsonv.member "unit" m);
        better =
          (match Jsonv.to_str (Jsonv.member "better" m) with
          | "lower" -> Lower
          | "higher" -> Higher
          | s -> raise (Jsonv.Parse_error ("better must be lower or higher, not " ^ s)));
        bound = Jsonv.to_num (Jsonv.member "bound" m);
      })
    (Jsonv.to_list (Jsonv.member "end_to_end" doc))

type run = {
  workload : string;
  seed : int;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  exact : (string * float) list;
  digest : string;
}

let run_of_json j =
  let nums field =
    List.map
      (fun (k, v) -> (k, Jsonv.to_num (Jsonv.member "value" v)))
      (Jsonv.to_assoc (Jsonv.member field j))
  in
  {
    workload = Jsonv.to_str (Jsonv.member "workload" j);
    seed = int_of_float (Jsonv.to_num (Jsonv.member "seed" j));
    attempted = int_of_float (Jsonv.to_num (Jsonv.member "attempted" j));
    failed = int_of_float (Jsonv.to_num (Jsonv.member "failed" j));
    metrics = nums "metrics";
    exact = nums "exact";
    digest = Jsonv.to_str (Jsonv.member "sim_digest" j);
  }

let quartiles values =
  let data = Array.of_list (List.sort compare values) in
  let ld = Array.length data in
  if ld = 0 then invalid_arg "Judge.quartiles: no values"
  else if ld = 1 then (data.(0), data.(0), data.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((data.(j - 1) *. float_of_int (4 - delta)) +. (data.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median values =
  let _, m, _ = quartiles values in
  m

type verdict = Ok | Regressed | Unresolved

let verdict_name = function Ok -> "ok" | Regressed -> "regressed" | Unresolved -> "unresolved"

let spread (q1, med, q3) = if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med

let judge spec ~a ~b =
  let (_, ma, _) as qa = quartiles a and ((_, mb, _) as qb) = quartiles b in
  let sign = match spec.better with Lower -> 1.0 | Higher -> -1.0 in
  let change = if ma = 0.0 then 0.0 else sign *. (mb -. ma) /. Float.abs ma in
  let beats y x = match spec.better with Lower -> y < x | Higher -> y > x in
  let every_b_wins = List.for_all (fun y -> List.for_all (fun x -> beats y x) a) b in
  let verdict =
    if every_b_wins || (spec.floor > 0.0 && change *. Float.abs ma <= spec.floor) then Ok
    else if Float.max (spread qa) (spread qb) > spec.bound then Unresolved
    else if change > spec.bound then Regressed
    else Ok
  in
  (verdict, change)

type line = {
  l_workload : string;
  l_metric : string;
  l_a : float * float * float;
  l_b : float * float * float;
  l_change : float;
  l_bound : float;
  l_verdict : verdict;
}

type report = {
  lines : line list;
  mismatches : string list;
  fail_increases : string list;
  notes : string list;
}

let uniq l = List.sort_uniq compare l

let compare specs ~a ~b =
  let workloads = uniq (List.map (fun r -> r.workload) (a @ b)) in
  let of_w w rs = List.filter (fun r -> String.equal r.workload w) rs in
  let lines = ref [] and mismatches = ref [] and fails = ref [] and notes = ref [] in
  List.iter
    (fun w ->
      let ra = of_w w a and rb = of_w w b in
      if ra = [] || rb = [] then
        notes := Printf.sprintf "%s: runs on one side only, not compared" w :: !notes
      else begin
        List.iter
          (fun spec ->
            let values rs = List.filter_map (fun r -> List.assoc_opt spec.name r.metrics) rs in
            match (values ra, values rb) with
            | [], _ | _, [] ->
              notes := Printf.sprintf "%s: %s missing on one side" w spec.name :: !notes
            | va, vb ->
              let verdict, change = judge spec ~a:va ~b:vb in
              lines :=
                {
                  l_workload = w;
                  l_metric = spec.name;
                  l_a = quartiles va;
                  l_b = quartiles vb;
                  l_change = change;
                  l_bound = spec.bound;
                  l_verdict = verdict;
                }
                :: !lines)
          specs;
        let share rs =
          let att = List.fold_left (fun s r -> s + r.attempted) 0 rs in
          let fl = List.fold_left (fun s r -> s + r.failed) 0 rs in
          if att = 0 then 0.0 else float_of_int fl /. float_of_int att
        in
        if share rb > share ra then
          fails :=
            Printf.sprintf "%s: failed share %.6g -> %.6g" w (share ra) (share rb) :: !fails;
        (* exact results must repeat on every seed both sides ran *)
        let seeds rs = uniq (List.map (fun r -> r.seed) rs) in
        let common = List.filter (fun s -> List.mem s (seeds rb)) (seeds ra) in
        if common = [] then
          notes := Printf.sprintf "%s: no common seed, exact metrics not compared" w :: !notes;
        List.iter
          (fun seed ->
            match List.filter (fun r -> r.seed = seed) (ra @ rb) with
            | [] -> ()
            | first :: rest ->
              List.iter
                (fun r ->
                  if not (String.equal r.digest first.digest) then
                    mismatches :=
                      Printf.sprintf "%s seed %d: sim_digest %s vs %s" w seed first.digest r.digest
                      :: !mismatches;
                  let show = function
                    | Some v -> Jsonv.to_string (Jsonv.Num v)
                    | None -> "missing"
                  in
                  List.iter
                    (fun k ->
                      let x = List.assoc_opt k first.exact and y = List.assoc_opt k r.exact in
                      if x <> y then
                        mismatches :=
                          Printf.sprintf "%s seed %d: %s %s vs %s" w seed k (show x) (show y)
                          :: !mismatches)
                    (uniq (List.map fst (first.exact @ r.exact))))
                rest)
          common
      end)
    workloads;
  {
    lines = List.rev !lines;
    mismatches = uniq !mismatches;
    fail_increases = List.rev !fails;
    notes = List.rev !notes;
  }

let passed r =
  r.mismatches = [] && r.fail_increases = []
  && List.for_all (fun l -> l.l_verdict <> Regressed) r.lines

let render r =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%-13s %-14s %34s %34s %8s %6s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "change" "bound" "verdict";
  let q (q1, m, q3) = Printf.sprintf "%.4g [%.4g, %.4g]" m q1 q3 in
  List.iter
    (fun l ->
      Printf.bprintf b "%-13s %-14s %34s %34s %+7.2f%% %5.1f%%  %s\n" l.l_workload l.l_metric
        (q l.l_a) (q l.l_b) (100.0 *. l.l_change) (100.0 *. l.l_bound)
        (verdict_name l.l_verdict))
    r.lines;
  List.iter (fun m -> Printf.bprintf b "MISMATCH %s\n" m) r.mismatches;
  List.iter (fun m -> Printf.bprintf b "FAILED-SHARE %s\n" m) r.fail_increases;
  List.iter (fun m -> Printf.bprintf b "note: %s\n" m) r.notes;
  Printf.bprintf b "%s\n" (if passed r then "PASS" else "FAIL");
  Buffer.contents b
