(** The comparison rule between two sets of benchmark runs (A = before,
    B = after): per (end-to-end metric, workload), medians and quartiles
    against the bound [BENCHMARK.json] fixes; exact simulated metrics and
    [sim_digest] must match run for run on every common seed; the failed
    share of operations may not grow. *)

type better = Lower | Higher

type spec = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;  (** the share of A's median B may be worse by *)
  floor : float;  (** the least worsening, in the metric's unit, that can regress *)
}

val specs_of_benchmark : Jsonv.t -> spec list
(** The [end_to_end] entries of a parsed [BENCHMARK.json].  Every floor
    is 0 except [setup_s]'s, which is 0.1 s. *)

type run = {
  workload : string;
  seed : int;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  exact : (string * float) list;
  digest : string;
}

val run_of_json : Jsonv.t -> run
(** Read one results file written by [roload_bench run]. *)

val quartiles : float list -> float * float * float
(** [(q1, median, q3)] exactly as Python's
    [statistics.quantiles(values, n=4)] (the default exclusive method)
    computes them; a single value is its own quartiles. *)

val median : float list -> float

type verdict = Ok | Regressed | Unresolved

val verdict_name : verdict -> string

val judge : spec -> a:float list -> b:float list -> verdict * float
(** The verdict and the relative change of B's median from A's, signed
    so that positive means worse.  [Ok] when every B run beats every A
    run, or a floor is set and B's median is worse by no more than it; otherwise
    [Unresolved] when either side's spread (quartile
    distance over median) exceeds the bound; otherwise [Regressed] when
    the change exceeds the bound; otherwise [Ok]. *)

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
  mismatches : string list;  (** exact metric or digest differences, same seed *)
  fail_increases : string list;  (** workloads whose failed share grew *)
  notes : string list;
}

val compare : spec list -> a:run list -> b:run list -> report

val passed : report -> bool
(** No [Regressed] line, no mismatch, no failed-share increase. *)

val render : report -> string
