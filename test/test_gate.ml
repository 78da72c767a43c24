(* The perf regression gate (bench/gate): JSON extraction from
   dcs-bench-report output and the >tolerance verdicts that make
   @bench-smoke fail. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* A miniature dcs-bench-report, shaped exactly like report.ml's
   emission, including an embedded "before" report whose own
   microbench section must NOT shadow the outer one. *)
let report ~engine ~hlock =
  Printf.sprintf
    {|{
  "schema": "dcs-bench-report/1",
  "label": "test",
  "microbench_ns_per_run": {
    "dcs/engine 1k events": %f,
    "dcs/hlock round trip": %f,
    "dcs/only-after": 10.000000
  },
  "sweep_wall_clock_s": {
    "fig5_jobs1_s": 1.000000
  },
  "before": {
    "microbench_ns_per_run": {
      "dcs/engine 1k events": 99999.000000
    }
  }
}|}
    engine hlock

let test_extraction () =
  let micro = Gate.microbench_of_json (report ~engine:1000.0 ~hlock:250.5) in
  checki "three benches" 3 (List.length micro);
  checkb "first section wins, not the embedded before" true
    (List.assoc "dcs/engine 1k events" micro = 1000.0);
  checkb "fractional value" true (List.assoc "dcs/hlock round trip" micro = 250.5)

let test_extraction_missing_key () =
  Alcotest.check_raises "missing section"
    (Failure "gate: key \"microbench_ns_per_run\" not found") (fun () ->
      ignore (Gate.microbench_of_json "{}"))

let run_gate ?drift_correction ~tolerance ~before ~after () =
  Gate.regressions ?drift_correction ~tolerance
    ~before:(Gate.microbench_of_json before)
    ~after:(Gate.microbench_of_json after)
    ()

(* The acceptance scenario: a microbench regressing more than 15% must
   produce a verdict (which makes report.exe exit 1); within-tolerance
   drift must not. *)
let test_gate_fails_on_regression () =
  let before = report ~engine:1000.0 ~hlock:200.0 in
  (* engine +16%: out of tolerance; hlock +10%: within. *)
  let after = report ~engine:1160.0 ~hlock:220.0 in
  match run_gate ~tolerance:0.15 ~before ~after () with
  | [ v ] ->
      checkb "the regressed bench" true (v.Gate.name = "dcs/engine 1k events");
      checkb "ratio" true (Float.abs (v.Gate.ratio -. 1.16) < 1e-9);
      checkb "before carried" true (v.Gate.before = 1000.0);
      checkb "after carried" true (v.Gate.after = 1160.0)
  | vs -> Alcotest.failf "expected exactly one verdict, got %d" (List.length vs)

let test_gate_passes_within_tolerance () =
  let before = report ~engine:1000.0 ~hlock:200.0 in
  let after = report ~engine:1140.0 ~hlock:229.0 in
  (* +14% and +14.5%: both inside the 15% budget. *)
  checki "no verdicts" 0 (List.length (run_gate ~tolerance:0.15 ~before ~after ()));
  (* Improvements never fail the gate. *)
  let faster = report ~engine:500.0 ~hlock:100.0 in
  checki "improvements pass" 0 (List.length (run_gate ~tolerance:0.15 ~before ~after:faster ()))

let test_gate_ignores_one_sided_benches () =
  (* "dcs/only-after" has no baseline entry when the before report lacks
     it: additions and retirements are not regressions. *)
  let before =
    {|{"microbench_ns_per_run": {"dcs/engine 1k events": 100.0}}|}
  in
  let after = report ~engine:100.0 ~hlock:1.0 in
  checki "new benches ignored" 0 (List.length (run_gate ~tolerance:0.15 ~before ~after ()))

(* Median drift correction: a uniform machine slowdown is forgiven, a
   regression confined to one bench is still caught, and the median is
   clamped so a faster machine never manufactures a verdict. *)
let test_gate_drift_correction () =
  let before = {|{"microbench_ns_per_run": {"a": 100.0, "b": 100.0, "c": 100.0, "d": 100.0, "e": 100.0}}|} in
  (* Whole suite +40% (container drift), nothing individually worse. *)
  let drifted = {|{"microbench_ns_per_run": {"a": 140.0, "b": 138.0, "c": 142.0, "d": 140.0, "e": 141.0}}|} in
  checki "uniform drift forgiven" 0
    (List.length (run_gate ~drift_correction:true ~tolerance:0.15 ~before ~after:drifted ()));
  checki "without correction the same run fails" 5
    (List.length (run_gate ~tolerance:0.15 ~before ~after:drifted ()));
  (* Same drift, but one bench genuinely doubled: only it is flagged,
     and its ratio is reported net of the drift. *)
  let regressed = {|{"microbench_ns_per_run": {"a": 140.0, "b": 138.0, "c": 142.0, "d": 140.0, "e": 280.0}}|} in
  (match run_gate ~drift_correction:true ~tolerance:0.15 ~before ~after:regressed () with
  | [ v ] ->
      checkb "the real regression" true (v.Gate.name = "e");
      checkb "ratio net of drift" true (Float.abs (v.Gate.ratio -. (2.8 /. 1.4)) < 1e-9)
  | vs -> Alcotest.failf "expected exactly one verdict, got %d" (List.length vs));
  (* Machine got faster overall: the median is clamped at 1.0, so a
     within-tolerance bench is not amplified into a verdict. *)
  let faster = {|{"microbench_ns_per_run": {"a": 50.0, "b": 50.0, "c": 50.0, "d": 50.0, "e": 110.0}}|} in
  checki "clamped median never amplifies" 0
    (List.length (run_gate ~drift_correction:true ~tolerance:0.15 ~before ~after:faster ()))

let test_gate_orders_worst_first () =
  let before = {|{"microbench_ns_per_run": {"a": 100.0, "b": 100.0}}|} in
  let after = {|{"microbench_ns_per_run": {"a": 150.0, "b": 200.0}}|} in
  match run_gate ~tolerance:0.15 ~before ~after () with
  | [ first; second ] ->
      checkb "worst regression first" true (first.Gate.name = "b");
      checkb "then the next" true (second.Gate.name = "a")
  | vs -> Alcotest.failf "expected two verdicts, got %d" (List.length vs)

(* The allocation gate reads the minor-words section, not the ns one,
   and holds counts to fixed bounds: a 0 row to fit noise (0.5
   words/run), any other row to +10%. *)
let alloc_report ~decode ~shim =
  Printf.sprintf
    {|{
  "microbench_ns_per_run": {
    "dcs/wire decode": 100.000000,
    "dcs/reliable shim": 5000.000000
  },
  "microbench_minor_words_per_run": {
    "dcs/wire decode": %f,
    "dcs/reliable shim": %f
  },
  "before": {
    "microbench_minor_words_per_run": {
      "dcs/wire decode": 99.000000
    }
  }
}|}
    decode shim

let run_alloc_gate ~before ~after =
  Gate.allocation_regressions ~before:(Gate.minor_words_of_json before)
    ~after:(Gate.minor_words_of_json after)

let test_alloc_extraction () =
  let words = Gate.minor_words_of_json (alloc_report ~decode:0.0 ~shim:31915.5) in
  checkb "minor-words section, not the ns one or the embedded before" true
    (words = [ ("dcs/wire decode", 0.0); ("dcs/reliable shim", 31915.5) ])

let test_alloc_unchanged_passes () =
  let before = alloc_report ~decode:0.0 ~shim:30000.0 in
  checki "unchanged report" 0 (List.length (run_alloc_gate ~before ~after:before));
  (* Fit noise on a 0 row and +9% on an allocating one stay inside. *)
  let noisy = alloc_report ~decode:0.4 ~shim:32700.0 in
  checki "within bounds" 0 (List.length (run_alloc_gate ~before ~after:noisy));
  (* Allocating less never fails. *)
  let leaner = alloc_report ~decode:0.0 ~shim:1000.0 in
  checki "less allocation" 0 (List.length (run_alloc_gate ~before ~after:leaner))

let test_alloc_planted_fails () =
  let before = alloc_report ~decode:0.0 ~shim:30000.0 in
  (match run_alloc_gate ~before ~after:(alloc_report ~decode:3.0 ~shim:30000.0) with
  | [ v ] ->
      checkb "the zero row" true (v.Gate.name = "dcs/wire decode");
      checkb "infinite ratio" true (v.Gate.ratio = Float.infinity);
      checkb "after carried" true (v.Gate.after = 3.0)
  | vs -> Alcotest.failf "expected one verdict, got %d" (List.length vs));
  (match run_alloc_gate ~before ~after:(alloc_report ~decode:0.0 ~shim:33300.0) with
  | [ v ] ->
      checkb "the allocating row" true (v.Gate.name = "dcs/reliable shim");
      checkb "ratio" true (Float.abs (v.Gate.ratio -. 1.11) < 1e-9)
  | vs -> Alcotest.failf "expected one verdict, got %d" (List.length vs));
  checki "both rows, worst first" 2
    (List.length (run_alloc_gate ~before ~after:(alloc_report ~decode:0.6 ~shim:40000.0)))

let () =
  Alcotest.run "dcs_bench_gate"
    [
      ( "gate",
        [
          Alcotest.test_case "json extraction" `Quick test_extraction;
          Alcotest.test_case "missing key" `Quick test_extraction_missing_key;
          Alcotest.test_case "fails on >15% regression" `Quick test_gate_fails_on_regression;
          Alcotest.test_case "passes within tolerance" `Quick test_gate_passes_within_tolerance;
          Alcotest.test_case "one-sided benches ignored" `Quick test_gate_ignores_one_sided_benches;
          Alcotest.test_case "median drift correction" `Quick test_gate_drift_correction;
          Alcotest.test_case "worst first" `Quick test_gate_orders_worst_first;
          Alcotest.test_case "allocation extraction" `Quick test_alloc_extraction;
          Alcotest.test_case "unchanged allocation passes" `Quick test_alloc_unchanged_passes;
          Alcotest.test_case "planted allocation fails" `Quick test_alloc_planted_fails;
        ] );
    ]
