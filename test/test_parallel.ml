(* Determinism of the Domain fan-out (Dcs_netkit.Parallel) and the
   parallel experiment sweeps built on it: for every jobs count the
   output — per-cell stats and trace digests included — must be
   bit-identical to the sequential run. This is the property that makes
   --jobs safe to default on in the experiment CLIs. *)

module Parallel = Dcs_netkit.Parallel
module Experiment = Dcs_runtime.Experiment
module Figures = Dcs_runtime.Figures

let checkb = Alcotest.check Alcotest.bool
let jobs_range = [ 1; 2; 3; 4 ]

(* {1 The fan-out primitive} *)

let test_map_matches_array_map () =
  let cells = Array.init 23 (fun i -> i) in
  let f i = (i * i) + 1 in
  let expect = Array.map f cells in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs %d" jobs)
        expect (Parallel.map ~jobs f cells))
    jobs_range;
  Alcotest.(check (array int)) "empty" [||] (Parallel.map ~jobs:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "more jobs than cells" [| 42 |]
    (Parallel.map ~jobs:8 (fun x -> x) [| 42 |])

let test_map_propagates_exception () =
  List.iter
    (fun jobs ->
      match Parallel.map ~jobs (fun i -> if i = 5 then failwith "boom" else i) (Array.init 8 Fun.id) with
      | _ -> Alcotest.fail "expected the worker exception to propagate"
      | exception Failure msg -> Alcotest.(check string) "message" "boom" msg)
    jobs_range

let test_cell_seed_identity () =
  checkb "stable" true
    (Int64.equal (Parallel.cell_seed ~base:42L ~salt:7) (Parallel.cell_seed ~base:42L ~salt:7));
  checkb "salt-sensitive" false
    (Int64.equal (Parallel.cell_seed ~base:42L ~salt:7) (Parallel.cell_seed ~base:42L ~salt:8));
  checkb "base-sensitive" false
    (Int64.equal (Parallel.cell_seed ~base:42L ~salt:7) (Parallel.cell_seed ~base:43L ~salt:7));
  (* salt 0 still displaces the base seed *)
  checkb "salt 0 displaces" false
    (Int64.equal (Parallel.cell_seed ~base:42L ~salt:0) 42L)

(* {1 Sweep determinism} *)

(* A small drivers × nodes grid run through the fan-out, each cell fully
   traced. Cell seeds derive from semantic identity, never position, so
   the expected output is independent of work distribution. *)
let run_grid ~jobs =
  let cells =
    Array.of_list
      (List.concat_map
         (fun driver -> List.map (fun n -> (driver, n)) [ 4; 8; 12 ])
         Experiment.[ Hierarchical; Naimi_pure; Naimi_same_work ])
  in
  Parallel.map ~jobs
    (fun (driver, nodes) ->
      let cfg = Experiment.default_config ~driver ~nodes in
      let cfg = { cfg with Experiment.seed = Parallel.cell_seed ~base:7L ~salt:nodes } in
      let trace = Dcs_sim.Trace.create () in
      let r = Experiment.run ~trace cfg in
      ( r.Experiment.msgs_per_op,
        r.Experiment.msgs_per_lock_request,
        r.Experiment.latency_factor,
        r.Experiment.ops,
        Dcs_sim.Trace.digest trace ))
    cells

let test_grid_bit_identical () =
  let sequential = run_grid ~jobs:1 in
  List.iter
    (fun jobs ->
      checkb
        (Printf.sprintf "stats and digests identical at jobs %d" jobs)
        true
        (run_grid ~jobs = sequential))
    [ 2; 3; 4 ]

(* The public sweep API end to end: series and rendered report both. *)
let test_figures_identical () =
  let nodes = [ 2; 4; 8 ] in
  let sequential = Figures.fig5 ~nodes ~jobs:1 () in
  List.iter
    (fun jobs ->
      checkb (Printf.sprintf "fig5 identical at jobs %d" jobs) true
        (Figures.fig5 ~nodes ~jobs () = sequential))
    [ 2; 3; 4 ];
  let seq7 = Figures.fig7 ~nodes ~jobs:1 () in
  checkb "fig7 identical at jobs 4" true (Figures.fig7 ~nodes ~jobs:4 () = seq7)

(* A one-driver sweep must equal that driver's slice of the full grid:
   cell seeds depend only on (driver, nodes), not sweep composition. *)
let test_sweep_composition_invariant () =
  let nodes = [ 2; 4; 8 ] in
  let alone = Figures.sweep ~driver:Experiment.Hierarchical ~nodes ~jobs:2 () in
  let all = Figures.fig5 ~nodes ~jobs:2 () |> fst in
  let in_grid = List.find (fun s -> s.Figures.driver = Experiment.Hierarchical) all in
  checkb "hierarchical slice matches standalone sweep" true (alone = in_grid)

let () =
  Alcotest.run "dcs_parallel"
    [
      ( "map",
        [
          Alcotest.test_case "matches Array.map" `Quick test_map_matches_array_map;
          Alcotest.test_case "propagates exceptions" `Quick test_map_propagates_exception;
          Alcotest.test_case "cell seeds" `Quick test_cell_seed_identity;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "traced grid bit-identical for jobs 1..4" `Quick
            test_grid_bit_identical;
          Alcotest.test_case "figure sweeps identical for jobs 1..4" `Quick
            test_figures_identical;
          Alcotest.test_case "composition-invariant cell seeds" `Quick
            test_sweep_composition_invariant;
        ] );
    ]
