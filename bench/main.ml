(* Benchmark harness.

   Part 1 (Bechamel): microbenchmarks of the building blocks — one row
   per protocol decision table plus engine/protocol hot paths. The suite
   itself lives in suite.ml, shared with the machine-readable report
   (report.ml).
   Part 2 (figures): regenerates every figure of the paper's evaluation
   (Figures 5, 6, 7), prints the decision tables (Tables 1a-2b) and the
   ablation study. Set BENCH_QUICK=1 to sweep only up to 32 nodes.

   Run with:  dune exec bench/main.exe *)

let run_microbenches () =
  Printf.printf "Microbenchmarks (monotonic clock / minor heap):\n";
  List.iter
    (fun { Suite.name; ns; minor_words } ->
      Printf.printf "  %-36s %14.1f ns/run %10.1f w/run\n" name ns minor_words)
    (Suite.run ());
  print_newline ()

(* {1 The paper's figures} *)

let () =
  run_microbenches ();
  let quick = Sys.getenv_opt "BENCH_QUICK" <> None in
  let nodes =
    if quick then Dcs_runtime.Figures.quick_nodes else Dcs_runtime.Figures.default_nodes
  in
  print_string (Dcs_runtime.Figures.tables ());
  print_newline ();
  print_string (Dcs_runtime.Figures.full_report ~nodes ());
  print_newline ();
  print_string (Dcs_runtime.Figures.ablations ~nodes:(if quick then 16 else 48) ())
