(* Fault tolerance in action: the airline workload rides out a network
   partition that splits the cluster in half and then heals.

   While the cut is up, cross-partition messages are buffered; on heal
   they flush in FIFO order and the protocol simply continues — the
   invariant oracle that chaos runs carry sees a single token and
   compatible modes after every delivery, at the price of latency during
   the outage. A second run with the same seed reproduces the identical
   event trace (digest).

   Run with:  dune exec examples/partition.exe *)

let base_config () =
  let cfg = Core.Experiment.default_config ~driver:Core.Experiment.Hierarchical ~nodes:16 in
  {
    cfg with
    Core.Experiment.seed = 7L;
    workload = { cfg.Core.Experiment.workload with Core.Airline.ops_per_node = 30 };
  }

let run ?chaos () =
  let cfg = { (base_config ()) with Core.Experiment.chaos } in
  let trace = Core.Trace.create () in
  let result = Core.Experiment.run ~trace cfg in
  (result, Core.Trace.digest trace)

let () =
  let healthy, _ = run () in
  let horizon = Core.Experiment.horizon_estimate (base_config ()) in
  let plan =
    match Core.Fault_plan.named ~nodes:16 ~horizon "heal-partition" with
    | Some p -> p
    | None -> assert false
  in
  Printf.printf "Fault plan:\n%s\n" (Core.Fault_plan.to_string plan);
  let partitioned, digest = run ~chaos:plan () in
  let report = Option.get partitioned.Core.Experiment.chaos_report in
  Printf.printf "Healthy run:     mean latency %7.1f ms, p95 %7.1f ms\n"
    healthy.Core.Experiment.mean_latency_ms healthy.Core.Experiment.p95_latency_ms;
  Printf.printf "Partitioned run: mean latency %7.1f ms, p95 %7.1f ms\n"
    partitioned.Core.Experiment.mean_latency_ms partitioned.Core.Experiment.p95_latency_ms;
  Printf.printf "Invariant violations: %d; operations completed: %d of %d.\n"
    (List.length report.Core.Experiment.violations)
    partitioned.Core.Experiment.ops healthy.Core.Experiment.ops;
  List.iter (fun v -> Printf.printf "  VIOLATION %s\n" v) report.Core.Experiment.violations;
  let rerun, digest' = run ~chaos:plan () in
  ignore rerun;
  Printf.printf "Same seed, same plan: digest %Lx %s %Lx — deterministic replay.\n" digest
    (if Int64.equal digest digest' then "=" else "<>")
    digest';
  (* The narrative's claims: no violation, every operation done, and a
     replay that reproduces the trace. *)
  if
    report.Core.Experiment.violations <> []
    || partitioned.Core.Experiment.ops < healthy.Core.Experiment.ops
    || not (Int64.equal digest digest')
  then begin
    Printf.printf "Unexpected: the partitioned run broke a claim above.\n";
    exit 1
  end
