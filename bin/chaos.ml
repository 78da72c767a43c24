(* Chaos harness: the airline workload under named fault plans, with the
   per-delivery invariant oracle and the reliable-shim overhead report.

     dcs-chaos                         all four shipped plans, 64 nodes
     dcs-chaos lossy-dup --nodes 32    one plan, custom size
     dcs-chaos --verify                rerun each plan and compare digests

   --quick shrinks the soak to a CI smoke (~seconds): 12 nodes, 12
   ops/node. The full default is a 64-node, 10240-request soak per plan. Exit status is non-zero if any invariant violation,
   liveness failure or digest mismatch occurs. *)

open Cmdliner
module Experiment = Dcs_runtime.Experiment
module Plan = Dcs_fault.Plan

let build_config ~nodes ~ops ~entries ~seed =
  let cfg = Experiment.default_config ~driver:Experiment.Hierarchical ~nodes in
  {
    cfg with
    Experiment.seed;
    workload = { cfg.Experiment.workload with Dcs_workload.Airline.entries; ops_per_node = ops };
  }

let run_plan ~cfg ~name ~telemetry_path =
  let horizon = Experiment.horizon_estimate cfg in
  let plan =
    match Plan.named ~nodes:cfg.Experiment.nodes ~horizon name with
    | Some p -> p
    | None ->
        Printf.eprintf "unknown plan %S (known: %s)\n" name (String.concat ", " Plan.names);
        exit 2
  in
  let cfg = { cfg with Experiment.chaos = Some plan } in
  let trace = Dcs_sim.Trace.create () in
  (* Message accounting without an in-memory event log (soaks are long).
     With --telemetry the recorder streams every line to the plan's JSONL
     file as the soak runs, and dcs-trace analyze derives per-mode latency
     quantiles from it. Recording is observation-only, so --verify digests
     are unaffected. *)
  let recorder =
    Dcs_obs.Recorder.create ?path:telemetry_path
      ~meta:
        [
          ("plan", name);
          ("nodes", string_of_int cfg.Experiment.nodes);
          ("seed", Int64.to_string cfg.Experiment.seed);
        ]
      ()
  in
  let result = Experiment.run ~trace ~recorder cfg in
  Dcs_obs.Recorder.close recorder ~time:result.Experiment.sim_duration_ms
    ~counters:result.Experiment.messages;
  (result, plan, Dcs_sim.Trace.digest trace, recorder)

let telemetry recorder result =
  let bytes = Dcs_obs.Recorder.msg_bytes recorder in
  let rows =
    List.map
      (fun (cls, n) ->
        [
          Dcs_proto.Msg_class.to_string cls;
          string_of_int n;
          string_of_int (Option.value ~default:0 (List.assoc_opt cls bytes));
        ])
      result.Experiment.messages
  in
  Printf.printf "messages  :\n%s"
    (Dcs_stats.Table.render ~header:[ "class"; "count"; "bytes" ] rows);
  if result.Experiment.per_class <> [] then begin
    let rows =
      List.map
        (fun (cls, n, mean_ms) ->
          [ Dcs_modes.Mode.to_string cls; string_of_int n; Printf.sprintf "%.1f" mean_ms ])
        result.Experiment.per_class
    in
    Printf.printf "latency   : acquisition by request class (ms, exact means)\n%s"
      (Dcs_stats.Table.render ~header:[ "class"; "n"; "mean" ] rows)
  end

let report ~name ~cfg ~plan ~result ~digest ~recorder =
  let r = result in
  Printf.printf "== chaos plan %-14s (%d nodes, %d requests, seed %Ld) ==\n" name
    cfg.Experiment.nodes r.Experiment.ops cfg.Experiment.seed;
  List.iter (fun spec -> Printf.printf "   %s\n" (Plan.spec_to_string spec)) plan;
  print_string
    (Dcs_stats.Table.render ~header:Experiment.row_header [ Experiment.result_row r ]);
  let rep =
    match r.Experiment.chaos_report with
    | Some rep -> rep
    | None -> failwith "chaos run produced no report"
  in
  Printf.printf "invariant : checked after every delivery, %d violations\n"
    (List.length rep.Experiment.violations);
  List.iter (fun v -> Printf.printf "  VIOLATION %s\n" v) rep.Experiment.violations;
  (match rep.Experiment.reliable_stats with
  | None ->
      Printf.printf "shim      : off (plan keeps the link reliable-FIFO)\n"
  | Some s ->
      Printf.printf
        "shim      : %d data, %d retx, %d acks, %d dups dropped, %d reordered, window<=%d\n"
        s.Dcs_fault.Reliable.data_sent s.Dcs_fault.Reliable.retransmits
        s.Dcs_fault.Reliable.acks s.Dcs_fault.Reliable.duplicates_dropped
        s.Dcs_fault.Reliable.buffered_out_of_order s.Dcs_fault.Reliable.max_unacked;
      Printf.printf "overhead  : %.1f%% of protocol messages (acks + retransmits)\n"
        (100.0 *. rep.Experiment.shim_overhead));
  Printf.printf "net       : %d dropped, %d duplicated by the fault layer\n"
    rep.Experiment.net_dropped rep.Experiment.net_duplicated;
  Printf.printf "sim       : %.1f s simulated, %d events\n"
    (r.Experiment.sim_duration_ms /. 1000.0)
    r.Experiment.events;
  telemetry recorder r;
  Printf.printf "digest    : %Lx\n\n" digest;
  rep.Experiment.violations = []

let main plans nodes ops entries seed quick verify jobs telemetry_dir =
  let nodes = if quick then min nodes 12 else nodes in
  let ops = if quick then min ops 12 else ops in
  let plans = if plans = [] then Plan.names else plans in
  (* Validate names before fanning out (run_plan exits on unknown names,
     which must not happen inside a worker domain). *)
  List.iter
    (fun name ->
      if not (List.mem name Plan.names) then begin
        Printf.eprintf "unknown plan %S (known: %s)\n" name (String.concat ", " Plan.names);
        exit 2
      end)
    plans;
  Option.iter
    (fun dir -> try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    telemetry_dir;
  let telemetry_path name =
    Option.map (fun dir -> Filename.concat dir (name ^ ".jsonl")) telemetry_dir
  in
  (* Each plan is an independent soak (own engine, RNGs, net): fan them
     over domains; reports print afterwards in plan order. *)
  let outcomes =
    Dcs_netkit.Parallel.map ~jobs
      (fun name ->
        let cfg = build_config ~nodes ~ops ~entries ~seed in
        let result, plan, digest, recorder =
          run_plan ~cfg ~name ~telemetry_path:(telemetry_path name)
        in
        let verified =
          if verify then
            let _, _, digest', _ = run_plan ~cfg ~name ~telemetry_path:None in
            Some digest'
          else None
        in
        (name, cfg, result, plan, digest, recorder, verified))
      (Array.of_list plans)
  in
  let ok = ref true in
  Array.iter
    (fun (name, cfg, result, plan, digest, recorder, verified) ->
      if not (report ~name ~cfg ~plan ~result ~digest ~recorder) then ok := false;
      Option.iter (Printf.printf "telemetry : %s\n") (telemetry_path name);
      match verified with
      | None -> ()
      | Some digest' ->
          if Int64.equal digest digest' then
            Printf.printf "verify    : digest reproduced (%Lx)\n\n" digest'
          else begin
            Printf.printf "verify    : DIGEST MISMATCH %Lx vs %Lx\n\n" digest digest';
            ok := false
          end)
    outcomes;
  if !ok then 0 else 1

let plans_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"PLAN" ~doc:"Named fault plans to run (default: all).")

let nodes_arg = Arg.(value & opt int 64 & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size.")

let ops_arg =
  Arg.(value & opt int 160 & info [ "ops" ] ~docv:"OPS" ~doc:"Operations per node.")

let entries_arg =
  Arg.(value & opt int 10 & info [ "entries" ] ~docv:"K" ~doc:"Table size (entry locks).")

let seed_arg =
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let quick_flag =
  Arg.(value & flag & info [ "quick" ] ~doc:"CI smoke: 12 nodes, 12 ops/node.")

let verify_flag =
  Arg.(value & flag & info [ "verify" ] ~doc:"Rerun each plan with the same seed and compare trace digests.")

let jobs_arg =
  Arg.(
    value
    & opt int (Domain.recommended_domain_count ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains; each fault plan soaks in its own domain. Results are \
           identical for every value.")

let telemetry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"DIR"
        ~doc:
          "Stream one dcs-obs/2 JSONL shard per plan to DIR/<plan>.jsonl (analyzable with \
           dcs-trace analyze).")

let () =
  let doc =
    "Chaos soaks for the hierarchical locking protocol: fault plans + per-delivery invariant \
     oracle."
  in
  let info = Cmd.info "dcs-chaos" ~version:"1.0.0" ~doc in
  let term =
    Term.(
      const main $ plans_arg $ nodes_arg $ ops_arg $ entries_arg $ seed_arg
      $ quick_flag $ verify_flag $ jobs_arg $ telemetry_arg)
  in
  exit (Cmd.eval' (Cmd.v info term))
