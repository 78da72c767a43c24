(* Run the hierarchical-locking protocol across real OS processes over TCP.

   One node:
     dune exec bin/cluster_node.exe -- node --id 0 \
       --peers "0:127.0.0.1:7101,1:127.0.0.1:7102" --locks 2 --ops 10

   Whole demo cluster on localhost (forks one process per node):
     dune exec bin/cluster_node.exe -- demo --nodes 4 --ops 10

   With --telemetry DIR each process streams a dcs-obs/2 shard to
   DIR/node-<id>.jsonl; merge them afterwards:
     dune exec bin/trace.exe -- analyze DIR/node-*.jsonl *)

open Cmdliner

let run_node ~self ~config ~ops ~seed ~telemetry ~linger =
  let recorder =
    Option.map
      (fun dir ->
        (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        Dcs_obs.Recorder.create
          ~path:(Filename.concat dir (Printf.sprintf "node-%d.jsonl" self))
          ~meta:
            [
              ("node", string_of_int self);
              ("nodes", string_of_int (List.length config.Dcs_netkit.Cluster_config.peers));
              ("locks", string_of_int config.Dcs_netkit.Cluster_config.locks);
              ("seed", Int64.to_string seed);
            ]
          ())
      telemetry
  in
  let runner = Dcs_netkit.Runner.create ?telemetry:recorder ~config ~self () in
  Dcs_netkit.Runner.start runner;
  (* Explicit barrier: don't fire the first request storm until every peer
     has bound its listen port (replaces a fixed startup sleep that raced
     slow peers). *)
  (match Dcs_netkit.Runner.await_peers runner ~timeout:15.0 with
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "node %d: %s\n%!" self e;
      Dcs_netkit.Runner.stop runner;
      exit 1);
  let rng = Dcs_sim.Rng.create ~seed:Int64.(add seed (of_int self)) in
  let locks = config.Dcs_netkit.Cluster_config.locks in
  for i = 1 to ops do
    let lock = Dcs_sim.Rng.int rng ~bound:locks in
    let mode =
      if Dcs_sim.Rng.float rng < 0.8 then Dcs_modes.Mode.R else Dcs_modes.Mode.W
    in
    let t0 = Unix.gettimeofday () in
    let seq = Dcs_netkit.Runner.request_sync runner ~lock ~mode in
    Printf.printf "node %d: op %2d/%d granted %s on lock %d in %.1f ms\n%!" self i ops
      (Dcs_modes.Mode.to_string mode) lock
      (1000.0 *. (Unix.gettimeofday () -. t0));
    Thread.delay 0.01;
    Dcs_netkit.Runner.release runner ~lock ~seq;
    Thread.delay 0.02
  done;
  Printf.printf "node %d: done; messages sent: %s\n%!" self
    (Format.asprintf "%a" Dcs_proto.Counters.pp (Dcs_netkit.Runner.counters runner));
  (* Linger so peers can still route through us while they finish. *)
  Thread.delay linger;
  Dcs_netkit.Runner.stop runner

let peers_term =
  Arg.(
    value
    & opt string "0:127.0.0.1:7101,1:127.0.0.1:7102"
    & info [ "peers" ] ~docv:"PEERS" ~doc:"Comma-separated id:host:port list.")

let locks_term =
  Arg.(value & opt int 2 & info [ "locks" ] ~docv:"L" ~doc:"Number of shared lock objects.")

let ops_term =
  Arg.(value & opt int 10 & info [ "ops" ] ~docv:"OPS" ~doc:"Lock operations per node.")

let seed_term = Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let telemetry_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"DIR"
        ~doc:
          "Stream a live dcs-obs/2 telemetry shard to DIR/node-<id>.jsonl (created if \
           missing). Merge shards with dcs-trace analyze.")

let linger_term =
  Arg.(
    value
    & opt float 3.0
    & info [ "linger" ] ~docv:"S"
        ~doc:"Seconds to keep serving after the last local operation, so peers can still \
              route through this node while they finish.")

let node_cmd =
  let id_term =
    Arg.(required & opt (some int) None & info [ "id" ] ~docv:"ID" ~doc:"This node's id.")
  in
  let run id peers locks ops seed telemetry linger =
    match Dcs_netkit.Cluster_config.parse ~locks peers with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok config -> run_node ~self:id ~config ~ops ~seed ~telemetry ~linger
  in
  Cmd.v
    (Cmd.info "node" ~doc:"Run one node of a TCP cluster.")
    Term.(
      const run $ id_term $ peers_term $ locks_term $ ops_term $ seed_term $ telemetry_term
      $ linger_term)

let demo_cmd =
  let nodes_term =
    Arg.(value & opt int 4 & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size (local processes).")
  in
  let base_port_term =
    Arg.(value & opt int 7101 & info [ "base-port" ] ~docv:"PORT" ~doc:"First TCP port.")
  in
  let run nodes base_port locks ops seed telemetry linger =
    let peers =
      String.concat ","
        (List.init nodes (fun i -> Printf.sprintf "%d:127.0.0.1:%d" i (base_port + i)))
    in
    match Dcs_netkit.Cluster_config.parse ~locks peers with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok config ->
        Printf.printf "spawning %d local nodes (%s), %d locks, %d ops each\n%!" nodes peers
          locks ops;
        let children =
          List.init nodes (fun self ->
              match Unix.fork () with
              | 0 ->
                  run_node ~self ~config ~ops ~seed ~telemetry ~linger;
                  exit 0
              | pid -> pid)
        in
        let failed = ref 0 in
        List.iter
          (fun pid ->
            match Unix.waitpid [] pid with
            | _, Unix.WEXITED 0 -> ()
            | _ -> incr failed)
          children;
        if !failed > 0 then begin
          Printf.printf "%d nodes failed\n" !failed;
          exit 1
        end
        else begin
          print_endline "demo complete: every node finished its operations";
          match telemetry with
          | Some dir -> Printf.printf "telemetry shards in %s/ (dcs-trace analyze %s/node-*.jsonl)\n" dir dir
          | None -> ()
        end
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Fork a whole localhost cluster and run the demo workload.")
    Term.(
      const run $ nodes_term $ base_port_term $ locks_term $ ops_term $ seed_term
      $ telemetry_term $ linger_term)

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Info);
  let info =
    Cmd.info "cluster-node" ~doc:"Hierarchical locking over a real TCP cluster (dcs_netkit)."
  in
  exit (Cmd.eval (Cmd.group info [ node_cmd; demo_cmd ]))
