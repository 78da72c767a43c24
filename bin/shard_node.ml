(* dcs-shard-node: the sharded lock-namespace service across real OS
   processes.

     dune exec bin/shard_node.exe -- demo --shards 2 --rounds 3 --check

   [demo] forks one worker process per shard plus a coordinator. The two
   sides run the same state machines Router.run pumps in-process: a
   worker drives one Router.Replica (round step, receive step, final
   report), the coordinator one Router.Coordinator (collect the round's
   Round_done frames and handoffs, relay each migration and its ack,
   broadcast the directory update, release the barrier, fold the final
   reports). This file keeps only what crossing processes adds: the
   sockets and framing, the reader threads, the round barrier on the
   worker side, dead-worker detection and the telemetry.

   With --check the coordinator re-runs the identical plan in-process on
   two domains (Router.run ~jobs:2) and requires digest, counts, rounds,
   replays and per-shard balance to match exactly, and cross-checks the
   merged per-shard telemetry ({shard=N}-labelled metrics) against both.

   [local] runs the in-process router alone and prints the balance
   table.

   With --telemetry DIR each worker streams a dcs-obs/2 shard to
   DIR/shard-<id>.jsonl with {shard=N}-labelled metrics; dcs-trace
   analyze renders them as a shard-balance table. *)

open Cmdliner
module Codec = Dcs_wire.Codec
module Shard_msg = Dcs_wire.Shard_msg
module Router = Dcs_shard.Router
module Replica = Router.Replica
module Coordinator = Router.Coordinator
module Metrics = Dcs_obs.Metrics

let send oc ~src msg =
  Codec.write_frame oc { Codec.src; lock = 0; payload = Codec.Shard msg };
  flush oc

(* {1 Worker: one shard process} *)

let run_worker ~shard ~(cfg : Router.config) ~migrations ~port ~telemetry =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let rec connect tries =
    try Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
    with Unix.Unix_error _ when tries > 0 ->
      Unix.sleepf 0.05;
      connect (tries - 1)
  in
  connect 100;
  let ic = Unix.in_channel_of_descr sock and oc = Unix.out_channel_of_descr sock in
  let send m = send oc ~src:shard m in
  let path =
    Option.map
      (fun dir ->
        (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        Filename.concat dir (Printf.sprintf "shard-%d.jsonl" shard))
      telemetry
  in
  let recorder =
    Dcs_obs.Recorder.create ?path
      ~meta:
        [
          ("node", string_of_int shard);
          ("shards", string_of_int cfg.Router.shards);
          ("buckets", string_of_int cfg.Router.buckets);
          ("lock_sets", string_of_int cfg.Router.lock_sets);
          ("seed", Int64.to_string cfg.Router.seed);
        ]
      ()
  in
  let clock = Dcs_obs.Clock.wall () in
  let reg = Dcs_obs.Recorder.metrics recorder in
  let m_bursts = Metrics.counter reg (Metrics.labelled "shard.bursts" ~shard) in
  let m_grants = Metrics.counter reg (Metrics.labelled "shard.grants" ~shard) in
  let m_msgs = Metrics.counter reg (Metrics.labelled "shard.msgs" ~shard) in
  let m_owned = Metrics.gauge reg (Metrics.labelled "shard.buckets_owned" ~shard) in
  let replica = Replica.create ~migrations cfg ~shard in
  let round = ref 0 in
  while Replica.runs_round replica ~round:!round do
    let c, frames = Replica.round_step replica ~round:!round in
    List.iter send frames;
    Metrics.add m_bursts c.Replica.bursts;
    Metrics.add m_grants c.Replica.grants;
    Metrics.add m_msgs c.Replica.msgs;
    Metrics.set m_owned (float_of_int (Replica.buckets_owned replica));
    Dcs_obs.Recorder.snapshot recorder ~time:(clock ());
    (* Barrier: the replica takes the coordinator's traffic (inbound
       handoffs, directory updates) until this round's release. *)
    let rec wait () =
      match Codec.read_frame ic with
      | None -> failwith (Printf.sprintf "shard %d: coordinator closed mid-round" shard)
      | Some { Codec.payload = Codec.Shard (Shard_msg.Round_done { round = r; _ }); _ }
        when r = !round ->
          ()
      | Some { Codec.payload = Codec.Shard msg; _ } ->
          Option.iter send (Replica.receive replica msg);
          wait ()
      | Some _ -> failwith (Printf.sprintf "shard %d: unexpected non-shard frame" shard)
    in
    wait ();
    incr round
  done;
  (* Final report: every owned bucket's state goes back through the same
     handoff path, so the coordinator folds the digest from exactly the
     bytes a migration would ship. *)
  List.iter send (Replica.final_report replica ~round:!round);
  Dcs_obs.Recorder.close recorder ~time:(clock ());
  close_out_noerr oc

(* {1 Coordinator} *)

(* [Closed] marks a worker connection hitting EOF: expected once per
   worker after its closing Round_done, fatal any earlier — the
   coordinator must fail loudly rather than wait forever for frames that
   can never arrive. *)
type inbound = Frame of { conn : int; env : Codec.envelope } | Closed of int

let run_coordinator ~(cfg : Router.config) ~migrations ~listen ~telemetry ~check =
  let queue = Queue.create () in
  let mu = Mutex.create () and cv = Condition.create () in
  let push item =
    Mutex.lock mu;
    Queue.push item queue;
    Condition.signal cv;
    Mutex.unlock mu
  in
  let next () =
    Mutex.lock mu;
    while Queue.is_empty queue do
      Condition.wait cv mu
    done;
    let m = Queue.pop queue in
    Mutex.unlock mu;
    m
  in
  let conns = Array.make cfg.Router.shards None in
  let readers =
    List.init cfg.Router.shards (fun i ->
        Thread.create
          (fun () ->
            (* Accept order is arbitrary; the envelope src names the shard. *)
            let fd, _ = Unix.accept listen in
            let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
            conns.(i) <- Some oc;
            let rec loop () =
              match Codec.read_frame ic with
              | Some env ->
                  push (Frame { conn = i; env });
                  loop ()
              | None -> push (Closed i)
              (* A killed worker resets the connection rather than closing
                 it; either way the frames stop — same signal. Say why
                 first: a malformed or oversized frame also lands here. *)
              | exception e ->
                  Printf.eprintf "coordinator: read from connection %d failed: %s\n%!" i
                    (Printexc.to_string e);
                  push (Closed i)
            in
            loop ())
          ())
  in
  let shard_conn = Array.make cfg.Router.shards (-1) in
  let send_to (dst, msg) =
    match conns.(shard_conn.(dst)) with
    | Some oc -> send oc ~src:cfg.Router.shards msg
    | None -> failwith "coordinator: shard connection lost"
  in
  let coord = Coordinator.create ~migrations cfg in
  while not (Coordinator.finished coord) do
    match next () with
    | Closed c ->
        if
          not
            (List.exists
               (fun shard -> shard_conn.(shard) = c && Coordinator.reported coord ~shard)
               (List.init cfg.Router.shards Fun.id))
        then failwith "coordinator: worker disconnected mid-run"
    | Frame { conn; env = { Codec.src; payload = Codec.Shard msg; _ } } ->
        let out = Coordinator.receive coord ~src msg in
        shard_conn.(src) <- conn;
        List.iter send_to out
    | Frame _ -> failwith "coordinator: unexpected non-shard frame"
  done;
  List.iter Thread.join readers;
  let r = Coordinator.result coord in
  Printf.printf "distributed run: %d shards, %d rounds run, %d bursts, %d grants\n"
    cfg.Router.shards r.Router.rounds_run r.Router.bursts r.Router.grants;
  List.iter
    (fun (s : Router.shard_stat) ->
      Printf.printf "  shard %d: %d bursts, %d grants, %d buckets\n" s.Router.shard
        s.Router.bursts s.Router.grants s.Router.buckets_owned)
    r.Router.shard_stats;
  if r.Router.migrations_applied > 0 then
    Printf.printf "migrations: %d applied, %d jobs replayed\n" r.Router.migrations_applied
      r.Router.parked_replayed;
  Printf.printf "namespace digest: %Lx\n%!" r.Router.digest;
  if not check then 0
  else begin
    (* The same plan, in-process, fanned over two domains: byte-identical
       outcome or the distributed path is wrong. *)
    let reference = Coordinator.framed (Router.run ~jobs:2 ~migrations cfg) in
    let failures = ref [] in
    let expect name ok = if not ok then failures := name :: !failures in
    let same name get = expect name (get r = get reference) in
    same "digest" (fun x -> x.Router.digest);
    same "bucket digests" (fun x -> x.Router.bucket_digests);
    same "bursts" (fun x -> x.Router.bursts);
    same "grants" (fun x -> x.Router.grants);
    same "rounds run" (fun x -> x.Router.rounds_run);
    same "migrations applied" (fun x -> x.Router.migrations_applied);
    same "jobs replayed" (fun x -> x.Router.parked_replayed);
    same "per-shard balance" (fun x -> x.Router.shard_stats);
    (* Merged telemetry must tell the same story. *)
    (match telemetry with
    | None -> ()
    | Some dir_path ->
        let files =
          List.init cfg.Router.shards (fun s ->
              Filename.concat dir_path (Printf.sprintf "shard-%d.jsonl" s))
        in
        (match Dcs_obs.Merge.load files with
        | Error e -> expect ("telemetry load: " ^ e) false
        | Ok (shards, errors) ->
            expect "telemetry schema errors" (errors = []);
            let totals = Dcs_obs.Merge.metric_totals shards in
            let labelled_sum base =
              List.fold_left
                (fun acc (n, v) ->
                  match Metrics.shard_label n with
                  | Some (b, _) when b = base -> acc + int_of_float v
                  | _ -> acc)
                0 totals
            in
            expect "telemetry grants" (labelled_sum "shard.grants" = r.Router.grants);
            expect "telemetry bursts" (labelled_sum "shard.bursts" = r.Router.bursts)));
    match !failures with
    | [] ->
        Printf.printf
          "check OK: distributed = in-process multi-domain (digest, bursts, grants, balance%s)\n"
          (if telemetry = None then "" else ", merged telemetry");
        0
    | fs ->
        List.iter (fun f -> Printf.printf "check FAILED: %s\n" f) fs;
        1
  end

(* {1 Commands} *)

let cfg_of shards buckets lock_sets nodes rounds jobs_per_round ops skew seed =
  {
    Router.default_config with
    Router.shards;
    buckets;
    lock_sets;
    nodes;
    rounds;
    jobs_per_round;
    ops_per_burst = ops;
    skew;
    seed;
  }

let shards_arg = Arg.(value & opt int 2 & info [ "shards" ] ~docv:"S" ~doc:"Shard processes.")
let buckets_arg = Arg.(value & opt int 8 & info [ "buckets" ] ~docv:"B" ~doc:"Namespace buckets.")

let lock_sets_arg =
  Arg.(value & opt int 16 & info [ "lock-sets" ] ~docv:"L" ~doc:"Lock sets in the namespace.")

let nodes_arg =
  Arg.(value & opt int 8 & info [ "nodes" ] ~docv:"N" ~doc:"Population per lock set.")

let rounds_arg = Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"R" ~doc:"Rounds to run.")

let jobs_per_round_arg =
  Arg.(value & opt int 8 & info [ "jobs-per-round" ] ~docv:"J" ~doc:"Bursts per round.")

let ops_arg = Arg.(value & opt int 4 & info [ "ops" ] ~docv:"OPS" ~doc:"Operations per burst.")

let skew_arg =
  Arg.(value & opt float 0.0 & info [ "skew" ] ~docv:"THETA" ~doc:"Zipf skew over lock sets.")

let seed_arg = Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"Base seed.")

let port_arg =
  Arg.(value & opt int 7571 & info [ "port" ] ~docv:"PORT" ~doc:"Coordinator TCP port.")

let telemetry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"DIR"
        ~doc:
          "Stream one dcs-obs/2 shard per worker to DIR/shard-<id>.jsonl with \
           {shard=N}-labelled metrics (dcs-trace analyze shows the balance table).")

let check_flag =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Re-run the identical plan in-process on two domains and require digest, bursts, \
           grants, rounds, replays, per-shard balance and merged telemetry to match exactly.")

let migrate_arg =
  Arg.(
    value
    & opt_all (t3 ~sep:':' int int int) []
    & info [ "migrate" ] ~docv:"ROUND:BUCKET:DST"
        ~doc:"Migrate BUCKET to shard DST at the end of ROUND. Repeatable.")

let parse_migrations ~(cfg : Router.config) specs =
  let migrations = List.map (fun (round, bucket, dst) -> { Router.round; bucket; dst }) specs in
  (* Reject bad schedules before forking: an invalid one (self-migration,
     out-of-range ids) would otherwise crash every worker and the
     coordinator mid-protocol. *)
  (try Router.validate_migrations cfg migrations
   with Invalid_argument msg ->
     prerr_endline msg;
     exit 2);
  migrations

let demo_cmd =
  let run shards buckets lock_sets nodes rounds jobs_per_round ops skew seed port telemetry
      check migrate =
    let cfg = cfg_of shards buckets lock_sets nodes rounds jobs_per_round ops skew seed in
    let migrations = parse_migrations ~cfg migrate in
    let listen = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt listen Unix.SO_REUSEADDR true;
    Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen listen shards;
    Printf.printf "spawning %d shard workers (%d buckets, %d lock sets, %d rounds)\n%!" shards
      buckets lock_sets rounds;
    let children =
      List.init shards (fun shard ->
          match Unix.fork () with
          | 0 ->
              Unix.close listen;
              run_worker ~shard ~cfg ~migrations ~port ~telemetry;
              exit 0
          | pid -> pid)
    in
    let code = run_coordinator ~cfg ~migrations ~listen ~telemetry ~check in
    let failed = ref 0 in
    List.iter
      (fun pid -> match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> () | _ -> incr failed)
      children;
    Unix.close listen;
    if !failed > 0 then begin
      Printf.printf "%d workers failed\n" !failed;
      exit 1
    end;
    exit code
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Fork a sharded service across processes and run the round loop.")
    Term.(
      const run $ shards_arg $ buckets_arg $ lock_sets_arg $ nodes_arg $ rounds_arg
      $ jobs_per_round_arg $ ops_arg $ skew_arg $ seed_arg $ port_arg $ telemetry_arg
      $ check_flag $ migrate_arg)

let local_cmd =
  let jobs_arg =
    Arg.(value & opt int 2 & info [ "jobs" ] ~docv:"D" ~doc:"Worker domains per round.")
  in
  let run shards buckets lock_sets nodes rounds jobs_per_round ops skew seed jobs migrate =
    let cfg = cfg_of shards buckets lock_sets nodes rounds jobs_per_round ops skew seed in
    let migrations = parse_migrations ~cfg migrate in
    let r = Router.run ~jobs ~migrations cfg in
    Printf.printf "%d shards, %d rounds run: %d bursts, %d grants, %d upgrades, %d msgs\n"
      cfg.Router.shards r.Router.rounds_run r.Router.bursts r.Router.grants r.Router.upgrades
      r.Router.msgs;
    List.iter
      (fun (s : Router.shard_stat) ->
        Printf.printf "  shard %d: %d bursts, %d grants, %d msgs, %d buckets\n" s.Router.shard
          s.Router.bursts s.Router.grants s.Router.msgs s.Router.buckets_owned)
      r.Router.shard_stats;
    if r.Router.migrations_applied > 0 then
      Printf.printf "migrations: %d applied, %d jobs replayed, %d handoff bytes\n"
        r.Router.migrations_applied r.Router.parked_replayed r.Router.handoff_bytes;
    Printf.printf "namespace digest: %Lx\n" r.Router.digest
  in
  Cmd.v
    (Cmd.info "local" ~doc:"Run the sharded router in-process and print the balance table.")
    Term.(
      const run $ shards_arg $ buckets_arg $ lock_sets_arg $ nodes_arg $ rounds_arg
      $ jobs_per_round_arg $ ops_arg $ skew_arg $ seed_arg $ jobs_arg $ migrate_arg)

let () =
  let info =
    Cmd.info "shard-node"
      ~doc:"The sharded lock-namespace service across processes (dcs_shard over TCP)."
  in
  exit (Cmd.eval (Cmd.group info [ demo_cmd; local_cmd ]))
