(* dcs-shard-node: the sharded lock-namespace service across real OS
   processes.

     dune exec bin/shard_node.exe -- demo --shards 2 --rounds 3 --check

   [demo] forks one worker process per shard plus a coordinator. Workers
   derive the traffic plan deterministically from the seed and execute
   the bursts of the buckets they home on a pooled Dcs_shard.Cell —
   exactly Router.run_burst, same seeds, same at-rest format. The
   coordinator runs the round barrier over TCP (Round_done frames) and
   relays live bucket migrations: the source worker ships its bucket
   store and parked jobs in a Handoff frame, the coordinator forwards it
   to the destination, waits for the Handoff_ack, commits the ownership
   flip and broadcasts the Dir_update every replica applies
   version-monotonically.

   At the end every worker hands its final bucket states to the
   coordinator (the same Handoff path), which folds the namespace digest.
   With --check the coordinator re-runs the identical plan in-process on
   multiple domains (Router.run ~jobs:2) and requires digest, grant
   count, burst count and final bucket ownership to match exactly, and
   cross-checks the merged per-shard telemetry ({shard=N}-labelled
   metrics) against both runs.

   [local] runs the in-process router alone and prints the balance
   table.

   With --telemetry DIR each worker streams a dcs-obs/2 shard to
   DIR/shard-<id>.jsonl with {shard=N}-labelled metrics; dcs-trace
   analyze renders them as a shard-balance table. *)

open Cmdliner
module Codec = Dcs_wire.Codec
module Shard_msg = Dcs_wire.Shard_msg
module Directory = Dcs_shard.Directory
module Cell = Dcs_shard.Cell
module Traffic = Dcs_shard.Traffic
module Router = Dcs_shard.Router
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
  let tele =
    Option.map
      (fun dir ->
        (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        Dcs_obs.Shard.create
          ~path:(Filename.concat dir (Printf.sprintf "shard-%d.jsonl" shard))
          ~meta:
            [
              ("node", string_of_int shard);
              ("shards", string_of_int cfg.Router.shards);
              ("buckets", string_of_int cfg.Router.buckets);
              ("lock_sets", string_of_int cfg.Router.lock_sets);
              ("seed", Int64.to_string cfg.Router.seed);
            ]
          ())
      telemetry
  in
  let reg = Metrics.create () in
  let m_bursts = Metrics.counter reg (Metrics.labelled "shard.bursts" ~shard) in
  let m_grants = Metrics.counter reg (Metrics.labelled "shard.grants" ~shard) in
  let m_msgs = Metrics.counter reg (Metrics.labelled "shard.msgs" ~shard) in
  let m_owned = Metrics.gauge reg (Metrics.labelled "shard.buckets_owned" ~shard) in
  let dir = Directory.create ~buckets:cfg.Router.buckets ~shards:cfg.Router.shards in
  let cell = Cell.create ~latency:cfg.Router.latency ~nodes:cfg.Router.nodes () in
  let stores = Array.init cfg.Router.buckets (fun _ -> Hashtbl.create 16) in
  let plan =
    Traffic.plan ~skew:cfg.Router.skew ~seed:cfg.Router.seed ~lock_sets:cfg.Router.lock_sets
      ~rounds:cfg.Router.rounds ~jobs_per_round:cfg.Router.jobs_per_round ()
  in
  let replays = ref [] in
  let owned_buckets () =
    let n = ref 0 in
    for b = 0 to cfg.Router.buckets - 1 do
      if Directory.home dir ~bucket:b = shard then incr n
    done;
    !n
  in
  let install_handoff ~bucket ~entries ~parked =
    Hashtbl.reset stores.(bucket);
    List.iter
      (fun (e : Shard_msg.handoff_entry) ->
        Hashtbl.replace stores.(bucket) e.Shard_msg.set (Router.set_state_of_entry e))
      entries;
    replays := !replays @ List.map (fun (set, burst) -> { Traffic.set; burst }) parked
  in
  for round = 0 to cfg.Router.rounds - 1 do
    (* Every replica starts the round's migrations deterministically:
       from here the bucket accepts no work, so its jobs park. *)
    List.iter
      (fun (m : Router.migration) ->
        if m.Router.round = round then
          Directory.begin_migration dir ~bucket:m.Router.bucket ~dst:m.Router.dst)
      migrations;
    let mine = ref [] in
    let parked = Array.make cfg.Router.buckets [] in
    let route (job : Traffic.job) =
      let bucket = Router.bucket_of_set ~buckets:cfg.Router.buckets job.Traffic.set in
      match Directory.migrating dir ~bucket with
      | Some _ ->
          if Directory.home dir ~bucket = shard then parked.(bucket) <- job :: parked.(bucket)
      | None -> if Directory.home dir ~bucket = shard then mine := job :: !mine
    in
    let pending = !replays in
    replays := [];
    List.iter route pending;
    Array.iter route plan.Traffic.rounds.(round);
    let round_bursts = ref 0 and round_grants = ref 0 in
    List.iter
      (fun (job : Traffic.job) ->
        let bucket = Router.bucket_of_set ~buckets:cfg.Router.buckets job.Traffic.set in
        let grants, _upgrades, msgs = Router.run_burst cfg cell stores.(bucket) job in
        incr round_bursts;
        round_grants := !round_grants + grants;
        Metrics.incr m_bursts;
        Metrics.add m_grants grants;
        Metrics.add m_msgs msgs)
      (List.rev !mine);
    (* Source side of a migration: the full bucket store and the parked
       jobs leave in one Handoff. *)
    List.iter
      (fun (m : Router.migration) ->
        if m.Router.round = round && Directory.home dir ~bucket:m.Router.bucket = shard then begin
          let bucket = m.Router.bucket in
          send
            (Shard_msg.Handoff
               {
                 bucket;
                 version = Directory.version dir ~bucket + 1;
                 entries = Router.entries_of_store stores.(bucket);
                 parked =
                   List.map
                     (fun (j : Traffic.job) -> (j.Traffic.set, j.Traffic.burst))
                     (List.rev parked.(bucket));
               });
          Hashtbl.reset stores.(bucket)
        end)
      migrations;
    send (Shard_msg.Round_done { shard; round; bursts = !round_bursts; grants = !round_grants });
    Metrics.set m_owned (float_of_int (owned_buckets ()));
    Option.iter (fun t -> Dcs_obs.Shard.snapshot t reg) tele;
    (* Barrier: consume coordinator traffic (inbound handoffs, directory
       updates) until this round's release. *)
    let rec wait () =
      match Codec.read_frame ic with
      | None -> failwith (Printf.sprintf "shard %d: coordinator closed mid-round" shard)
      | Some { Codec.payload = Codec.Shard msg; _ } -> (
          match msg with
          | Shard_msg.Handoff { bucket; version; entries; parked } ->
              install_handoff ~bucket ~entries ~parked;
              send (Shard_msg.Handoff_ack { bucket; version });
              wait ()
          | Shard_msg.Dir_update e -> (
              match Directory.apply_update dir e with
              | `Applied | `Stale -> wait ()
              | `Conflict ->
                  failwith (Printf.sprintf "shard %d: directory split-brain" shard))
          | Shard_msg.Round_done { round = r; _ } when r = round -> ()
          | _ -> wait ())
      | Some _ -> wait ()
    in
    wait ()
  done;
  (* Final report: every owned bucket's state goes back through the same
     handoff path, so the coordinator folds the digest from exactly the
     bytes a migration would ship. *)
  for bucket = 0 to cfg.Router.buckets - 1 do
    if Directory.home dir ~bucket = shard then
      send
        (Shard_msg.Handoff
           {
             bucket;
             version = Directory.version dir ~bucket;
             entries = Router.entries_of_store stores.(bucket);
             parked = [];
           })
  done;
  send
    (Shard_msg.Round_done
       {
         shard;
         round = cfg.Router.rounds;
         bursts = Metrics.value m_bursts;
         grants = Metrics.value m_grants;
       });
  Option.iter
    (fun t ->
      Dcs_obs.Shard.snapshot t reg;
      Dcs_obs.Shard.close t)
    tele;
  close_out_noerr oc

(* {1 Coordinator} *)

(* [Closed] marks a worker connection hitting EOF: expected once per
   worker after its final Round_done, fatal any earlier — the coordinator
   must fail loudly rather than wait forever for frames that can never
   arrive. *)
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
  let oc_of_shard s =
    match conns.(shard_conn.(s)) with
    | Some oc -> oc
    | None -> failwith "coordinator: shard connection lost"
  in
  let dir = Directory.create ~buckets:cfg.Router.buckets ~shards:cfg.Router.shards in
  let final = Hashtbl.create 64 in
  (* collected final set states *)
  let handoffs = Hashtbl.create 4 in
  (* bucket -> pending migration handoff *)
  let sh_bursts = Array.make cfg.Router.shards 0 in
  let sh_grants = Array.make cfg.Router.shards 0 in
  for round = 0 to cfg.Router.rounds do
    (* Round cfg.rounds is the final report: workers send their bucket
       states, then a closing Round_done. *)
    let done_from = Array.make cfg.Router.shards false in
    while Array.exists not done_from do
      match next () with
      | Closed c ->
          (* Legitimate only in the final report round, from a worker whose
             closing Round_done was already collected; any earlier EOF means
             a dead worker, and waiting for its frames would hang forever. *)
          let finished = ref false in
          for s = 0 to cfg.Router.shards - 1 do
            if shard_conn.(s) = c && done_from.(s) then finished := true
          done;
          if not (round = cfg.Router.rounds && !finished) then
            failwith "coordinator: worker disconnected mid-run"
      | Frame { conn; env } -> (
      let src = env.Codec.src in
      shard_conn.(src) <- conn;
      match env.Codec.payload with
      | Codec.Shard (Shard_msg.Round_done { shard; round = r; bursts; grants }) ->
          if r <> round then
            failwith (Printf.sprintf "coordinator: shard %d at round %d, expected %d" shard r round);
          if round = cfg.Router.rounds then begin
            sh_bursts.(shard) <- bursts;
            sh_grants.(shard) <- grants
          end;
          done_from.(shard) <- true
      | Codec.Shard (Shard_msg.Handoff { bucket; version; entries; parked }) ->
          if round = cfg.Router.rounds then
            (* Final report: fold the entries into the namespace view. *)
            List.iter
              (fun (e : Shard_msg.handoff_entry) ->
                Hashtbl.replace final e.Shard_msg.set (Router.set_state_of_entry e))
              entries
          else Hashtbl.replace handoffs bucket (version, entries, parked)
      | _ -> failwith "coordinator: unexpected frame")
    done;
    if round < cfg.Router.rounds then begin
      (* Commit this round's migrations: forward each stored handoff to
         its destination, wait for the ack, flip ownership, broadcast. *)
      List.iter
        (fun (m : Router.migration) ->
          if m.Router.round = round then begin
            let bucket = m.Router.bucket in
            let version, entries, parked =
              match Hashtbl.find_opt handoffs bucket with
              | Some h -> h
              | None -> failwith (Printf.sprintf "coordinator: no handoff for bucket %d" bucket)
            in
            Hashtbl.remove handoffs bucket;
            Directory.begin_migration dir ~bucket ~dst:m.Router.dst;
            send (oc_of_shard m.Router.dst) ~src:cfg.Router.shards
              (Shard_msg.Handoff { bucket; version; entries; parked });
            let await_ack () =
              match next () with
              | Closed _ -> failwith "coordinator: worker disconnected awaiting Handoff_ack"
              | Frame { conn; env } -> (
                  shard_conn.(env.Codec.src) <- conn;
                  match env.Codec.payload with
                  | Codec.Shard (Shard_msg.Handoff_ack { bucket = b; version = v })
                    when b = bucket && v = version ->
                      ()
                  | _ -> failwith "coordinator: expected Handoff_ack")
            in
            await_ack ();
            Directory.commit_migration dir ~bucket;
            let update = Shard_msg.Dir_update (Directory.entry dir ~bucket) in
            for s = 0 to cfg.Router.shards - 1 do
              send (oc_of_shard s) ~src:cfg.Router.shards update
            done
          end)
        migrations;
      (* Release the barrier. *)
      for s = 0 to cfg.Router.shards - 1 do
        send (oc_of_shard s) ~src:cfg.Router.shards
          (Shard_msg.Round_done { shard = cfg.Router.shards; round; bursts = 0; grants = 0 })
      done
    end
  done;
  List.iter Thread.join readers;
  let digest =
    Router.digest_of_store ~lock_sets:cfg.Router.lock_sets (fun set -> Hashtbl.find_opt final set)
  in
  let bursts = Array.fold_left ( + ) 0 sh_bursts in
  let grants = Array.fold_left ( + ) 0 sh_grants in
  Printf.printf "distributed run: %d shards, %d rounds, %d bursts, %d grants\n" cfg.Router.shards
    cfg.Router.rounds bursts grants;
  Array.iteri
    (fun s b ->
      let owned = ref 0 in
      for bk = 0 to cfg.Router.buckets - 1 do
        if Directory.home dir ~bucket:bk = s then incr owned
      done;
      Printf.printf "  shard %d: %d bursts, %d grants, %d buckets\n" s b sh_grants.(s) !owned)
    sh_bursts;
  Printf.printf "namespace digest: %Lx\n%!" digest;
  if not check then 0
  else begin
    (* The same plan, in-process, fanned over domains: byte-identical
       outcome or the distributed path is wrong. *)
    let reference = Router.run ~jobs:2 ~migrations cfg in
    let failures = ref [] in
    let expect name ok = if not ok then failures := name :: !failures in
    expect
      (Printf.sprintf "digest %Lx vs in-process %Lx" digest reference.Router.digest)
      (digest = reference.Router.digest);
    expect "burst count" (bursts = reference.Router.bursts);
    expect "grant count" (grants = reference.Router.grants);
    List.iter
      (fun (s : Router.shard_stat) ->
        expect
          (Printf.sprintf "shard %d balance" s.Router.shard)
          (s.Router.bursts = sh_bursts.(s.Router.shard)
          && s.Router.grants = sh_grants.(s.Router.shard)))
      reference.Router.shard_stats;
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
            expect "telemetry grants" (labelled_sum "shard.grants" = grants);
            expect "telemetry bursts" (labelled_sum "shard.bursts" = bursts)));
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
          "Re-run the identical plan in-process on multiple domains and require digest, \
           bursts, grants, per-shard balance and merged telemetry to match exactly.")

let migrate_arg =
  Arg.(
    value
    & opt_all (t3 ~sep:':' int int int) []
    & info [ "migrate" ] ~docv:"ROUND:BUCKET:DST"
        ~doc:"Migrate BUCKET to shard DST at the end of ROUND. Repeatable.")

let parse_migrations ~(cfg : Router.config) specs =
  let migrations =
    List.map
      (fun (round, bucket, dst) ->
        if round < 0 || round >= cfg.Router.rounds - 1 then begin
          (* The demo has a fixed round count, so parked jobs must have a
             later round to replay in. *)
          prerr_endline "migration round must satisfy 0 <= round < rounds - 1";
          exit 2
        end;
        { Router.round; bucket; dst })
      specs
  in
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
