(* Tests for the sharded lock-namespace service: bucket directory
   invariants, placement-invariant digests, live migration without grant
   loss, snapshot/handoff codec fidelity, and the pooled-cell reset
   contract the router's determinism rests on. *)

module Directory = Dcs_shard.Directory
module Cell = Dcs_shard.Cell
module Traffic = Dcs_shard.Traffic
module Script = Dcs_workload.Script
module Router = Dcs_shard.Router
module Codec = Dcs_wire.Codec
module Shard_msg = Dcs_wire.Shard_msg
module Zipf = Dcs_workload.Zipf

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let check64 = Alcotest.check Alcotest.int64

(* {1 Directory} *)

let test_directory_basics () =
  let d = Directory.create ~buckets:6 ~shards:3 in
  checki "buckets" 6 (Directory.buckets d);
  checki "initial home" 2 (Directory.home d ~bucket:5);
  checki "initial version" 0 (Directory.version d ~bucket:5);
  Alcotest.check Alcotest.(list string) "valid at creation" [] (Directory.validate d);
  (* One migration: begin parks, commit flips home and bumps version. *)
  Directory.begin_migration d ~bucket:5 ~dst:0;
  checkb "migrating" true (Directory.migrating d ~bucket:5 = Some 0);
  checki "home unchanged until commit" 2 (Directory.home d ~bucket:5);
  Alcotest.check Alcotest.(list string) "valid mid-migration" [] (Directory.validate d);
  Directory.commit_migration d ~bucket:5;
  checki "home flipped" 0 (Directory.home d ~bucket:5);
  checki "version bumped" 1 (Directory.version d ~bucket:5);
  checkb "not migrating" true (Directory.migrating d ~bucket:5 = None)

let test_directory_errors () =
  let d = Directory.create ~buckets:2 ~shards:2 in
  let expect_invalid f = checkb "rejected" true (try f (); false with Invalid_argument _ -> true) in
  expect_invalid (fun () -> Directory.begin_migration d ~bucket:0 ~dst:0);
  (* self-migration *)
  expect_invalid (fun () -> Directory.begin_migration d ~bucket:0 ~dst:7);
  expect_invalid (fun () -> Directory.commit_migration d ~bucket:0);
  (* not migrating *)
  Directory.begin_migration d ~bucket:0 ~dst:1;
  expect_invalid (fun () -> Directory.begin_migration d ~bucket:0 ~dst:1);
  (* double begin *)
  expect_invalid (fun () -> ignore (Directory.home d ~bucket:9))

(* Whole-schedule validation: self-migrations (against the ownership map
   earlier entries produce) and same-round duplicates are rejected before
   any round runs — cross-process they would crash every worker at once. *)
let test_validate_migrations () =
  let cfg = { Router.default_config with Router.shards = 2; buckets = 4; rounds = 4 } in
  let expect_invalid f = checkb "rejected" true (try f (); false with Invalid_argument _ -> true) in
  let v ms = Router.validate_migrations cfg ms in
  v [];
  v [ { Router.round = 0; bucket = 0; dst = 1 } ];
  (* Legal: bucket 0 moves away, then back. *)
  v [ { Router.round = 0; bucket = 0; dst = 1 }; { Router.round = 1; bucket = 0; dst = 0 } ];
  (* bucket 1 starts at shard 1 (b mod shards): moving it there is a no-op. *)
  expect_invalid (fun () -> v [ { Router.round = 0; bucket = 1; dst = 1 } ]);
  (* Second entry targets the home the first one just established. *)
  expect_invalid (fun () ->
      v [ { Router.round = 0; bucket = 0; dst = 1 }; { Router.round = 1; bucket = 0; dst = 1 } ]);
  expect_invalid (fun () ->
      v [ { Router.round = 0; bucket = 0; dst = 1 }; { Router.round = 0; bucket = 0; dst = 0 } ]);
  expect_invalid (fun () -> v [ { Router.round = 9; bucket = 0; dst = 1 } ]);
  expect_invalid (fun () -> v [ { Router.round = 0; bucket = 9; dst = 1 } ]);
  expect_invalid (fun () -> v [ { Router.round = 0; bucket = 0; dst = 9 } ])

let test_directory_updates () =
  let a = Directory.create ~buckets:4 ~shards:2 in
  let b = Directory.create ~buckets:4 ~shards:2 in
  Directory.begin_migration a ~bucket:1 ~dst:0;
  Directory.commit_migration a ~bucket:1;
  (* Replica converges from the wire rows, in any order. *)
  List.iter
    (fun e -> ignore (Directory.apply_update b e))
    (List.rev (Directory.entries a));
  checki "replica converged" (Directory.home a ~bucket:1) (Directory.home b ~bucket:1);
  (* Stale and conflicting updates are detected, not applied. *)
  checkb "stale" true (Directory.apply_update b { bucket = 1; home = 1; version = 0 } = `Stale);
  checkb "conflict" true (Directory.apply_update b { bucket = 1; home = 1; version = 1 } = `Conflict);
  checki "conflict not applied" 0 (Directory.home b ~bucket:1)

let test_bucket_hash () =
  (* Stable, total, single-bucket degenerate case. *)
  for set = 0 to 999 do
    let b = Directory.bucket_of_set ~buckets:7 set in
    checkb "in range" true (b >= 0 && b < 7);
    checki "stable" b (Directory.bucket_of_set ~buckets:7 set);
    checki "one bucket" 0 (Directory.bucket_of_set ~buckets:1 set)
  done

(* {1 Placement-invariant digests}

   The headline guarantee: the same namespace traffic produces the same
   digest whatever the shard count, bucket count, worker count or
   migration schedule — including the unsharded 1×1 case. *)

let base_cfg =
  {
    Router.default_config with
    Router.shards = 1;
    buckets = 4;
    lock_sets = 12;
    nodes = 6;
    rounds = 3;
    jobs_per_round = 6;
    ops_per_burst = 3;
    seed = 11L;
  }

(* Golden values: the placement-invariance checks below compare runs with
   each other and cannot see a drifting RNG draw order or driver call
   order. *)
let burst_line (op : Script.op) =
  Printf.sprintf "at=%.3f node=%d mode=%s prio=%d hold=%.3f upgrade=%b" op.Script.at
    op.Script.node (Dcs_modes.Mode.to_string op.Script.mode) op.Script.priority op.Script.hold
    (op.Script.kind = Script.Acquire_upgrade)

let test_burst_golden () =
  Alcotest.check
    Alcotest.(list string)
    "burst ops"
    [
      "at=25.080 node=0 mode=R prio=0 hold=8.814 upgrade=false";
      "at=68.258 node=2 mode=U prio=3 hold=7.766 upgrade=true";
      "at=86.463 node=3 mode=R prio=0 hold=2.741 upgrade=false";
      "at=137.142 node=1 mode=IR prio=0 hold=1.024 upgrade=false";
      "at=157.690 node=2 mode=IR prio=0 hold=0.736 upgrade=false";
      "at=195.219 node=3 mode=U prio=0 hold=13.250 upgrade=false";
    ]
    (List.map burst_line (Script.burst ~seed:1L ~nodes:5 ~ops:6).Script.ops)

let test_router_golden () =
  let r = Router.run ~jobs:1 base_cfg in
  Alcotest.check Alcotest.string "digest" "a24bfa50d16c7474"
    (Printf.sprintf "%016Lx" r.Router.digest);
  checki "grants" 54 r.Router.grants;
  checki "upgrades" 5 r.Router.upgrades;
  checki "msgs" 140 r.Router.msgs

let test_digest_invariant_under_shards () =
  let r1 = Router.run ~jobs:1 { base_cfg with Router.shards = 1 } in
  let r2 = Router.run ~jobs:1 { base_cfg with Router.shards = 2 } in
  let r4 = Router.run ~jobs:1 { base_cfg with Router.shards = 4 } in
  check64 "1 vs 2 shards" r1.Router.digest r2.Router.digest;
  check64 "1 vs 4 shards" r1.Router.digest r4.Router.digest;
  checki "grants equal" r1.Router.grants r4.Router.grants;
  checki "msgs equal" r1.Router.msgs r4.Router.msgs;
  (* Per-bucket digests do not depend on who serves the bucket either. *)
  Alcotest.check
    Alcotest.(list (pair int int64))
    "bucket digests equal" r1.Router.bucket_digests r4.Router.bucket_digests

let test_digest_invariant_under_workers () =
  let a = Router.run ~jobs:1 { base_cfg with Router.shards = 3 } in
  let b = Router.run ~jobs:4 { base_cfg with Router.shards = 3 } in
  check64 "jobs 1 vs 4" a.Router.digest b.Router.digest

let test_digest_invariant_under_buckets () =
  (* The global digest folds sets in namespace order, so even the
     partition granularity is invisible — 1 bucket vs 8. *)
  let a = Router.run ~jobs:1 { base_cfg with Router.buckets = 1 } in
  let b = Router.run ~jobs:1 { base_cfg with Router.buckets = 8; shards = 2 } in
  check64 "1 vs 8 buckets" a.Router.digest b.Router.digest

let test_unsharded_equals_single_bucket_sharded () =
  (* ISSUE acceptance: single-bucket sharded run digest-identical to the
     unsharded service (shards = buckets = 1). *)
  let unsharded = Router.run ~jobs:1 { base_cfg with Router.shards = 1; buckets = 1 } in
  let sharded = Router.run ~jobs:2 { base_cfg with Router.shards = 4; buckets = 1 } in
  check64 "unsharded = single-bucket sharded" unsharded.Router.digest sharded.Router.digest

(* {1 Live migration} *)

(* A bucket that has jobs in round [r], so parking is actually exercised. *)
let busy_bucket cfg ~round =
  let plan =
    Traffic.plan ~skew:cfg.Router.skew ~seed:cfg.Router.seed ~lock_sets:cfg.Router.lock_sets
      ~rounds:cfg.Router.rounds ~jobs_per_round:cfg.Router.jobs_per_round ()
  in
  let job = plan.Traffic.rounds.(round).(0) in
  Router.bucket_of_set ~buckets:cfg.Router.buckets job.Traffic.set

let test_migration_preserves_digest_and_grants () =
  let cfg = { base_cfg with Router.shards = 3 } in
  let baseline = Router.run ~jobs:1 cfg in
  let bucket = busy_bucket cfg ~round:1 in
  let dst = (Directory.home (Directory.create ~buckets:cfg.Router.buckets ~shards:3) ~bucket + 1) mod 3 in
  let migrated =
    Router.run ~jobs:2 ~migrations:[ { Router.round = 1; bucket; dst } ] cfg
  in
  check64 "digest unchanged by migration" baseline.Router.digest migrated.Router.digest;
  checki "migrations applied" 1 migrated.Router.migrations_applied;
  checkb "parked jobs replayed" true (migrated.Router.parked_replayed > 0);
  checkb "handoff actually shipped bytes" true (migrated.Router.handoff_bytes > 0);
  (* Zero grant loss: every planned burst ran, every request granted. *)
  checki "bursts complete" baseline.Router.bursts migrated.Router.bursts;
  checki "grants complete" baseline.Router.grants migrated.Router.grants;
  checki "grants = bursts * ops"
    (migrated.Router.bursts * cfg.Router.ops_per_burst)
    migrated.Router.grants

let test_migration_chain () =
  (* The same bucket moves twice; a round-after-last replay round may be
     needed, and the digest still cannot tell. *)
  let cfg = { base_cfg with Router.shards = 4 } in
  let baseline = Router.run ~jobs:1 cfg in
  let bucket = busy_bucket cfg ~round:0 in
  let home0 = Directory.home (Directory.create ~buckets:cfg.Router.buckets ~shards:4) ~bucket in
  let migrations =
    [
      { Router.round = 0; bucket; dst = (home0 + 1) mod 4 };
      { Router.round = 2; bucket; dst = (home0 + 2) mod 4 };
    ]
  in
  let r = Router.run ~jobs:2 ~migrations cfg in
  check64 "digest invariant across chained migrations" baseline.Router.digest r.Router.digest;
  checki "both applied" 2 r.Router.migrations_applied;
  checkb "replay rounds allowed" true (r.Router.rounds_run >= cfg.Router.rounds)

let test_skewed_traffic_and_balance () =
  let cfg = { base_cfg with Router.shards = 2; skew = 0.95; lock_sets = 32 } in
  let a = Router.run ~jobs:1 cfg in
  let b = Router.run ~jobs:3 { cfg with Router.shards = 4 } in
  check64 "skewed digest placement-invariant" a.Router.digest b.Router.digest;
  (* Zipf concentrates bursts: the busiest set must clearly beat the mean. *)
  let stats = a.Router.shard_stats in
  checki "all bursts accounted" a.Router.bursts
    (List.fold_left (fun acc (s : Router.shard_stat) -> acc + s.Router.bursts) 0 stats);
  List.iter
    (fun (s : Router.shard_stat) -> checkb "every shard owns buckets" true (s.Router.buckets_owned > 0))
    b.Router.shard_stats

(* {1 Snapshot / handoff fidelity} *)

(* Drive one cell through a burst and return its quiescent export. *)
let run_burst cell ~seed ~ops =
  Cell.reset cell ~seed ~locks:1;
  ignore (Cell.drive cell (Script.burst ~seed ~nodes:5 ~ops));
  (match Cell.drain cell with Ok () -> () | Error _ -> Alcotest.fail "cell did not drain");
  Cell.export_lock cell ~lock:0

let quiescent_state ~seed = run_burst (Cell.create ~nodes:5 ()) ~seed ~ops:6

let test_export_restore_export_idempotent () =
  let snaps = quiescent_state ~seed:77L in
  let bytes = Codec.encode_cluster_state snaps in
  let snaps' = Codec.decode_cluster_state bytes in
  checkb "decode = original" true (snaps = snaps');
  (* Restoring into a cell and exporting again is the identity. *)
  let cell = Cell.create ~nodes:5 () in
  Cell.reset cell ~restore:[| snaps' |] ~seed:3L ~locks:1;
  let snaps'' = Cell.export_lock cell ~lock:0 in
  checkb "restore; export = identity" true (snaps = snaps'');
  Alcotest.check Alcotest.string "bytes stable" bytes (Codec.encode_cluster_state snaps'')

let test_restored_cell_continues_protocol () =
  (* A restored population must actually serve: request after restore. *)
  let snaps = quiescent_state ~seed:99L in
  let cell = Cell.create ~nodes:5 () in
  Cell.reset cell ~restore:[| snaps |] ~seed:5L ~locks:1;
  let writer node =
    { Script.at = 0.0; node; lock = 0; mode = Dcs_modes.Mode.W; priority = 0; hold = 5.0;
      kind = Script.Acquire }
  in
  let counts = Cell.drive cell { Script.nodes = 5; locks = 1; ops = List.map writer [ 0; 3; 4 ] } in
  checkb "drained" true (Cell.drain cell = Ok ());
  checki "all writers served after restore" 3 counts.Script.grants;
  Alcotest.check Alcotest.(list string) "quiescent" [] (Cell.quiescent_violations cell)

let test_pooled_reset_equals_fresh () =
  (* The pooling contract: a reset cell is observationally fresh. *)
  let fresh = Codec.encode_cluster_state (quiescent_state ~seed:123L) in
  let cell = Cell.create ~nodes:5 () in
  (* Dirty the cell with an unrelated burst, then reset and rerun. *)
  ignore (run_burst cell ~seed:555L ~ops:4);
  Alcotest.check Alcotest.string "reset cell = fresh cell" fresh
    (Codec.encode_cluster_state (run_burst cell ~seed:123L ~ops:6))

(* {1 Wire roundtrips for the shard payload} *)

let sample_shard_msgs () =
  let state = quiescent_state ~seed:31L in
  [
    Shard_msg.Dir_lookup { bucket = 3 };
    Shard_msg.Dir_info { bucket = 3; home = 1; version = 4 };
    Shard_msg.Dir_update { bucket = 0; home = 2; version = 1 };
    Shard_msg.Handoff
      {
        bucket = 2;
        version = 7;
        entries =
          [
            { Shard_msg.set = 9; bursts = 3; grants = 12; msgs = 48; state };
            { Shard_msg.set = 14; bursts = 1; grants = 4; msgs = 19; state = [||] };
          ];
        parked = [ (9, 3); (14, 1) ];
      };
    Shard_msg.Handoff_ack { bucket = 2; version = 7 };
    Shard_msg.Round_done { shard = 1; round = 5; bursts = 9; grants = 36 };
  ]

let test_shard_wire_roundtrip () =
  List.iter
    (fun m ->
      let env = { Codec.src = 1; lock = 0; payload = Codec.Shard m } in
      checkb "roundtrip" true (Codec.decode (Codec.encode env) = env))
    (sample_shard_msgs ())

let test_shard_wire_rejects_garbage () =
  let env = { Codec.src = 0; lock = 0; payload = Codec.Shard (Shard_msg.Dir_lookup { bucket = 1 }) } in
  let s = Codec.encode env in
  (* Truncations must raise, never misread. *)
  for len = 0 to String.length s - 1 do
    checkb "truncation rejected" true
      (try
         ignore (Codec.decode (String.sub s 0 len));
         false
       with Dcs_wire.Buf.Malformed _ -> true)
  done

(* {1 Zipf sampler} *)

let test_zipf_skew () =
  let rng = Dcs_sim.Rng.create ~seed:7L in
  let z = Zipf.create ~n:50 ~theta:0.99 in
  let counts = Array.make 50 0 in
  let draws = 20_000 in
  for _ = 1 to draws do
    let k = Zipf.sample z rng in
    checkb "in range" true (k >= 0 && k < 50);
    counts.(k) <- counts.(k) + 1
  done;
  checkb "rank 0 is hot" true (counts.(0) > draws / 10);
  checkb "head dominates tail" true (counts.(0) > 10 * counts.(49));
  (* theta = 0 is uniform-ish: no element takes a disproportionate share. *)
  let u = Zipf.create ~n:50 ~theta:0.0 in
  let ucounts = Array.make 50 0 in
  for _ = 1 to draws do
    ucounts.(Zipf.sample u rng) <- ucounts.(Zipf.sample u rng) + 1
  done;
  Array.iter (fun c -> checkb "uniform-ish" true (c < draws / 10)) ucounts

let test_traffic_plan_deterministic () =
  let mk () = Traffic.plan ~skew:0.9 ~seed:21L ~lock_sets:40 ~rounds:5 ~jobs_per_round:7 () in
  let a = mk () and b = mk () in
  checkb "plans equal" true (a = b);
  (* Burst ordinals count up per set, in plan order. *)
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun round ->
      Array.iter
        (fun (j : Traffic.job) ->
          let expect = Option.value (Hashtbl.find_opt seen j.Traffic.set) ~default:0 in
          checki "burst ordinal" expect j.Traffic.burst;
          Hashtbl.replace seen j.Traffic.set (expect + 1))
        round)
    a.Traffic.rounds

(* {1 Liveness regressions} *)

(* Bursts the 1M-set capstone soak found that never drained — all
   genuine protocol liveness bugs, all placement-independent pure
   functions of (seed, salt), so they make exact regression pins:
   - set 11897: a request without local custody (forwarded past an
     unrelated pending) swept the membership forever because the sweep
     permanently excluded its requester — the node the token had
     meanwhile landed on.
   - set 26758: a copy grant from a node the grantee already recorded
     as a child closed a two-node copyset cycle whose mutual release
     reports ping-ponged unboundedly after quiescence.
   - set 46410: a grant re-used a token-era epoch (drawn from the other
     side's counter), so the pre-grant weakening release passed the
     stale-epoch guard and left the parent's record under the child's
     owned mode — the narrowed freeze then never revoked the cached R
     a queued W needed, and the writer starved. *)
let test_soak_liveness_regressions () =
  let cfg =
    {
      Router.default_config with
      Router.shards = 1;
      buckets = 64;
      lock_sets = 1_000_000;
      nodes = 64;
      rounds = 5;
      jobs_per_round = 1250;
      ops_per_burst = 8;
      skew = 0.9;
      seed = 42L;
    }
  in
  let cell = Cell.create ~nodes:cfg.Router.nodes () in
  List.iter
    (fun set ->
      let store : (int, Router.set_state) Hashtbl.t = Hashtbl.create 4 in
      let grants, _, msgs = Router.run_burst cfg cell store { Traffic.set; burst = 0 } in
      checki (Printf.sprintf "set %d grants" set) cfg.Router.ops_per_burst grants;
      checkb (Printf.sprintf "set %d sent messages" set) true (msgs > 0))
    [ 11897; 26758; 46410 ]

(* A migration in the last plan round parks work that needs one replay
   round, and so does a chained migration whose last handoff carries only
   the replays it re-parked — every replica must see that without a
   message (Router.run fails if their verdicts and the real replays
   disagree). The first schedule is the @shard-smoke one. *)
let test_final_round_migrations () =
  let smoke = { Router.default_config with Router.shards = 2; rounds = 3 } in
  let r =
    Router.run ~jobs:2
      ~migrations:
        [ { Router.round = 1; bucket = 0; dst = 1 }; { Router.round = 2; bucket = 2; dst = 1 } ]
      smoke
  in
  Alcotest.(check string)
    "smoke digest" "f49402dd1316256d"
    (Printf.sprintf "%016Lx" r.Router.digest);
  checki "one replay round" 4 r.Router.rounds_run;
  checki "smoke jobs replayed" 2 r.Router.parked_replayed;
  let cfg =
    { Router.default_config with Router.shards = 4; rounds = 5; lock_sets = 8; jobs_per_round = 12 }
  in
  let baseline = Router.run ~jobs:1 cfg in
  let chained =
    Router.run ~jobs:2
      ~migrations:
        (List.map
           (fun (round, dst) -> { Router.round; bucket = 3; dst })
           [ (2, 0); (3, 1); (4, 2) ])
      cfg
  in
  check64 "chained digest" baseline.Router.digest chained.Router.digest;
  checki "chained replay round" 6 chained.Router.rounds_run

(* Liveness bugs of bench_e2e/README.md "Known liveness bugs": each
   set-up burst never drained. Three ended in an endless Release
   ping-pong; set 6308 stranded a request. Each check runs the burst to
   the engine's outcome within 200,000 events (milliseconds, where the
   default 100M-event limit takes a minute). *)
let run_set_up_burst ~seed ~nodes ~set ~burst =
  let cfg = { Router.default_config with Router.nodes; ops_per_burst = 8; seed } in
  let cell = Cell.create ~latency:cfg.Router.latency ~nodes () in
  let store = Hashtbl.create 4 in
  for b = 0 to burst - 1 do
    ignore (Router.run_burst cfg cell store { Traffic.set; burst = b })
  done;
  ignore (Router.start_burst cfg cell store { Traffic.set; burst });
  (Dcs_sim.Engine.run ~max_events:200_000 (Cell.engine cell), cell)

(* Fixed: the three ping-pongs drain since a node that already owns more
   than a late copy grant records, under another accounting parent,
   keeps that parent and cancels the granter's record instead of
   adopting it (DESIGN.md §2, repair 13). That repair alone, on the
   protocol before grants carried frozen sets, drains them too. Set
   6308's stranded request drains since a token sender that stays a
   child no longer copy-grants its new parent and a late grant no longer
   lowers the accounted epoch (rules 1 and C, extending repairs 13 and
   5). *)
let test_fixed_liveness_bug ~seed ~nodes ~set ~burst () =
  let outcome, cell = run_set_up_burst ~seed ~nodes ~set ~burst in
  checkb "burst drains" true (outcome = Dcs_sim.Engine.Drained);
  checki "nothing outstanding" 0 (Cell.outstanding cell)

(* [receive msg] fails with a message that ends in the frame's name. *)
let rejected receive msg =
  match receive msg with
  | _ -> false
  | exception Failure e ->
      let name = Format.asprintf "%a" Shard_msg.pp msg in
      checkb ("failure names " ^ name) true
        (String.length e >= String.length name
        && String.sub e (String.length e - String.length name) (String.length name) = name);
      true

(* The receive step applies one rule to every frame it does not expect:
   fail, naming it. *)
let test_replica_rejects_unexpected_frames () =
  let cfg = { base_cfg with Router.shards = 2 } in
  let replica = Router.Replica.create ~migrations:[] cfg ~shard:1 in
  let rejected = rejected (Router.Replica.receive replica) in
  checkb "barrier release of another round" true
    (rejected (Shard_msg.Round_done { shard = 2; round = 5; bursts = 0; grants = 0 }));
  checkb "stray ack" true (rejected (Shard_msg.Handoff_ack { bucket = 0; version = 1 }));
  checkb "handoff of a bucket not migrating here" true
    (rejected (Shard_msg.Handoff { bucket = 0; version = 1; entries = []; parked = [] }));
  let owned = Router.Replica.buckets_owned replica in
  checkb "directory updates still apply" true
    (Router.Replica.receive replica (Shard_msg.Dir_update { bucket = 0; home = 1; version = 1 })
    = None);
  checki "bucket 0 now owned here" (owned + 1) (Router.Replica.buckets_owned replica)

(* The relay rejects, by name, every frame out of its protocol, and a
   rejected frame leaves it where it was: the round still completes. *)
let test_coordinator_rejects_unexpected_frames () =
  let cfg = { base_cfg with Router.shards = 2 } in
  let coord =
    Router.Coordinator.create ~migrations:[ { Router.round = 0; bucket = 0; dst = 1 } ] cfg
  in
  let receive ~src msg = Router.Coordinator.receive coord ~src msg in
  let rejected ~src = rejected (receive ~src) in
  let handoff bucket =
    Shard_msg.Handoff { bucket; version = 1; entries = []; parked = [ (4, 0) ] }
  in
  let frames = Alcotest.(list (pair int string)) in
  let names out = List.map (fun (dst, m) -> (dst, Format.asprintf "%a" Shard_msg.pp m)) out in
  let round_done shard round = Shard_msg.Round_done { shard; round; bursts = 3; grants = 12 } in
  checkb "Round_done for the wrong round" true (rejected ~src:0 (round_done 0 1));
  checkb "Handoff of a bucket with no migration this round" true (rejected ~src:0 (handoff 2));
  checkb "directory traffic" true
    (rejected ~src:0 (Shard_msg.Dir_update { bucket = 0; home = 1; version = 1 }));
  checkb "Handoff from a shard that is not the bucket's home" true (rejected ~src:1 (handoff 0));
  Alcotest.check frames "handoff held" [] (names (receive ~src:0 (handoff 0)));
  Alcotest.check frames "shard 0 done" [] (names (receive ~src:0 (round_done 0 0)));
  checkb "Handoff_ack before the handoff went out" true
    (rejected ~src:1 (Shard_msg.Handoff_ack { bucket = 0; version = 1 }));
  checkb "second Round_done from one shard" true (rejected ~src:0 (round_done 0 0));
  Alcotest.check frames "last Round_done relays the handoff"
    [ (1, "Handoff b0 v1 |sets|=0 |parked|=1") ]
    (names (receive ~src:1 (round_done 1 0)));
  checkb "Handoff_ack with the wrong bucket" true
    (rejected ~src:1 (Shard_msg.Handoff_ack { bucket = 2; version = 1 }));
  checkb "Handoff_ack with the wrong version" true
    (rejected ~src:1 (Shard_msg.Handoff_ack { bucket = 0; version = 2 }));
  checkb "Handoff_ack from a shard that is not the destination" true
    (rejected ~src:0 (Shard_msg.Handoff_ack { bucket = 0; version = 1 }));
  Alcotest.check frames "ack: directory update, then barrier release"
    [
      (0, "Dir_update b0->s1 v1");
      (1, "Dir_update b0->s1 v1");
      (0, "Round_done s2 r0 bursts=0 grants=0");
      (1, "Round_done s2 r0 bursts=0 grants=0");
    ]
    (names (receive ~src:1 (Shard_msg.Handoff_ack { bucket = 0; version = 1 })));
  checkb "a stale ack" true (rejected ~src:1 (Shard_msg.Handoff_ack { bucket = 0; version = 1 }));
  checki "next round" 1 (Router.Coordinator.round coord);
  checkb "parked jobs: the next round runs" true (Router.Coordinator.runs_round coord);
  (* Rounds 1 and 2 carry no migration; the final report follows. *)
  List.iter
    (fun round ->
      ignore (receive ~src:0 (round_done 0 round));
      ignore (receive ~src:1 (round_done 1 round)))
    [ 1; 2 ];
  checkb "final report next" false (Router.Coordinator.runs_round coord);
  let final ?(sets = []) bucket version =
    let entry set = { Shard_msg.set; bursts = 1; grants = 2; msgs = 3; state = [||] } in
    Shard_msg.Handoff { bucket; version; entries = List.map entry sets; parked = [] }
  in
  checkb "final report from the bucket's old home" true (rejected ~src:0 (final 0 1));
  checkb "final report at a stale version" true (rejected ~src:1 (final 0 0));
  let elsewhere = List.find (fun set -> Router.bucket_of_set ~buckets:4 set <> 2) [ 0; 1; 2; 3 ] in
  checkb "final report of a set from another bucket" true
    (rejected ~src:0 (final ~sets:[ elsewhere ] 2 0));
  Alcotest.check frames "bucket 0 reported" [] (names (receive ~src:1 (final 0 1)));
  checkb "second final report of one bucket" true (rejected ~src:1 (final 0 1));
  Alcotest.check frames "bucket 2 reported" [] (names (receive ~src:0 (final 2 0)));
  ignore (receive ~src:0 (round_done 0 3));
  ignore (receive ~src:1 (round_done 1 3));
  checkb "finished" true (Router.Coordinator.finished coord);
  Alcotest.check_raises "a bucket nobody reported"
    (Failure "coordinator: no final report of bucket 1") (fun () ->
      ignore (Router.Coordinator.result coord))

let () =
  Alcotest.run "shard"
    [
      ( "directory",
        [
          Alcotest.test_case "basics" `Quick test_directory_basics;
          Alcotest.test_case "errors" `Quick test_directory_errors;
          Alcotest.test_case "replica updates" `Quick test_directory_updates;
          Alcotest.test_case "migration schedules" `Quick test_validate_migrations;
          Alcotest.test_case "bucket hash" `Quick test_bucket_hash;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "burst golden" `Quick test_burst_golden;
          Alcotest.test_case "router golden" `Quick test_router_golden;
          Alcotest.test_case "digest vs shard count" `Quick test_digest_invariant_under_shards;
          Alcotest.test_case "digest vs worker count" `Quick test_digest_invariant_under_workers;
          Alcotest.test_case "digest vs bucket count" `Quick test_digest_invariant_under_buckets;
          Alcotest.test_case "unsharded = 1-bucket sharded" `Quick
            test_unsharded_equals_single_bucket_sharded;
        ] );
      ( "migration",
        [
          Alcotest.test_case "digest and grants preserved" `Quick
            test_migration_preserves_digest_and_grants;
          Alcotest.test_case "chained migrations" `Quick test_migration_chain;
          Alcotest.test_case "skewed traffic balance" `Quick test_skewed_traffic_and_balance;
          Alcotest.test_case "final-round migrations replay" `Quick test_final_round_migrations;
          Alcotest.test_case "replica rejects unexpected frames" `Quick
            test_replica_rejects_unexpected_frames;
          Alcotest.test_case "coordinator rejects unexpected frames" `Quick
            test_coordinator_rejects_unexpected_frames;
        ] );
      ( "handoff state",
        [
          Alcotest.test_case "export/restore idempotent" `Quick test_export_restore_export_idempotent;
          Alcotest.test_case "restored cell serves" `Quick test_restored_cell_continues_protocol;
          Alcotest.test_case "pooled reset = fresh" `Quick test_pooled_reset_equals_fresh;
        ] );
      ( "wire",
        [
          Alcotest.test_case "shard payload roundtrip" `Quick test_shard_wire_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_shard_wire_rejects_garbage;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "plan deterministic" `Quick test_traffic_plan_deterministic;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "soak regression bursts drain" `Quick
            test_soak_liveness_regressions;
          Alcotest.test_case "fixed: set 32531 ping-pong drains" `Quick
            (test_fixed_liveness_bug ~seed:42L ~nodes:16 ~set:32531 ~burst:0);
          Alcotest.test_case "fixed: set 6308 stranding drains" `Quick
            (test_fixed_liveness_bug ~seed:42L ~nodes:8 ~set:6308 ~burst:1);
          Alcotest.test_case "fixed: set 34595 ping-pong drains" `Quick
            (test_fixed_liveness_bug ~seed:111L ~nodes:64 ~set:34595 ~burst:0);
          Alcotest.test_case "fixed: set 229484 ping-pong drains" `Quick
            (test_fixed_liveness_bug ~seed:129L ~nodes:64 ~set:229484 ~burst:0);
        ] );
    ]
