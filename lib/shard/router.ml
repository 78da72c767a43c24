(* The shard router: partitions the lock-set namespace into buckets,
   homes each bucket at exactly one shard (Directory) and executes the
   namespace's request bursts round by round, migrating buckets between
   shards live at round boundaries.

   A round lives only in the shard replica, one shard's single-threaded
   state machine (the IronFleet sharded-hash-table shape): a bucket
   transfer is only a message. [run] drives one replica per shard in
   this process; bin/shard_node.exe drives one per OS process.

   Between bursts a lock set's whole protocol state rests as one encoded
   blob (Codec.encode_cluster_state) in its bucket's store, so migrating
   a bucket only moves blobs: its store travels in a Handoff together
   with the jobs parked while it migrated, which the new home replays in
   arrival order before any of its next-round work.

   Determinism: the plan and every burst's content derive from
   (seed, set, burst ordinal) only — never from plan position, executing
   shard or domain — and a reset Cell is observationally fresh, so the
   final per-set states, grant counts and digests are invariant under
   shard count, bucket count, worker count and migration schedule. The
   unsharded service is literally the shards = buckets = 1 case. *)

module Dist = Dcs_sim.Dist
module Codec = Dcs_wire.Codec
module Shard_msg = Dcs_wire.Shard_msg
module Parallel = Dcs_netkit.Parallel

type config = {
  shards : int;
  buckets : int;
  lock_sets : int;
  nodes : int;
  rounds : int;
  jobs_per_round : int;
  ops_per_burst : int;
  skew : float;
  seed : int64;
  latency : Dist.t;
}

let default_config =
  {
    shards = 1;
    buckets = 8;
    lock_sets = 16;
    nodes = 8;
    rounds = 4;
    jobs_per_round = 8;
    ops_per_burst = 4;
    skew = 0.0;
    seed = 42L;
    latency = Dist.uniform_around 150.0;
  }

type migration = { round : int; bucket : int; dst : int }

type shard_stat = { shard : int; bursts : int; grants : int; msgs : int; buckets_owned : int }

type result = {
  digest : int64;
  bucket_digests : (int * int64) list;
  bursts : int;
  grants : int;
  upgrades : int;
  msgs : int;
  shard_stats : shard_stat list;
  migrations_applied : int;
  parked_replayed : int;
  handoff_bytes : int;
  rounds_run : int;
}

(* At-rest record for one lock set: encoded cluster state plus the
   accounting that travels with it in a handoff. *)
type set_state = {
  mutable state : string;
  mutable s_bursts : int;
  mutable s_grants : int;
  mutable s_msgs : int;
}

let bucket_of_set = Directory.bucket_of_set

(* {1 Handoff conversions}

   A set's at-rest record and its wire form are interconvertible with no
   information to spare: the wire entry carries (set, bursts, grants,
   msgs, state) and the at-rest record keeps exactly those, so state that
   leaves through one and returns through the other is bit-identical. *)

let set_state_of_entry (e : Shard_msg.handoff_entry) =
  {
    state = Codec.encode_cluster_state e.Shard_msg.state;
    s_bursts = e.Shard_msg.bursts;
    s_grants = e.Shard_msg.grants;
    s_msgs = e.Shard_msg.msgs;
  }

let entry_of_set_state (set, st) =
  {
    Shard_msg.set;
    bursts = st.s_bursts;
    grants = st.s_grants;
    msgs = st.s_msgs;
    state = Codec.decode_cluster_state st.state;
  }

let by_set (a, _) (b, _) = compare a b

(* A bucket store's sets in ascending order — handoff send order. *)
let sorted_sets tbl = List.sort by_set (Hashtbl.fold (fun set st acc -> (set, st) :: acc) tbl [])

(* {1 Digests} *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L
let mix h x = Int64.mul (Int64.logxor h x) fnv_prime
let mix_int h i = mix h (Int64.of_int i)
let mix_string h s = String.fold_left (fun h c -> mix_int h (Char.code c)) h s

let mix_set h (set, st) =
  let h = mix_int h set in
  let h = mix_int h st.s_bursts in
  let h = mix_int h st.s_grants in
  let h = mix_int h st.s_msgs in
  mix_string h st.state

(* Callers pass the sets in ascending order. *)
let digest_of_sets sets = List.fold_left mix_set fnv_offset sets

let digest_of_entries entries =
  digest_of_sets
    (List.sort by_set (List.map (fun e -> (e.Shard_msg.set, set_state_of_entry e)) entries))

(* {1 One burst}

   A pure function of (config.seed, job, prior state): reset the cell to
   the burst's seed and restored state, drive the burst's script, run to
   quiescence, export. [Cell.drain] returning [Ok] proves every request
   was granted — a burst cannot silently lose grants. *)

let start_burst cfg cell tbl (job : Traffic.job) =
  let prior = Hashtbl.find_opt tbl job.Traffic.set in
  (match prior with
  | Some p when p.s_bursts <> job.Traffic.burst ->
      failwith
        (Printf.sprintf "Router: set %d expected burst %d, got %d (ordering violated)"
           job.Traffic.set p.s_bursts job.Traffic.burst)
  | None when job.Traffic.burst <> 0 ->
      failwith
        (Printf.sprintf "Router: set %d first burst has ordinal %d (handoff lost state?)"
           job.Traffic.set job.Traffic.burst)
  | _ -> ());
  let restore = Option.map (fun p -> [| Codec.decode_cluster_state p.state |]) prior in
  let burst_seed = Parallel.cell_seed ~base:cfg.seed ~salt:(Traffic.salt_of_job job) in
  Cell.reset ?restore cell ~seed:(Int64.add burst_seed 0x9E37L) ~locks:1;
  Cell.drive cell
    (Dcs_workload.Script.burst ~seed:burst_seed ~nodes:cfg.nodes ~ops:cfg.ops_per_burst)

let run_burst cfg cell tbl (job : Traffic.job) =
  let counts = start_burst cfg cell tbl job in
  (match Cell.drain cell with
  | Ok () -> ()
  | Error `Undrained ->
      failwith (Printf.sprintf "Router: burst (%d, %d) did not drain" job.Traffic.set job.Traffic.burst)
  | Error (`Stuck n) ->
      failwith
        (Printf.sprintf "Router: burst (%d, %d) lost %d grants" job.Traffic.set job.Traffic.burst n));
  let bytes = Codec.encode_cluster_state (Cell.export_lock cell ~lock:0) in
  let burst_msgs = Dcs_proto.Counters.total (Cell.message_counters cell) in
  let burst_grants = counts.grants in
  (match Hashtbl.find_opt tbl job.Traffic.set with
  | Some p ->
      p.state <- bytes;
      p.s_bursts <- p.s_bursts + 1;
      p.s_grants <- p.s_grants + burst_grants;
      p.s_msgs <- p.s_msgs + burst_msgs
  | None ->
      Hashtbl.replace tbl job.Traffic.set
        { state = bytes; s_bursts = 1; s_grants = burst_grants; s_msgs = burst_msgs });
  (burst_grants, counts.upgrades, burst_msgs)

let validate_migrations cfg migrations =
  List.iter
    (fun m ->
      if m.round < 0 || m.round >= cfg.rounds then
        invalid_arg (Printf.sprintf "Router.run: migration round %d out of range" m.round);
      if m.bucket < 0 || m.bucket >= cfg.buckets then
        invalid_arg (Printf.sprintf "Router.run: migration bucket %d out of range" m.bucket);
      if m.dst < 0 || m.dst >= cfg.shards then
        invalid_arg (Printf.sprintf "Router.run: migration dst %d out of range" m.dst))
    migrations;
  (* Replay the schedule against the ownership map it produces: a bucket
     migrated to its current home, or twice in one round, would otherwise
     only surface as a [Directory.begin_migration] failure deep inside the
     round loop — and, cross-process, inside every worker at once. *)
  let home = Array.init cfg.buckets (fun b -> b mod cfg.shards) in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun m ->
      if Hashtbl.mem seen (m.round, m.bucket) then
        invalid_arg
          (Printf.sprintf "Router.run: bucket %d migrated twice in round %d" m.bucket m.round);
      Hashtbl.add seen (m.round, m.bucket) ();
      if home.(m.bucket) = m.dst then
        invalid_arg
          (Printf.sprintf "Router.run: round %d migrates bucket %d to shard %d, its current home"
             m.round m.bucket m.dst);
      home.(m.bucket) <- m.dst)
    (List.stable_sort (fun a b -> compare a.round b.round) migrations)

(* {1 The shard replica} *)

module Replica = struct
  type counts = { bursts : int; grants : int; upgrades : int; msgs : int }

  type t = {
    cfg : config;
    migrations : migration list;
    shard : int;
    plan : Traffic.t;
    dir : Directory.t;
    cell : Cell.t;
    stores : (int, set_state) Hashtbl.t array;  (* per bucket; filled only while homed here *)
    mutable replays : Traffic.job list;  (* from inbound handoffs, in arrival order *)
    carrying : bool array;
        (* per bucket: its handoff last round carried parked jobs, wherever
           it was homed — so the round-count rule needs no message *)
  }

  let create ~migrations cfg ~shard =
    {
      cfg;
      migrations;
      shard;
      plan =
        Traffic.plan ~skew:cfg.skew ~seed:cfg.seed ~lock_sets:cfg.lock_sets ~rounds:cfg.rounds
          ~jobs_per_round:cfg.jobs_per_round ();
      dir = Directory.create ~buckets:cfg.buckets ~shards:cfg.shards;
      cell = Cell.create ~latency:cfg.latency ~nodes:cfg.nodes ();
      stores = Array.init cfg.buckets (fun _ -> Hashtbl.create 16);
      replays = [];
      carrying = Array.make cfg.buckets false;
    }

  (* Parked jobs are replayed the round after their handoff, so a round
     runs while the plan lasts or while any replica holds replays. *)
  let runs_round t ~round = round < t.cfg.rounds || Array.exists Fun.id t.carrying

  let owned t =
    List.init t.cfg.buckets Fun.id
    |> List.filter (fun bucket -> Directory.home t.dir ~bucket = t.shard)

  let round_step t ~round =
    let cfg = t.cfg in
    (* Every replica starts the round's migrations: from here the bucket
       accepts no work, so its jobs park. *)
    List.iter
      (fun m -> if m.round = round then Directory.begin_migration t.dir ~bucket:m.bucket ~dst:m.dst)
      t.migrations;
    (* Replays first (they are older), then this round's plan, in issue
       order. Plan jobs of migrating buckets park at every replica, which
       is how each one knows where parked work is carried. *)
    let mine = ref [] and parked = Array.make cfg.buckets [] in
    let route (job : Traffic.job) =
      let bucket = bucket_of_set ~buckets:cfg.buckets job.Traffic.set in
      if Directory.migrating t.dir ~bucket <> None then parked.(bucket) <- job :: parked.(bucket)
      else if Directory.home t.dir ~bucket = t.shard then mine := job :: !mine
    in
    let replays = t.replays in
    t.replays <- [];
    List.iter route replays;
    if round < cfg.rounds then Array.iter route t.plan.Traffic.rounds.(round);
    let counts =
      List.fold_left
        (fun c (job : Traffic.job) ->
          let bucket = bucket_of_set ~buckets:cfg.buckets job.Traffic.set in
          let grants, upgrades, msgs = run_burst cfg t.cell t.stores.(bucket) job in
          {
            bursts = c.bursts + 1;
            grants = c.grants + grants;
            upgrades = c.upgrades + upgrades;
            msgs = c.msgs + msgs;
          })
        { bursts = 0; grants = 0; upgrades = 0; msgs = 0 }
        (List.rev !mine)
    in
    (* A chained migration re-parks the replays its previous handoff
       carried, even when no plan job hits the bucket this round. *)
    Array.iteri
      (fun bucket jobs ->
        t.carrying.(bucket) <-
          Directory.migrating t.dir ~bucket <> None && (jobs <> [] || t.carrying.(bucket)))
      parked;
    (* Source side of a migration: the full bucket store and the parked
       jobs leave in one Handoff. *)
    let handoffs =
      List.filter_map
        (fun bucket ->
          if Directory.migrating t.dir ~bucket = None then None
          else begin
            let entries = List.map entry_of_set_state (sorted_sets t.stores.(bucket)) in
            Hashtbl.reset t.stores.(bucket);
            let version = Directory.version t.dir ~bucket + 1 in
            let parked = List.rev_map (fun (j : Traffic.job) -> (j.set, j.burst)) parked.(bucket) in
            Some (Shard_msg.Handoff { bucket; version; entries; parked })
          end)
        (owned t)
    in
    (counts, handoffs)

  let receive t msg =
    match msg with
    | Shard_msg.Handoff { bucket; version; entries; parked }
      when Directory.migrating t.dir ~bucket = Some t.shard
           && version = Directory.version t.dir ~bucket + 1 ->
        let store = t.stores.(bucket) in
        Hashtbl.reset store;
        List.iter (fun e -> Hashtbl.replace store e.Shard_msg.set (set_state_of_entry e)) entries;
        t.replays <- t.replays @ List.map (fun (set, burst) -> { Traffic.set; burst }) parked;
        Some (Shard_msg.Handoff_ack { bucket; version })
    | Shard_msg.Dir_update e -> (
        match Directory.apply_update t.dir e with
        | `Applied | `Stale -> (
            match Directory.validate t.dir with
            | [] -> None
            | problems -> failwith ("Router: directory invalid: " ^ String.concat "; " problems))
        | `Conflict ->
            failwith
              (Printf.sprintf "shard %d: directory split-brain on bucket %d" t.shard
                 e.Shard_msg.bucket))
    | msg -> failwith (Format.asprintf "shard %d: unexpected frame %a" t.shard Shard_msg.pp msg)

  let final_report t =
    List.map
      (fun bucket ->
        Shard_msg.Handoff
          {
            bucket;
            version = Directory.version t.dir ~bucket;
            entries = List.map entry_of_set_state (sorted_sets t.stores.(bucket));
            parked = [];
          })
      (owned t)

  let buckets_owned t = List.length (owned t)
end

(* {1 Driving every replica in one process} *)

let run ?jobs ?(migrations = []) cfg =
  if cfg.shards < 1 then invalid_arg "Router.run: need at least one shard";
  if cfg.buckets < 1 then invalid_arg "Router.run: need at least one bucket";
  if cfg.nodes < 1 then invalid_arg "Router.run: need at least one node";
  if cfg.ops_per_burst < 1 then invalid_arg "Router.run: need at least one op per burst";
  validate_migrations cfg migrations;
  let replicas = Array.init cfg.shards (fun shard -> Replica.create ~migrations cfg ~shard) in
  let totals = Array.make cfg.shards { Replica.bursts = 0; grants = 0; upgrades = 0; msgs = 0 } in
  let migrations_applied = ref 0 and parked_replayed = ref 0 and handoff_bytes = ref 0 in
  (* Each replica decides the round count from its own state; hold that
     verdict to the replays the replicas actually hold. *)
  let runs_round round =
    let expected = round < cfg.rounds || Array.exists (fun r -> r.Replica.replays <> []) replicas in
    if Array.exists (fun r -> Replica.runs_round r ~round <> expected) replicas then
      failwith (Printf.sprintf "Router: replicas disagree on running round %d" round);
    expected
  in
  let round = ref 0 in
  while runs_round !round do
    let r = !round in
    (* Replicas are disjoint, so their round steps fan over domains; the
       join is the barrier every handoff is delivered behind. *)
    let steps = Parallel.map ?jobs (fun rep -> Replica.round_step rep ~round:r) replicas in
    Array.iteri
      (fun src ((c : Replica.counts), handoffs) ->
        let t = totals.(src) in
        totals.(src) <-
          {
            bursts = t.bursts + c.bursts;
            grants = t.grants + c.grants;
            upgrades = t.upgrades + c.upgrades;
            msgs = t.msgs + c.msgs;
          };
        (* The destination sees only the bytes, so everything a set's
           future behaviour depends on must round-trip through them. *)
        List.iter
          (fun handoff ->
            let frame = Codec.encode { Codec.src; lock = 0; payload = Codec.Shard handoff } in
            handoff_bytes := !handoff_bytes + String.length frame;
            match (Codec.decode frame).Codec.payload with
            | Codec.Shard (Shard_msg.Handoff { bucket; version; parked; _ } as h) ->
                let dst = (List.find (fun m -> m.round = r && m.bucket = bucket) migrations).dst in
                (match Replica.receive replicas.(dst) h with
                | Some (Shard_msg.Handoff_ack { bucket = b; version = v })
                  when b = bucket && v = version ->
                    ()
                | _ -> failwith "Router: handoff not acknowledged");
                let update = Shard_msg.Dir_update { bucket; home = dst; version } in
                Array.iter (fun rep -> ignore (Replica.receive rep update)) replicas;
                parked_replayed := !parked_replayed + List.length parked;
                incr migrations_applied
            | _ -> failwith "Router: handoff did not decode as a Handoff")
          handoffs)
      steps;
    incr round
  done;
  (* The namespace digest folds every set in namespace order — independent
     of bucketing and placement; per-bucket digests fold each bucket's
     sets — the balance/migration fingerprint. *)
  let bucket_sets = Array.make cfg.buckets [] in
  Array.iter
    (fun rep ->
      List.iter
        (fun b -> bucket_sets.(b) <- sorted_sets rep.Replica.stores.(b))
        (Replica.owned rep))
    replicas;
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 totals in
  {
    digest = digest_of_sets (List.sort by_set (List.concat (Array.to_list bucket_sets)));
    bucket_digests = List.init cfg.buckets (fun b -> (b, digest_of_sets bucket_sets.(b)));
    bursts = sum (fun c -> c.Replica.bursts);
    grants = sum (fun c -> c.Replica.grants);
    upgrades = sum (fun c -> c.Replica.upgrades);
    msgs = sum (fun c -> c.Replica.msgs);
    shard_stats =
      List.init cfg.shards (fun s ->
          let c = totals.(s) in
          {
            shard = s;
            bursts = c.Replica.bursts;
            grants = c.Replica.grants;
            msgs = c.Replica.msgs;
            buckets_owned = Replica.buckets_owned replicas.(s);
          });
    migrations_applied = !migrations_applied;
    parked_replayed = !parked_replayed;
    handoff_bytes = !handoff_bytes;
    rounds_run = !round;
  }
