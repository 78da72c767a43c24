(* The shard router: partitions the lock-set namespace into buckets,
   homes each bucket at exactly one shard (Directory) and executes the
   namespace's request bursts round by round, migrating buckets between
   shards live at round boundaries.

   The service is two state machines that exchange Shard_msg frames (the
   IronFleet sharded-hash-table shape, where a bucket transfer is only a
   message): the replica, one shard's round step, and the coordinator,
   the relay between replicas. [run] pumps frames between one replica
   per shard and a coordinator in this process; bin/shard_node.exe runs
   one replica per worker process and the coordinator in its own.

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

(* {1 Digests}

   Folded from the at-rest records, so a digest costs no codec call. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L
let mix_int h i = Int64.mul (Int64.logxor h (Int64.of_int i)) fnv_prime
let mix_string h s = String.fold_left (fun h c -> mix_int h (Char.code c)) h s

(* Folds every set's (id, bursts, grants, msgs, state bytes); callers
   pass the sets in ascending order. *)
let digest_of_sets sets =
  let mix_set h (set, st) =
    mix_string (List.fold_left mix_int h [ set; st.s_bursts; st.s_grants; st.s_msgs ]) st.state
  in
  List.fold_left mix_set fnv_offset sets

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

let of_round migrations round = List.filter (fun m -> m.round = round) migrations

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
  (* Replay the schedule on a directory: a bucket migrated to its
     current home, or twice in one round, would otherwise only surface as
     a [Directory.begin_migration] failure deep inside the round loop —
     and, cross-process, inside every worker at once. *)
  let dir = Directory.create ~buckets:cfg.buckets ~shards:cfg.shards in
  for round = 0 to cfg.rounds - 1 do
    let ms = of_round migrations round in
    try
      List.iter (fun m -> Directory.begin_migration dir ~bucket:m.bucket ~dst:m.dst) ms;
      List.iter (fun m -> Directory.commit_migration dir ~bucket:m.bucket) ms
    with Invalid_argument e -> invalid_arg (Printf.sprintf "Router.run: round %d: %s" round e)
  done

(* {1 The shard replica} *)

module Replica = struct
  type counts = { bursts : int; grants : int; upgrades : int; msgs : int }

  let zero = { bursts = 0; grants = 0; upgrades = 0; msgs = 0 }

  let plus a b =
    {
      bursts = a.bursts + b.bursts;
      grants = a.grants + b.grants;
      upgrades = a.upgrades + b.upgrades;
      msgs = a.msgs + b.msgs;
    }

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
    mutable total : counts;  (* every round so far *)
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
      total = zero;
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
    let burst c (job : Traffic.job) =
      let bucket = bucket_of_set ~buckets:cfg.buckets job.Traffic.set in
      let grants, upgrades, msgs = run_burst cfg t.cell t.stores.(bucket) job in
      plus c { bursts = 1; grants; upgrades; msgs }
    in
    let counts = List.fold_left burst zero (List.rev !mine) in
    t.total <- plus t.total counts;
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
    ( counts,
      handoffs
      @ [
          Shard_msg.Round_done
            { shard = t.shard; round; bursts = counts.bursts; grants = counts.grants };
        ] )

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

  let finals t =
    List.map
      (fun bucket -> (bucket, Directory.version t.dir ~bucket, sorted_sets t.stores.(bucket)))
      (owned t)

  let closing t ~round =
    Shard_msg.Round_done { shard = t.shard; round; bursts = t.total.bursts; grants = t.total.grants }

  let final_report t ~round =
    List.map
      (fun (bucket, version, sets) ->
        Shard_msg.Handoff
          { bucket; version; entries = List.map entry_of_set_state sets; parked = [] })
      (finals t)
    @ [ closing t ~round ]

  let total t = t.total
  let buckets_owned t = List.length (owned t)
end

(* {1 The coordinator}

   The relay between replicas, as a state machine over frames: it never
   touches a store, so the same rule serves the in-process pump below and
   the coordinator process of bin/shard_node.exe. *)

module Coordinator = struct
  type t = {
    cfg : config;
    migrations : migration list;
    dir : Directory.t;  (* homes and versions as the acknowledged migrations leave them *)
    mutable round : int;
    mutable report : bool;  (* collecting the final report, not a round *)
    done_from : bool array;  (* per shard: this round's Round_done arrived *)
    handoffs : (int, Shard_msg.t) Hashtbl.t;  (* bucket -> this round's Handoff *)
    mutable relaying : migration list;
        (* this round's not yet acknowledged, in schedule order; once every
           Round_done is in, the head's Handoff is out *)
    mutable carried : bool;  (* a handoff relayed this round carried parked jobs *)
    mutable applied : int;
    mutable replayed : int;
    stats : shard_stat array;  (* from the final reports; no frame carries msgs *)
    finals : (int * set_state) list option array;  (* per bucket: its final sets *)
  }

  let create ~migrations cfg =
    {
      cfg;
      migrations;
      dir = Directory.create ~buckets:cfg.buckets ~shards:cfg.shards;
      round = 0;
      report = cfg.rounds <= 0;
      done_from = Array.make cfg.shards false;
      handoffs = Hashtbl.create 4;
      relaying = of_round migrations 0;
      carried = false;
      applied = 0;
      replayed = 0;
      stats =
        Array.init cfg.shards (fun shard ->
            { shard; bursts = 0; grants = 0; msgs = 0; buckets_owned = 0 });
      finals = Array.make cfg.buckets None;
    }

  let round t = t.round
  let runs_round t = not t.report
  let reported t ~shard = t.report && t.done_from.(shard)
  let finished t = t.report && Array.for_all Fun.id t.done_from

  let unexpected msg =
    failwith (Format.asprintf "coordinator: unexpected frame %a" Shard_msg.pp msg)

  (* [src] is [bucket]'s home and has not closed the round. *)
  let from_home t ~src bucket =
    bucket >= 0 && bucket < t.cfg.buckets
    && Directory.home t.dir ~bucket = src
    && not t.done_from.(src)

  (* Forward the next migration's Handoff to its destination, or, with
     every migration of the round acknowledged, release the barrier. *)
  let relay t =
    match t.relaying with
    | m :: _ -> (
        match Hashtbl.find_opt t.handoffs m.bucket with
        | Some h -> [ (m.dst, h) ]
        | None -> failwith (Printf.sprintf "coordinator: no handoff for bucket %d" m.bucket))
    | [] ->
        let round = t.round in
        Array.fill t.done_from 0 t.cfg.shards false;
        t.round <- round + 1;
        (* The replicas' round-count rule: one more round while the plan
           lasts or while a relayed handoff carried parked jobs. *)
        t.report <- not (t.round < t.cfg.rounds || t.carried);
        t.relaying <- of_round t.migrations t.round;
        t.carried <- false;
        List.init t.cfg.shards (fun s ->
            (s, Shard_msg.Round_done { shard = t.cfg.shards; round; bursts = 0; grants = 0 }))

  (* The first final report of [bucket], from its home at its version,
     of sets that hash to it. *)
  let reportable t ~src ~bucket ~version sets =
    t.report && from_home t ~src bucket
    && version = Directory.version t.dir ~bucket
    && t.finals.(bucket) = None
    && List.for_all (fun set -> bucket_of_set ~buckets:t.cfg.buckets set = bucket) sets

  let report t ~src ~bucket ~version sets =
    if not (reportable t ~src ~bucket ~version (List.map fst sets)) then
      failwith
        (Printf.sprintf "coordinator: unexpected final report of bucket %d v%d from shard %d"
           bucket version src);
    t.finals.(bucket) <- Some (List.sort by_set sets);
    let s = t.stats.(src) in
    t.stats.(src) <- { s with buckets_owned = s.buckets_owned + 1 }

  let receive t ~src msg =
    if src < 0 || src >= t.cfg.shards then unexpected msg;
    match msg with
    | Shard_msg.Round_done { shard; round; bursts; grants }
      when shard = src && round = t.round && not t.done_from.(shard) ->
        t.done_from.(shard) <- true;
        if t.report then t.stats.(shard) <- { (t.stats.(shard)) with bursts; grants };
        if (not t.report) && Array.for_all Fun.id t.done_from then relay t else []
    | Shard_msg.Handoff { bucket; version; entries; parked = [] }
      when reportable t ~src ~bucket ~version (List.map (fun e -> e.Shard_msg.set) entries) ->
        report t ~src ~bucket ~version
          (List.map (fun e -> (e.Shard_msg.set, set_state_of_entry e)) entries);
        []
    | Shard_msg.Handoff { bucket; version; _ }
      when (not t.report) && from_home t ~src bucket
           && List.exists (fun (m : migration) -> m.bucket = bucket) t.relaying
           && version = Directory.version t.dir ~bucket + 1
           && not (Hashtbl.mem t.handoffs bucket) ->
        Hashtbl.replace t.handoffs bucket msg;
        []
    | Shard_msg.Handoff_ack { bucket; version } -> (
        match (t.relaying, Hashtbl.find_opt t.handoffs bucket) with
        | m :: rest, Some (Shard_msg.Handoff h)
          when m.bucket = bucket && m.dst = src && h.version = version
               && Array.for_all Fun.id t.done_from ->
            Hashtbl.remove t.handoffs bucket;
            t.relaying <- rest;
            let update = { Shard_msg.bucket; home = m.dst; version } in
            ignore (Directory.apply_update t.dir update);
            t.applied <- t.applied + 1;
            t.replayed <- t.replayed + List.length h.parked;
            if h.parked <> [] then t.carried <- true;
            List.init t.cfg.shards (fun s -> (s, Shard_msg.Dir_update update)) @ relay t
        | _ -> unexpected msg)
    | msg -> unexpected msg

  let result t =
    Array.iteri
      (fun b sets ->
        if sets = None then failwith (Printf.sprintf "coordinator: no final report of bucket %d" b))
      t.finals;
    let finals = Array.map Option.get t.finals in
    let sum f = Array.fold_left (fun acc s -> acc + f s) 0 t.stats in
    {
      digest = digest_of_sets (List.sort by_set (List.concat (Array.to_list finals)));
      bucket_digests = List.init t.cfg.buckets (fun b -> (b, digest_of_sets finals.(b)));
      bursts = sum (fun s -> s.bursts);
      grants = sum (fun s -> s.grants);
      upgrades = 0;
      msgs = 0;
      shard_stats = Array.to_list t.stats;
      migrations_applied = t.applied;
      parked_replayed = t.replayed;
      handoff_bytes = 0;
      rounds_run = t.round;
    }

  let framed (r : result) =
    {
      r with
      upgrades = 0;
      msgs = 0;
      handoff_bytes = 0;
      shard_stats = List.map (fun (s : shard_stat) -> { s with msgs = 0 }) r.shard_stats;
    }
end

(* {1 Driving every replica in one process}

   A pump between the replicas and the coordinator: each frame a replica
   sends goes to the coordinator, and each frame the coordinator addresses
   goes to that replica, whose answer goes back to the coordinator. The
   barrier release is the loop itself. *)

let run ?jobs ?(migrations = []) cfg =
  if cfg.shards < 1 then invalid_arg "Router.run: need at least one shard";
  if cfg.buckets < 1 then invalid_arg "Router.run: need at least one bucket";
  if cfg.nodes < 1 then invalid_arg "Router.run: need at least one node";
  if cfg.ops_per_burst < 1 then invalid_arg "Router.run: need at least one op per burst";
  validate_migrations cfg migrations;
  let replicas = Array.init cfg.shards (fun shard -> Replica.create ~migrations cfg ~shard) in
  let coord = Coordinator.create ~migrations cfg in
  let handoff_bytes = ref 0 in
  let rec deliver src msg =
    List.iter
      (fun (dst, m) ->
        match m with
        | Shard_msg.Round_done _ -> ()
        | m -> Option.iter (deliver dst) (Replica.receive replicas.(dst) m))
      (Coordinator.receive coord ~src msg)
  in
  (* A handoff's destination sees only the bytes, so everything a set's
     future behaviour depends on must round-trip through them. *)
  let via_wire src msg =
    let frame = Codec.encode { Codec.src; lock = 0; payload = Codec.Shard msg } in
    (match msg with
    | Shard_msg.Handoff _ -> handoff_bytes := !handoff_bytes + String.length frame
    | _ -> ());
    match (Codec.decode frame).Codec.payload with
    | Codec.Shard msg -> msg
    | _ -> failwith "Router: a shard frame did not decode as one"
  in
  while not (Coordinator.finished coord) do
    let round = Coordinator.round coord and runs = Coordinator.runs_round coord in
    if Array.exists (fun rep -> Replica.runs_round rep ~round <> runs) replicas then
      failwith (Printf.sprintf "Router: replicas disagree with the coordinator on round %d" round);
    if runs then
      (* Replicas are disjoint, so their round steps fan over domains; the
         join is the barrier every handoff is delivered behind. *)
      Array.iteri
        (fun src (_, frames) -> List.iter (fun m -> deliver src (via_wire src m)) frames)
        (Parallel.map ?jobs (fun rep -> Replica.round_step rep ~round) replicas)
    else
      (* The final sets go over as they rest, so the report costs no
         codec call here; Replica.final_report is their frame form. *)
      Array.iteri
        (fun src rep ->
          List.iter
            (fun (bucket, version, sets) -> Coordinator.report coord ~src ~bucket ~version sets)
            (Replica.finals rep);
          deliver src (Replica.closing rep ~round))
        replicas
  done;
  let r = Coordinator.result coord in
  let sum f = Array.fold_left (fun acc rep -> acc + f (Replica.total rep)) 0 replicas in
  {
    r with
    upgrades = sum (fun c -> c.Replica.upgrades);
    msgs = sum (fun c -> c.Replica.msgs);
    handoff_bytes = !handoff_bytes;
    shard_stats =
      List.map
        (fun (s : shard_stat) -> { s with msgs = (Replica.total replicas.(s.shard)).Replica.msgs })
        r.shard_stats;
  }
