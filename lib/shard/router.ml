(* The shard router: partitions the lock-set namespace into buckets,
   homes each bucket at exactly one shard (Directory), executes the
   namespace's request bursts round by round — every shard serving its
   own buckets on its own pooled Cell, fanned over domains with
   Dcs_netkit.Parallel — and migrates buckets between shards live at
   round boundaries.

   Between bursts a lock set's whole protocol state rests as one encoded
   blob (Codec.encode_cluster_state) in its bucket's store; a burst
   decodes it, runs to quiescence, and writes the new blob back. A
   migration therefore only has to move blobs: the source's bucket store
   travels inside a real Handoff wire message (encoded and re-decoded
   through Dcs_wire.Codec, exactly the bytes a cross-process handoff
   ships), together with the jobs that arrived for the bucket while it
   was migrating — parked, carried in the handoff, and replayed in
   arrival order by the new home before any of its next-round work.

   Determinism: the plan and every burst's content derive from
   (seed, set, burst ordinal) only — never from plan position, executing
   shard or domain — and a reset Cell is observationally fresh, so the
   final per-set states, grant counts and digests are invariant under
   shard count, bucket count, worker count and migration schedule. The
   unsharded service is literally the shards = buckets = 1 case. *)

module Rng = Dcs_sim.Rng
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

(* {1 Digests} *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L
let mix h x = Int64.mul (Int64.logxor h x) fnv_prime
let mix_int h i = mix h (Int64.of_int i)
let mix_string h s = String.fold_left (fun h c -> mix_int h (Char.code c)) h s

let mix_set h set (st : set_state) =
  let h = mix_int h set in
  let h = mix_int h st.s_bursts in
  let h = mix_int h st.s_grants in
  let h = mix_int h st.s_msgs in
  mix_string h st.state

let digest_of_store ~lock_sets find =
  let digest = ref fnv_offset in
  for set = 0 to lock_sets - 1 do
    match find set with None -> () | Some st -> digest := mix_set !digest set st
  done;
  !digest

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

let entry_of_set_state ~set (st : set_state) =
  {
    Shard_msg.set;
    bursts = st.s_bursts;
    grants = st.s_grants;
    msgs = st.s_msgs;
    state = Codec.decode_cluster_state st.state;
  }

(* Bucket store contents as sorted wire entries — handoff send order. *)
let entries_of_store tbl =
  let sets = Hashtbl.fold (fun set st acc -> (set, st) :: acc) tbl [] in
  let sets = List.sort (fun (a, _) (b, _) -> compare a b) sets in
  List.map (fun (set, st) -> entry_of_set_state ~set st) sets

(* {1 One burst}

   A pure function of (config.seed, job, prior state): reset the cell to
   the burst's seed and restored state, drive the burst's script, run to
   quiescence, export. [Cell.drain] returning [Ok] proves every request
   was granted — a burst cannot silently lose grants. *)

let run_burst cfg cell tbl (job : Traffic.job) =
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
  let counts =
    Cell.drive cell
      (Dcs_workload.Script.burst ~seed:burst_seed ~nodes:cfg.nodes ~ops:cfg.ops_per_burst)
  in
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
  (match prior with
  | Some p ->
      p.state <- bytes;
      p.s_bursts <- p.s_bursts + 1;
      p.s_grants <- p.s_grants + burst_grants;
      p.s_msgs <- p.s_msgs + burst_msgs
  | None ->
      Hashtbl.replace tbl job.Traffic.set
        { state = bytes; s_bursts = 1; s_grants = burst_grants; s_msgs = burst_msgs });
  (burst_grants, counts.upgrades, burst_msgs)

(* {1 The round loop} *)

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

let run ?jobs ?(migrations = []) cfg =
  if cfg.shards < 1 then invalid_arg "Router.run: need at least one shard";
  if cfg.buckets < 1 then invalid_arg "Router.run: need at least one bucket";
  if cfg.nodes < 1 then invalid_arg "Router.run: need at least one node";
  if cfg.ops_per_burst < 1 then invalid_arg "Router.run: need at least one op per burst";
  validate_migrations cfg migrations;
  let plan =
    Traffic.plan ~skew:cfg.skew ~seed:cfg.seed ~lock_sets:cfg.lock_sets ~rounds:cfg.rounds
      ~jobs_per_round:cfg.jobs_per_round ()
  in
  let dir = Directory.create ~buckets:cfg.buckets ~shards:cfg.shards in
  let cells = Array.init cfg.shards (fun _ -> Cell.create ~latency:cfg.latency ~nodes:cfg.nodes ()) in
  let stores = Array.init cfg.buckets (fun _ -> Hashtbl.create 16) in
  (* Cumulative per-shard accounting (the balance table). *)
  let sh_bursts = Array.make cfg.shards 0 in
  let sh_grants = Array.make cfg.shards 0 in
  let sh_msgs = Array.make cfg.shards 0 in
  let total_upgrades = ref 0 in
  let migrations_applied = ref 0 in
  let parked_replayed = ref 0 in
  let handoff_bytes = ref 0 in
  (* Jobs a committed handoff carried, to replay at the new home before
     its own next-round work; in park order. *)
  let replays : Traffic.job list array = Array.make cfg.shards [] in
  let have_replays () = Array.exists (fun l -> l <> []) replays in
  let rounds_run = ref 0 in
  let r = ref 0 in
  while !r < cfg.rounds || have_replays () do
    let round = !r in
    incr rounds_run;
    (* Migrations scheduled for this round start now: their buckets stop
       accepting work, so this round's jobs for them are parked. *)
    List.iter
      (fun m -> if m.round = round then Directory.begin_migration dir ~bucket:m.bucket ~dst:m.dst)
      migrations;
    (* Distribute: handoff replays first (they are older), then this
       round's plan, preserving issue order; migrating buckets park. *)
    let per_shard : Traffic.job list array = Array.make cfg.shards [] in
    let parked : Traffic.job list array = Array.make cfg.buckets [] in
    let route (job : Traffic.job) =
      let bucket = bucket_of_set ~buckets:cfg.buckets job.Traffic.set in
      match Directory.migrating dir ~bucket with
      | Some _ -> parked.(bucket) <- job :: parked.(bucket)
      | None ->
          let home = Directory.home dir ~bucket in
          per_shard.(home) <- job :: per_shard.(home)
    in
    let pending = Array.copy replays in
    Array.fill replays 0 cfg.shards [];
    Array.iter (List.iter route) pending;
    if round < cfg.rounds then Array.iter route plan.Traffic.rounds.(round);
    let per_shard = Array.map List.rev per_shard in
    (* Fan the round over domains; each shard touches only the stores of
       buckets it homes, so the workers are disjoint, and the join below
       is the happens-before barrier the next round (and any handoff)
       reads behind. *)
    let round_stats =
      Parallel.map ?jobs
        (fun s ->
          List.fold_left
            (fun (b, g, u, m) job ->
              let bucket = bucket_of_set ~buckets:cfg.buckets job.Traffic.set in
              let grants, upgrades, msgs = run_burst cfg cells.(s) stores.(bucket) job in
              (b + 1, g + grants, u + upgrades, m + msgs))
            (0, 0, 0, 0) per_shard.(s))
        (Array.init cfg.shards (fun s -> s))
    in
    Array.iteri
      (fun s (b, g, u, m) ->
        sh_bursts.(s) <- sh_bursts.(s) + b;
        sh_grants.(s) <- sh_grants.(s) + g;
        sh_msgs.(s) <- sh_msgs.(s) + m;
        total_upgrades := !total_upgrades + u)
      round_stats;
    (* Commit this round's migrations: full bucket state plus the parked
       jobs travel in one Handoff, through the real wire codec. *)
    List.iter
      (fun mg ->
        if mg.round = round then begin
          let bucket = mg.bucket in
          let src = Directory.home dir ~bucket in
          let entries = entries_of_store stores.(bucket) in
          let parked_jobs = List.rev parked.(bucket) in
          let handoff =
            Shard_msg.Handoff
              {
                bucket;
                version = Directory.version dir ~bucket + 1;
                entries;
                parked = List.map (fun (j : Traffic.job) -> (j.Traffic.set, j.Traffic.burst)) parked_jobs;
              }
          in
          let frame = Codec.encode { Codec.src; lock = 0; payload = Codec.Shard handoff } in
          handoff_bytes := !handoff_bytes + String.length frame;
          (* The receiving side sees only the bytes: everything a set's
             future behaviour depends on must round-trip through them.
             That is why upgrades are not part of the at-rest record —
             the wire entry carries (bursts, grants, msgs, state) and
             nothing else. *)
          (match (Codec.decode frame).Codec.payload with
          | Codec.Shard (Shard_msg.Handoff { bucket = b2; entries = entries2; parked = parked2; _ }) ->
              Hashtbl.reset stores.(b2);
              List.iter
                (fun (e : Shard_msg.handoff_entry) ->
                  Hashtbl.replace stores.(b2) e.Shard_msg.set (set_state_of_entry e))
                entries2;
              replays.(mg.dst) <-
                replays.(mg.dst)
                @ List.map (fun (set, burst) -> { Traffic.set; burst }) parked2;
              parked_replayed := !parked_replayed + List.length parked2
          | _ -> failwith "Router: handoff did not decode as a Handoff");
          Directory.commit_migration dir ~bucket;
          incr migrations_applied;
          match Directory.validate dir with
          | [] -> ()
          | problems -> failwith ("Router: directory invalid: " ^ String.concat "; " problems)
        end)
      migrations;
    incr r
  done;
  (* Final digests. The global digest folds sets in namespace order —
     independent of bucketing and placement; per-bucket digests fold each
     bucket's sets in set order — the balance/migration fingerprint. *)
  let bucket_digests =
    List.init cfg.buckets (fun b ->
        let sets = Hashtbl.fold (fun set st acc -> (set, st) :: acc) stores.(b) [] in
        let sets = List.sort (fun (a, _) (b, _) -> compare a b) sets in
        (b, List.fold_left (fun h (set, st) -> mix_set h set st) fnv_offset sets))
  in
  let digest =
    digest_of_store ~lock_sets:cfg.lock_sets (fun set ->
        Hashtbl.find_opt stores.(bucket_of_set ~buckets:cfg.buckets set) set)
  in
  let owned = Array.make cfg.shards 0 in
  for b = 0 to cfg.buckets - 1 do
    let h = Directory.home dir ~bucket:b in
    owned.(h) <- owned.(h) + 1
  done;
  {
    digest;
    bucket_digests;
    bursts = Array.fold_left ( + ) 0 sh_bursts;
    grants = Array.fold_left ( + ) 0 sh_grants;
    upgrades = !total_upgrades;
    msgs = Array.fold_left ( + ) 0 sh_msgs;
    shard_stats =
      List.init cfg.shards (fun s ->
          {
            shard = s;
            bursts = sh_bursts.(s);
            grants = sh_grants.(s);
            msgs = sh_msgs.(s);
            buckets_owned = owned.(s);
          });
    migrations_applied = !migrations_applied;
    parked_replayed = !parked_replayed;
    handoff_bytes = !handoff_bytes;
    rounds_run = !rounds_run;
  }
