(** The sharded lock-namespace service: lock sets hash to buckets
    ({!Directory.bucket_of_set}), every bucket has exactly one home shard
    ({!Directory}), and each shard executes its buckets' request bursts on
    a pooled {!Cell}.

    Execution proceeds in rounds, and the service is two state machines
    that exchange {!Dcs_wire.Shard_msg} frames: the {!Replica}, one
    shard's round step, and the {!Coordinator}, the relay between
    replicas. Between bursts a lock set's whole protocol state rests as
    an encoded blob ({!Dcs_wire.Codec.encode_cluster_state}); at a round
    boundary a bucket can migrate: its store travels in a
    {!Dcs_wire.Shard_msg.Handoff} message together with the requests
    that arrived while it was migrating, which the new home replays in
    arrival order before its own next-round work. {!run} pumps frames
    between one replica per shard and a coordinator in this process,
    passing every handoff through the wire codec; [bin/shard_node.exe]
    runs one replica per process and the coordinator in another.

    Everything a burst does derives from [(seed, set, burst ordinal)]
    and the set's restored state, so {!result.digest} is invariant under
    [shards], [buckets], worker count and migration schedule; the
    unsharded service is the [shards = buckets = 1] case. *)

type config = {
  shards : int;
  buckets : int;  (** namespace partitions; every participant must agree *)
  lock_sets : int;
  nodes : int;  (** population serving each lock set *)
  rounds : int;
  jobs_per_round : int;  (** bursts issued per round *)
  ops_per_burst : int;
  skew : float;  (** Zipf theta over lock sets; 0 = uniform *)
  seed : int64;
  latency : Dcs_sim.Dist.t;
}

(** 1 shard, 8 buckets, 16 lock sets of 8 nodes, 4 rounds × 8 bursts of
    4 ops, uniform, seed 42, the paper's LAN latency. *)
val default_config : config

(** Move [bucket] to shard [dst] at the boundary of [round]: jobs for it
    during [round] are parked and travel in the handoff. *)
type migration = { round : int; bucket : int; dst : int }

type shard_stat = {
  shard : int;
  bursts : int;
  grants : int;
  msgs : int;
  buckets_owned : int;  (** at the end of the run *)
}

type result = {
  digest : int64;
      (** folds every set's (id, bursts, grants, msgs, state bytes) in
          namespace order — placement-independent *)
  bucket_digests : (int * int64) list;  (** same fold per bucket *)
  bursts : int;  (** always the plan's total: no burst is lost *)
  grants : int;
  upgrades : int;
  msgs : int;
  shard_stats : shard_stat list;  (** the balance table *)
  migrations_applied : int;
  parked_replayed : int;
  handoff_bytes : int;  (** encoded Handoff frames *)
  rounds_run : int;  (** ≥ [rounds]: parked work may need extra rounds *)
}

val bucket_of_set : buckets:int -> int -> int

(** One lock set's at-rest record between bursts: its encoded cluster
    state and the accounting that travels with it in a handoff. *)
type set_state

(** Reset [cell] to one burst's seed and the set's state in the store,
    and schedule the burst's script without running it; returns its live
    counts. Raises [Failure] if the burst arrives out of order (its
    ordinal must equal the set's burst count). *)
val start_burst :
  config -> Cell.t -> (int, set_state) Hashtbl.t -> Traffic.job -> Dcs_workload.Script.counts

(** {!start_burst}, run to quiescence, and write the set's new state
    back to the store. Returns (grants, upgrades, msgs). Raises
    [Failure] if the burst does not drain or loses grants. *)
val run_burst : config -> Cell.t -> (int, set_state) Hashtbl.t -> Traffic.job -> int * int * int

(** Check a migration schedule against [cfg] without running it: raises
    [Invalid_argument] on out-of-range ids, a bucket migrated twice in
    one round, or a migration to the bucket's current home under the
    ownership map the earlier entries produce. *)
val validate_migrations : config -> migration list -> unit

(** {2 The shard replica} *)

module Replica : sig
  (** One shard: its {!Directory} replica, pooled {!Cell}, bucket stores
      and pending replays. Every message of a round's migrations must be
      received before the next round step. *)
  type t

  type counts = { bursts : int; grants : int; upgrades : int; msgs : int }

  val create : migrations:migration list -> config -> shard:int -> t

  (** The round-count rule: [round] runs while the plan lasts or any
      replica holds replays. Every replica reaches the same verdict. *)
  val runs_round : t -> round:int -> bool

  (** Start [round]'s migrations, route replays and then the plan
      round, park the jobs of migrating buckets and run this shard's
      bursts. Returns the round's counts and the frames for the
      coordinator: a [Handoff] (store and parked jobs) per bucket this
      shard gives away, then the round's [Round_done]. *)
  val round_step : t -> round:int -> counts * Dcs_wire.Shard_msg.t list

  (** A [Handoff] for a bucket migrating here is installed, its parked
      jobs queued, and its [Handoff_ack] returned; a [Dir_update] is
      applied version-monotonically. Any other frame raises [Failure]
      naming it. *)
  val receive : t -> Dcs_wire.Shard_msg.t -> Dcs_wire.Shard_msg.t option

  (** Every bucket this shard homes, empty ones too, as
      [(bucket, directory version, sets in ascending order)]. *)
  val finals : t -> (int * int * (int * set_state) list) list

  (** The [Round_done] that closes a run after its last [round],
      carrying the run's burst and grant totals. *)
  val closing : t -> round:int -> Dcs_wire.Shard_msg.t

  (** The frames that close a run: a [Handoff] of each of {!finals},
      then {!closing}. *)
  val final_report : t -> round:int -> Dcs_wire.Shard_msg.t list

  (** The counts of every round so far. *)
  val total : t -> counts

  val buckets_owned : t -> int
end

(** {2 The coordinator} *)

module Coordinator : sig
  (** The relay between replicas. It collects each round's [Round_done]
      frames and [Handoff]s, forwards each scheduled migration's
      [Handoff] to its destination, waits for the matching
      [Handoff_ack], broadcasts the [Dir_update] and then releases the
      barrier with a [Round_done] from shard id [shards] to every
      replica. One more round runs exactly when a relayed handoff
      carried parked jobs. The round after the last collects the final
      reports ({!Replica.final_report}). *)
  type t

  val create : migrations:migration list -> config -> t

  (** The round whose frames it collects. *)
  val round : t -> int

  (** [false] once {!round} is the final report. *)
  val runs_round : t -> bool

  (** Take one frame from shard [src] and return the frames it sends, as
      [(destination shard, frame)] in send order. A [Handoff] counts
      only from the bucket's home under the acknowledged migrations, and
      a [Handoff_ack] only from the migration's destination. Any frame
      the relay does not expect now (a [Round_done] of another round or
      a repeat, a [Handoff] of a bucket with no migration this round or
      a second final report of one, a [Handoff_ack] other than the one
      awaited, directory traffic) raises [Failure] naming it. *)
  val receive : t -> src:int -> Dcs_wire.Shard_msg.t -> (int * Dcs_wire.Shard_msg.t) list

  (** A final-report [Handoff] as its at-rest sets ({!Replica.finals}),
      with the same checks as {!receive}: the frame-free path of an
      in-process run. *)
  val report : t -> src:int -> bucket:int -> version:int -> (int * set_state) list -> unit

  (** [shard]'s closing [Round_done] has arrived. *)
  val reported : t -> shard:int -> bool

  (** Every closing [Round_done] has arrived. *)
  val finished : t -> bool

  (** The run as the final reports tell it: digest, bucket digests,
      bursts, grants, buckets owned, migrations, replays and rounds.
      Raises [Failure] if a bucket was never reported. No frame carries
      upgrades, message counts or frame sizes, so these read as in
      {!framed}. *)
  val result : t -> result

  (** [r] with what no frame carries ([upgrades], [msgs],
      [handoff_bytes] and every shard's [msgs]) set to 0: the part of a
      {!run} result a coordinator can check. *)
  val framed : result -> result
end

(** Execute the whole plan on [shards] replicas and one {!Coordinator}
    in this process, pumping every frame between them; each round-step
    frame crosses the wire codec on the way. [jobs] caps the worker
    domains per round step (default as in {!Dcs_netkit.Parallel.map});
    results do not depend on it.
    [upgrades] and [msgs] are the replicas' own totals. Raises [Failure]
    if a burst fails to drain or loses grants, or if a replica's
    {!Replica.runs_round} disagrees with the coordinator, or
    [Invalid_argument] for malformed configs/migrations (see
    {!validate_migrations}). *)
val run : ?jobs:int -> ?migrations:migration list -> config -> result
