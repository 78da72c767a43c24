(** Deterministic traffic for the sharded lock-namespace service.

    The plan is drawn once against the namespace — before any placement
    decision — and burst contents derive from per-(set, burst) seeds, so
    neither depends on shard count, bucket count, executing domain or
    migration schedule. That independence is what lets the router promise
    digest-identical results across placements. *)

type job = { set : int; burst : int  (** per-set burst ordinal, 0-based *) }

type t = {
  lock_sets : int;
  rounds : job array array;  (** [rounds.(r)] in issue order *)
  total_bursts : int;
}

(** Semantic salt identifying one burst, for
    {!Dcs_netkit.Parallel.cell_seed}: position-independent, unique per
    (set, burst). The burst's ops are {!Dcs_workload.Script.burst} of the
    seed derived from it. *)
val salt_of_job : job -> int

(** Draw a plan: [rounds] rounds of [jobs_per_round] bursts each, lock
    sets chosen uniformly or Zipf-skewed by [skew] (theta in [0,1);
    {!Dcs_workload.Zipf}). Equal arguments give equal plans. *)
val plan : ?skew:float -> seed:int64 -> lock_sets:int -> rounds:int -> jobs_per_round:int -> unit -> t
