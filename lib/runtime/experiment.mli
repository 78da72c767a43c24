(** End-to-end drivers for the paper's evaluation (§4).

    One experiment = one cluster size × one driver × the airline workload.
    The three drivers mirror the paper's comparison:

    - [Hierarchical]: the paper's protocol; entry accesses take the table
      lock in an intention mode plus the entry lock, table accesses take
      the single table lock in R/U/W.
    - [Naimi_same_work]: the baseline emulating the same functionality —
      entry accesses take the entry's (exclusive) lock; table accesses
      take {e every} entry lock one by one in ascending order (the paper's
      deadlock-avoiding total order).
    - [Naimi_pure]: the baseline in its original single-lock setting
      (every operation contends for one global exclusive lock); provides
      the protocol-overhead floor, not the same functionality. *)

open Dcs_modes
open Dcs_proto

type driver =
  | Hierarchical
  | Naimi_same_work
  | Naimi_pure

val driver_to_string : driver -> string

type config = {
  nodes : int;
  driver : driver;
  workload : Dcs_workload.Airline.config;
  latency : Dcs_sim.Dist.t;  (** network latency; paper mean 150 ms *)
  topology : Dcs_sim.Topology.t;  (** per-pair latency scaling (default uniform) *)
  seed : int64;
  protocol : Dcs_hlock.Node.config;  (** hierarchical-protocol ablations *)
  oracle : bool;  (** re-check safety invariants after every message *)
  chaos : Dcs_fault.Plan.t option;
      (** degraded-network mode (default [None]): the run's {!Faulty_net}
          carries this plan instead of the empty one, with the
          {!Dcs_fault.Reliable} shim exactly when the plan needs it. Only
          supported by the [Hierarchical] driver, whose cluster then runs
          the per-delivery invariant oracle ({!Dcs_hlock.Invariant.safety}
          after every delivered message and client call) whatever
          [oracle] says. [Some []] runs exactly as [None] but reports. *)
}

(** Paper-parameter configuration for a driver and cluster size. *)
val default_config : driver:driver -> nodes:int -> config

(** Estimated busy-phase length of a run (ms) — for placing the windows of
    named fault plans ({!Dcs_fault.Plan.named}). An estimate: fault
    windows landing a factor of ~2 early or late still overlap live
    traffic. *)
val horizon_estimate : config -> float

(** What the fault machinery observed during a chaos run. *)
type chaos_report = {
  violations : string list;
      (** the oracle failure that ended the run early ([safety: ...]), or
          else the end-of-run quiescence failures (cluster book-keeping,
          undrained shim channels, in-flight messages); empty = clean
          run *)
  reliable_stats : Dcs_fault.Reliable.stats option;  (** [None] = no shim *)
  shim_overhead : float;  (** (acks + retransmits) / protocol messages *)
  net_dropped : int;  (** messages the fault layer discarded *)
  net_duplicated : int;  (** extra copies the fault layer injected *)
}

type result = {
  cfg : config;
  ops : int;  (** completed application operations *)
  lock_requests : int;  (** individual lock acquisitions issued *)
  messages : (Msg_class.t * int) list;  (** breakdown (Figure 7) *)
  total_messages : int;
  msgs_per_op : float;  (** Figure 5's y-axis (per application request) *)
  msgs_per_lock_request : float;
  mean_latency_ms : float;  (** mean time from issue to all locks held *)
  latency_factor : float;  (** Figure 6's y-axis: mean latency / mean
                               point-to-point latency *)
  p95_latency_ms : float;
  per_class : (Mode.t * int * float) list;
      (** per request class: count and mean acquisition latency (ms) *)
  latencies : Dcs_stats.Sample.t;  (** raw per-operation acquisition latencies *)
  sim_duration_ms : float;
  events : int;
  chaos_report : chaos_report option;  (** [Some] iff [cfg.chaos] was set *)
}

(** Run to completion (all nodes finish their ops and the event queue
    drains). Every run has one shape: one {!Faulty_net} (under the empty
    plan without chaos), one custody {!Hlock_cluster.watchdog} for the
    [Hierarchical] driver, one engine run and one at-rest verdict. The
    verdict is the oracle failure that ended the run early, or else,
    when the oracle is on, {!Faulty_net.at_rest} over the cluster's
    quiescence violations. A chaos run {e reports} it in
    [chaos_report], so harnesses can print it; any other run raises
    [Failure] on it. Every run raises [Failure] on liveness failure
    (operations that never complete, checked unless an oracle failure
    ended the run) and on the engine's event limit. [trace] (none by
    default) folds every network event into its digest, the
    reproducibility check for chaos runs.

    [recorder], when given, captures full request-lifecycle
    telemetry ({!Dcs_obs}): span events and per-class wire bytes from the
    cluster, plus gauges (total queue depth, copyset size, frozen nodes,
    in-flight messages) sampled on the engine tick hook at roughly one
    sample per mean network latency. Recording is observation-only — it
    draws no randomness and schedules no events — so results and trace
    digests are identical with or without it. *)
val run : ?trace:Dcs_sim.Trace.t -> ?recorder:Dcs_obs.Recorder.t -> config -> result

(** One row of the experiment summary table. *)
val result_row : result -> string list

val row_header : string list
