(** Structured telemetry recorder: the sink the simulated clusters write
    into.

    Zero-cost when absent: instrumented code is handed no recorder at all
    (an [option]), so an unobserved run pays at most one branch per
    would-be event and allocates nothing. A recorder that is passed is on.

    The recorder ingests three streams —

    - {e span events} ({!record}): request-lifecycle events from the
      protocol engines, retained for JSONL export (unless [events:false]).
      Grants are counted in a {!Metrics} registry under the TCP runner's
      names ([grants.<mode>], [grants.upgrades]), and acquisition latency
      is folded per mode for {!mode_stats};
    - {e message accounting} ({!message}): per-class counts and encoded
      byte sizes ({!Dcs_wire} sizes, supplied by the transport wrapper);
    - {e gauges} ({!gauge}): values sampled on the engine tick hook (queue
      depth, copyset size, frozen nodes, in-flight messages), retained as
      samples for export.

    Everything else (grant paths, hop distributions, freeze episodes,
    critical paths) is derived from the exported events by [dcs-trace
    analyze] ({!Merge}), the same way for simulated and TCP traces.

    A recorder observes exactly one run (one engine): times are that run's
    simulation clock. Recording does not perturb the simulation — no RNG
    draws, no events scheduled — so trace digests are unchanged. *)

open Dcs_modes
open Dcs_proto

type t

(** [create ()] — [events:false] (default [true]) keeps only the
    counters and latency folds and drops the per-event log and gauge
    samples, for long soaks where the full event stream would dwarf
    memory. *)
val create : ?events:bool -> unit -> t

(** {1 Ingestion} *)

(** Record one lifecycle event under the given {!Event.scope}
    ([Span {requester; seq}] for request events, [Node] for
    {!Event.Frozen}/{!Event.Unfrozen}). *)
val record : t -> time:float -> lock:int -> node:Node_id.t -> Event.scope -> Event.kind -> unit

(** Count one protocol message of class [cls] with encoded size [bytes]. *)
val message : t -> cls:Msg_class.t -> bytes:int -> unit

(** Record one gauge sample. No-op when created with [events:false]. *)
val gauge : t -> time:float -> name:string -> value:float -> unit

(** {1 Views} *)

(** Retained events, chronological. Empty when created with
    [events:false]. *)
val events : t -> Event.t list

(** Events ingested (even when not retained). *)
val event_count : t -> int

(** [Requested] events seen (= spans opened; an upgrade re-opens its
    instance's span). *)
val requested : t -> int

(** Grants plus completed upgrades (= spans closed), read from the
    [grants.*] counters. *)
val completed : t -> int

(** Spans currently open (requested, not yet granted). *)
val open_spans : t -> int

(** The recorder's metric registry: the [grants.*] counters
    ({!Metrics.grants}). {!Jsonl.write} exports its snapshot. *)
val metrics : t -> Metrics.t

(** Per-class message counts, {!Msg_class.all} order. *)
val msg_counts : t -> (Msg_class.t * int) list

(** Per-class encoded byte totals, {!Msg_class.all} order. *)
val msg_bytes : t -> (Msg_class.t * int) list

(** Acquisition-latency summary per mode, only modes with grants, in
    {!Mode.all} order. Quantiles come from a log-bucketed histogram
    (upper bucket bounds); means are exact. An upgrade closes its span as
    [W]. *)
type mode_stat = {
  mode : Mode.t;
  count : int;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

val mode_stats : t -> mode_stat list

(** All gauge samples in recording order as [(time, name, value)]. Empty
    when created with [events:false]. *)
val gauge_samples : t -> (float * string * float) list
