(** Structured telemetry recorder: the one sink every kind of run —
    simulated, chaos, shard worker and TCP node — records into.

    Zero-cost when absent: instrumented protocol code is handed no
    recorder at all (an [option]), so an unobserved run pays at most one
    branch per would-be event and allocates nothing. A recorder that is
    passed is on.

    The recorder ingests three streams —

    - {e span events} ({!record}): request-lifecycle events from the
      protocol engines, plus the TCP transport's [Sent]/[Received]
      events. Requests are counted ({!requested}) and grants are counted
      in the {!metrics} registry ([grants.<mode>], [grants.upgrades]);
    - {e message accounting} ({!message}): per-class counts and encoded
      byte sizes, supplied by the transport (the simulated clusters size
      each message with {!Dcs_wire}, the TCP runner counts written
      frames);
    - {e gauges} ({!gauge}): values sampled on the engine tick hook (queue
      depth, copyset size, frozen nodes, in-flight messages).

    Created with a [path], the recorder also writes one [dcs-obs/2] JSONL
    file ({!Jsonl}) as the run goes: the meta line at {!create}, each
    event and gauge line as it is recorded, flushed at once (a crashed
    process leaves a readable prefix and [dcs-trace top] can tail the
    file), [metric] lines at each {!snapshot}, and the final [metric],
    [msgs] and [counters] lines at {!close}.

    Recording only counts, streams and, when asked, retains: the recorder
    keeps no per-span state. Everything derived (acquisition latency per
    mode, grant paths, hop distributions, freeze episodes, critical paths)
    is computed from the written events by [dcs-trace analyze]
    ({!Merge}), the same way for every kind of run.

    Times come from the caller: simulated runs pass their engine's clock,
    TCP processes a {!Clock.wall}. All entry points are thread-safe (one
    mutex): the TCP runner records from stripe, reader and writer
    threads. Recording does not perturb a simulation — no RNG draws, no
    events scheduled — so trace digests are unchanged. *)

open Dcs_proto

type t

(** [create ?events ?path ?meta ()] — [events:true] (default [false])
    also keeps every event and gauge sample in memory, for {!events} and
    {!gauge_samples}; otherwise only the counters stay in memory, and a
    file, if any, still receives every line. With [path], the file is
    opened (truncated) and its meta line written at once: {!Jsonl.schema}
    first, then [meta] — the run parameters, and ["node"] for one process
    of a cluster ({!Merge} keys clock offsets on it). *)
val create : ?events:bool -> ?path:string -> ?meta:(string * string) list -> unit -> t

(** {1 Ingestion} *)

(** Record one lifecycle event under the given {!Event.scope}
    ([Span {requester; seq}] for request events, [Node] for
    {!Event.Frozen}/{!Event.Unfrozen}). *)
val record : t -> time:float -> lock:int -> node:Node_id.t -> Event.scope -> Event.kind -> unit

(** Count one protocol message of class [cls] with encoded size [bytes]. *)
val message : t -> cls:Msg_class.t -> bytes:int -> unit

(** Record one gauge sample. *)
val gauge : t -> time:float -> name:string -> value:float -> unit

(** Write the {!metrics} registry's {!Metrics.snapshot} as [metric] lines
    stamped [time]. No-op without a file. *)
val snapshot : t -> time:float -> unit

(** Write the closing lines — a final {!snapshot} at [time], one [msgs]
    line per class from the {!message} totals, and the transport's
    authoritative [counters] line when given — then close the file.
    Later writes are dropped; the in-memory views keep counting.
    Idempotent; no-op without a file. *)
val close : ?counters:(Msg_class.t * int) list -> t -> time:float -> unit

(** {1 Views} *)

(** Retained events, chronological. Empty unless created with
    [events:true]. *)
val events : t -> Event.t list

(** Events ingested (even when not retained). *)
val event_count : t -> int

(** [Requested] events seen (= spans opened; an upgrade re-opens its
    instance's span). *)
val requested : t -> int

(** Grants plus completed upgrades (= spans closed), read from the
    [grants.*] counters. *)
val completed : t -> int

(** The recorder's metric registry. It holds the [grants.*] counters,
    registered at the first grant, and whatever instruments the caller
    adds (the TCP runner's [net.*], a shard worker's [shard.*]). *)
val metrics : t -> Metrics.t

(** Per-class message counts, {!Msg_class.all} order. *)
val msg_counts : t -> (Msg_class.t * int) list

(** Per-class encoded byte totals, {!Msg_class.all} order. *)
val msg_bytes : t -> (Msg_class.t * int) list

(** All gauge samples in recording order as [(time, name, value)]. Empty
    unless created with [events:true]. *)
val gauge_samples : t -> (float * string * float) list
