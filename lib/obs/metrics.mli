(** Named live metrics: counters, gauges, log-scaled histograms.

    A registry is a process-wide bag of named instruments that hot paths
    update without allocating: look the handle up once ({!counter},
    {!gauge}, {!histogram} find-or-create by name under the registry
    lock), then {!incr}/{!set}/{!observe} it from any thread.
    {!snapshot} flattens everything to (name, kind, value) rows for
    periodic JSONL export ({!Recorder.snapshot}) and the [dcs-trace top]
    live view. *)

type t
(** A metrics registry. Thread-safe. *)

type counter
(** A monotonically increasing integer. [incr]/[add] are a single
    [Atomic.fetch_and_add] — no lock, no allocation. *)

type gauge
(** A last-value-wins float (queue depth, current backoff). Unsynchronised
    single-word stores; racing writers can interleave but not tear. *)

type histogram
(** A log-scaled value distribution ({!Dcs_stats.Histogram}) behind its
    own mutex. *)

val create : unit -> t

val counter : t -> string -> counter
(** Find or create the counter with this name. *)

val gauge : t -> string -> gauge
val histogram : ?base:float -> ?min_value:float -> t -> string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val counter_name : counter -> string

val set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
val quantile : histogram -> float -> float

val snapshot : t -> (string * [ `Counter | `Gauge ] * float) list
(** All instruments as (name, kind, value) rows, sorted by name. Each
    histogram expands to four rows: [<name>.count] (a counter) and
    [<name>.p50]/[.p95]/[.p99] (gauges). *)

(** {2 Shard labels}

    Sharded services ({!Dcs_shard}) run one registry per shard and label
    instrument names with the owning shard, so merged telemetry keeps the
    series apart and [dcs-trace] can tabulate shard balance. *)

val labelled : string -> shard:int -> string
(** [labelled "grants" ~shard:3] is ["grants{shard=3}"]. Raises
    [Invalid_argument] on a negative shard id. *)

val shard_label : string -> (string * int) option
(** Parse a labelled name back: [shard_label "grants{shard=3}"] is
    [Some ("grants", 3)]; [None] for unlabelled names or malformed
    labels. *)
