(** Multi-shard reassembly: load N per-node telemetry shards, align their
    clocks causally, and decompose every request span into a critical path.

    {2 Clock alignment}

    Each shard is stamped with its own process's wall clock; clocks differ
    by an (assumed constant over the run) per-node skew. Every matched
    [Sent]/[Received] pair on an edge A→B measures an {e apparent delay}
    [d_ab = t_recv(B's clock) − t_send(A's clock) = delay + skew_B − skew_A].
    Taking the minimum [d_ab] over all pairs on the edge minimises the true
    delay term; with both directions measured, the symmetric-minimum-delay
    assumption gives [skew_B − skew_A = (min d_ab − min d_ba) / 2] (the
    classic NTP offset estimate), and a one-sided edge falls back to
    [min d_ab] (assume zero minimum delay). Relative skews propagate by BFS
    from the smallest node id of each connected component, whose offset is
    pinned to 0. Corrected time = local time − offset(node).

    {2 Critical paths}

    After merging, each span's [Requested..grant] segment is walked
    event-to-event and every gap is charged to exactly one bucket: [token]
    (cross-node gap closed by a token-transfer arrival), [net] (any other
    cross-node gap), [freeze] (queued time overlapping the queue node's
    frozen episodes, Rule 6), [queue] (remaining queued time), [local]
    (everything else). The buckets sum to the span's total wait. *)

open Dcs_modes
open Dcs_proto

type shard = {
  path : string;
  meta : (string * string) list;
  node : int;  (** meta ["node"], or [-1] when absent (single-recorder sim traces) *)
  events : Event.t list;  (** file order = shard-local time order *)
  gauges : (float * string * float) list;
  metrics : (float * string * [ `Counter | `Gauge ] * float) list;
      (** metric snapshot rows, file order; values are cumulative *)
  msgs : (Msg_class.t * (int * int)) list;  (** class → (count, bytes) *)
  counters : (Msg_class.t * int) list option;
  truncated : bool;  (** final line was partial and was dropped *)
}

(** Load one shard: the analyzer's only file reader. A parse failure on
    the final line marks the shard [truncated] (a killed process ends
    mid-line) instead of failing; failures anywhere else (errors name the
    line), a schema other than {!Jsonl.schema}, a missing leading meta line
    or a meta ["node"] that is not an integer are errors. *)
val load_shard : string -> (shard, string) result

(** Load several shards; fails on the first hard error, collects one
    warning string per truncated shard. *)
val load : string list -> (shard list * string list, string) result

(** Per-node clock offsets [(node, offset_ms)] from send/receive causality;
    subtract a node's offset from its timestamps to align. Nodes with no
    measured edge to their component root keep offset 0. *)
val align : shard list -> (int * float) list

(** All shards' events on one timeline, each shard's offset (keyed by its
    [node]) subtracted, stably sorted by corrected time. *)
val merged_events : ?offsets:(int * float) list -> shard list -> Event.t list

(** Freeze episodes (Rule 6) per [(lock, node)]: the intervals
    [(start, stop)] during which that node's frozen set was non-empty,
    newest first; an episode still open at the end of the events has
    [stop = infinity]. Events must be time-ordered. {!critical_paths}
    charges queued time against these intervals. *)
val freeze_episodes : Event.t list -> (int * int, (float * float) list) Hashtbl.t

type breakdown = {
  b_lock : int;
  b_requester : int;
  b_seq : int;
  b_mode : Mode.t;
  b_kind : [ `Local | `Token | `Upgrade ];
  b_hops : int;
  b_start : float;  (** corrected time of the [Requested] event *)
  b_finish : float;  (** corrected time of the grant *)
  b_local_ms : float;
  b_queue_ms : float;
  b_freeze_ms : float;
  b_net_ms : float;
  b_token_ms : float;
  b_events : Event.t list;  (** the segment, time-ordered *)
}

(** Sum of the five buckets (≈ [b_finish − b_start] up to clock noise). *)
val total_wait : breakdown -> float

(** Decompose merged, time-ordered events into per-segment critical paths.
    Returns the breakdowns in first-seen span order plus the number of
    incomplete segments (requested, never granted). *)
val critical_paths : Event.t list -> breakdown list * int

(** Per-class (count, bytes) summed across shards, {!Msg_class.all} order. *)
val summed_msgs : shard list -> (Msg_class.t * (int * int)) list

(** Authoritative transport counters summed across the shards that carry
    them; [None] if none do. *)
val summed_counters : shard list -> (Msg_class.t * int) list option

(** Cluster-wide metric totals: each shard's {e last} snapshot value per
    name (metrics are cumulative within a shard), summed across shards,
    name-sorted. *)
val metric_totals : shard list -> (string * float) list
