(** A per-process telemetry shard: one [dcs-obs/2] JSONL file written live.

    Where {!Jsonl.write} dumps a finished {!Recorder} in one shot, a shard
    streams: the meta line goes out at {!create}, every {!event} is
    stamped with the shard's {!Clock.t} and flushed immediately (so a
    crashed process leaves a readable prefix and [dcs-trace top] can tail
    the file), {!snapshot} appends the current {!Metrics} registry as
    [metric] lines, and {!write_msgs}/{!write_counters} emit the closing
    accounting lines at stop. All entry points are thread-safe (one mutex
    around the channel) and become no-ops after {!close}.

    Each cluster process writes its own shard ([node-<id>.jsonl]); the
    {!Merge} module and [dcs-trace analyze] reassemble N shards into one
    causally-aligned timeline. *)

open Dcs_proto

type t

(** [create ~path ?clock ~meta ()] opens (truncates) [path] and writes the
    meta line. [meta] should include ["node"] (this process's node id —
    {!Merge} keys clock offsets on it) and ["nodes"]/["locks"]/["seed"] run
    parameters. Default clock: {!Clock.wall}. *)
val create : path:string -> ?clock:Clock.t -> meta:(string * string) list -> unit -> t

(** Append one event, stamped now, and flush. *)
val event : t -> lock:int -> node:Node_id.t -> Event.scope -> Event.kind -> unit

(** Account one protocol message (written frame) of class [cls] carrying
    [bytes] payload bytes. Accumulated in memory; emitted by
    {!write_msgs}. *)
val message : t -> cls:Msg_class.t -> bytes:int -> unit

(** Append the registry's {!Metrics.snapshot} as [metric] lines, all
    stamped with one timestamp, and flush. *)
val snapshot : t -> Metrics.t -> unit

(** Append per-class [msgs] lines from the accumulated {!message} totals. *)
val write_msgs : t -> unit

(** Append the authoritative transport [counters] line. *)
val write_counters : t -> (Msg_class.t * int) list -> unit

(** Close the file. Idempotent; subsequent writes are no-ops. *)
val close : t -> unit
