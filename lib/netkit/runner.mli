(** One node of a real TCP-connected cluster, running the hierarchical
    protocol for every configured lock object.

    Threads: one listener (accept loop), one reader per inbound connection,
    one writer per outbound peer (so protocol handlers never block on
    sockets), and one watchdog running the custody kick once a second.
    Protocol state is {e striped}: each lock object's engine has its own
    mutex, so traffic for independent locks dispatches concurrently. The
    engine owns each waiting client's continuation
    ({!Dcs_hlock.Node.request}) and runs it under that lock's stripe mutex:
    on a reader thread for a grant a message delivers, or inside
    {!request}/{!upgrade}, after the call's own messages are queued, for a
    grant the call itself makes. A continuation must not block or call
    into the same lock.

    The wire path is allocation-conscious: outbound messages queue as
    unencoded envelopes and a per-peer writer thread drains the whole
    queue under one lock acquisition, encodes the batch back-to-back into
    one reusable flat buffer (each frame 4-byte big-endian length prefix +
    envelope) and hands it to the kernel in a single write. Inbound frames
    decode in place from a per-connection reusable buffer. Every message
    the engine emits is queued as it is emitted, so the protocol on the
    wire is the one the simulator runs.

    Writer connections reconnect with capped exponential backoff; on a
    failed write, frames the kernel did not fully accept are requeued in
    order (a partially-written trailing frame is resent whole — the peer
    discards the truncated copy at end-of-stream). Frames are dropped only
    at {!stop}, and then the exact count is logged, or when one is larger
    than {!Dcs_wire.Codec.max_frame}, which the peer would reject.

    The token for every lock starts at node 0 — start node 0 first, or let
    connection retries smooth over the startup order. *)

type t

(** Build a runner for [self] in [config]. Does not touch the network.

    The runner records into one {!Dcs_obs.Recorder}, [telemetry] if given,
    else one with no file and no event log, stamping times with a
    {!Dcs_obs.Clock.wall} clock. It records every engine lifecycle event,
    a [Sent]/[Received] transport event per span-carrying frame (the
    causal edges [dcs-trace analyze] aligns clocks with) and the
    per-class accounting of written frames. The recorder's registry is
    {!metrics}. Give the recorder a file to stream this node's
    [dcs-obs/2] shard: the runner adds a metric snapshot at each kick,
    and {!stop} closes the recorder with the [msgs] and [counters]
    lines. *)
val create :
  ?telemetry:Dcs_obs.Recorder.t ->
  config:Cluster_config.t ->
  self:int ->
  unit ->
  t

(** Bind the listen port and start the service threads. Ignores SIGPIPE
    process-wide (a dead peer must surface as a write error the runner
    can retry, not kill the process). *)
val start : t -> unit

(** Block until every peer's listen port accepts a TCP connection (the
    probe connections are closed immediately; peers see them as empty
    sessions). Call after {!start} and before issuing requests so the
    first message storm never races peer startup. [Error] names the peers
    still unreachable when [timeout] (seconds, default 10) expires. *)
val await_peers : ?timeout:float -> t -> (unit, string) result

(** Stop the threads, close every socket and close the recorder.
    Idempotent. *)
val stop : t -> unit

(** {1 Asynchronous API (callbacks run under the lock's stripe mutex)} *)

val request : ?priority:int -> t -> lock:int -> mode:Dcs_modes.Mode.t -> on_granted:(unit -> unit) -> int
val release : t -> lock:int -> seq:int -> unit
val upgrade : t -> lock:int -> seq:int -> on_upgraded:(unit -> unit) -> unit

(** {1 Blocking convenience wrappers}

    Each waits at most a fixed deadline of a few seconds, far beyond the
    queueing a working cluster causes, and then raises [Failure] naming
    the node, lock and seq: a protocol or transport fault fails the
    caller instead of hanging it. *)

(** Acquire and wait for the grant; returns the ticket. *)
val request_sync : ?priority:int -> t -> lock:int -> mode:Dcs_modes.Mode.t -> int

(** Upgrade a held [U] ticket to [W] and wait. *)
val upgrade_sync : t -> lock:int -> seq:int -> unit

(** Messages sent by this node so far, by class. *)
val counters : t -> Dcs_proto.Counters.t

(** This node's id. *)
val id : t -> int

(** This node's whole protocol state for [lock] on one line
    ({!Dcs_hlock.Node.pp_state}), read under the lock's stripe mutex. *)
val lock_state : t -> lock:int -> string

(** {1 Runtime observability} *)

(** The live metrics registry, the recorder's, queryable while running.
    Transport counters: [net.frames_sent] (frames fully handed to the
    kernel), [net.bytes_sent] (their wire bytes, prefix included),
    [net.batches] (batched writes attempted), [net.partial_requeues]
    (failed writes that requeued unsent frames), [net.connects]
    (successful outbound connections), [net.reconnects] (connects that
    replaced an earlier session), [net.connect_retries] (failed attempts),
    [net.dropped_frames] (abandoned at shutdown or too large to send),
    [net.decode_errors] (malformed or oversized inbound frames, and frames
    whose sender id is outside the cluster), [net.frames_received] and
    [net.bytes_received] (payload bytes decoded). Gauges:
    [net.backoff_ms] (current reconnect backoff, 0 when connected) and
    [net.outbound_queue_depth]. Grant-mix counters: [grants.*]. *)
val metrics : t -> Dcs_obs.Metrics.t

(** Frames waiting in outbound queues now. *)
val queued_frames : t -> int
