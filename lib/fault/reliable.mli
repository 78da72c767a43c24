(** Reliable-FIFO delivery over a lossy, duplicating, reordering link.

    The protocol engines ({!Dcs_hlock.Node}, {!Dcs_naimi.Naimi}) require
    exactly-once, per-pair-FIFO delivery — what TCP gives the real
    transport and what {!Dcs_runtime.Net} gives the simulator. This shim
    restores that contract over a degraded link so fault plans may drop
    and duplicate messages underneath an unmodified protocol:

    - every data message carries a per-directed-pair sequence number;
    - the receiver delivers strictly in sequence order, buffering
      ahead-of-sequence arrivals and discarding duplicates;
    - every arrival (fresh or duplicate) is acknowledged cumulatively;
    - unacknowledged messages are retransmitted on a timer with
      exponential backoff (class {!Dcs_proto.Msg_class.Retransmit}, so the
      overhead is visible in every counter report, separately from the
      protocol's own classes; acks are class [Ack]).

    The shim is deterministic (no RNG: timers are fixed offsets on the
    simulation clock) and quiesces — once the underlying link stops losing
    messages, all channels drain and no timer re-arms, so the engine's
    event queue empties exactly as in a fault-free run. *)

type t

(** Cumulative shim-level traffic accounting. *)
type stats = {
  data_sent : int;  (** first transmissions accepted from the protocols *)
  retransmits : int;  (** timer-driven re-sends *)
  acks : int;  (** acknowledgements sent *)
  duplicates_dropped : int;  (** arrivals discarded by receiver dedup *)
  buffered_out_of_order : int;  (** arrivals parked waiting for a gap *)
  max_unacked : int;  (** high-water mark of any channel's send window *)
}

(** [create ~engine ~below ()] wraps the lossy [below] link. [rto] is the
    initial retransmission timeout in ms (default 600, four times the
    paper's mean latency); it backs off exponentially per channel up to
    [8 *. rto] and resets when the channel drains. *)
val create :
  engine:Dcs_sim.Engine.t ->
  ?rto:float ->
  below:Dcs_proto.Link.send ->
  unit ->
  t

(** Drop-in replacement for {!Dcs_runtime.Net.send}: [send t] is a
    {!Dcs_proto.Link.send} delivering exactly once, in order, per directed
    pair — provided the underlying link eventually delivers some copy of
    every retransmitted message. *)
val send :
  t ->
  src:Dcs_proto.Node_id.t ->
  dst:Dcs_proto.Node_id.t ->
  cls:Dcs_proto.Msg_class.t ->
  describe:(unit -> string) ->
  (unit -> unit) ->
  unit

val stats : t -> stats

(** Channels that failed to drain: unacknowledged sends or receiver-side
    sequence gaps. Empty once the run has quiesced. *)
val quiescent_violations : t -> string list
