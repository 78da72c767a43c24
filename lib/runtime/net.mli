(** Simulated point-to-point network over the discrete-event engine.

    Models the paper's testbed: a full-duplex switched LAN where disjoint
    point-to-point transfers proceed in parallel. Each message is delayed by
    a draw from the latency distribution (paper mean: 150 ms), scaled by an
    optional {!Dcs_sim.Topology} factor for the pair (racks, star, custom). Delivery is
    FIFO per directed node pair — the property a TCP connection gives the
    real transport, and one the protocol's release/grant epoch logic
    assumes; cross-pair ordering is arbitrary.

    An injectable {!Dcs_proto.Link.fault} hook (see {!set_fault}) lets
    {!Dcs_fault.Plan} degrade the network deterministically: per-message
    latency scaling, message drop and duplication, and holding messages in
    a partition buffer that {!flush_held} later re-dispatches in send
    order. Faults never reorder a live link: the per-pair FIFO floor is
    applied after any fault-added delay. *)

type t

(** [trace], when given, receives a record for every send, delivery,
    hold and drop; without it the net is untraced and never forces a
    message's [describe]. *)
val create :
  engine:Dcs_sim.Engine.t ->
  latency:Dcs_sim.Dist.t ->
  ?topology:Dcs_sim.Topology.t ->
  rng:Dcs_sim.Rng.t ->
  ?trace:Dcs_sim.Trace.t ->
  unit ->
  t

(** Rewind to the just-created state — counters zeroed, per-link FIFO
    floors forgotten, fault hook cleared, held/drop/duplicate accounting
    reset — so a pooled net can carry many independent runs. The caller
    owns the engine, rng and trace and resets/reseeds them alongside. *)
val reset : t -> unit

(** {1 Sending}

    A message travels as data: the receiver registers once as a port,
    and each send hands the net a payload for it. *)

(** A receiver of ['a] payloads. *)
type 'a port

(** [port ~env ~deliver ~describe] registers a receiver once.
    [deliver env src dst payload] runs at each delivered copy;
    [describe payload] renders it for the trace and is forced only when
    a trace is attached. [env] is the receiver's state, so [deliver] can
    be a closed function and the port needs no closure per receiver. *)
val port :
  env:'e ->
  deliver:('e -> Dcs_proto.Node_id.t -> Dcs_proto.Node_id.t -> 'a -> unit) ->
  describe:('a -> string) ->
  'a port

(** [post t port ~src ~dst ~cls payload] counts one message of class
    [cls] and schedules its delivery to [port] after a latency draw (kept
    FIFO with earlier [src]→[dst] messages). Each delivered copy costs
    one engine closure; a held message waits in the partition buffer as
    [(port, payload)]. *)
val post :
  t ->
  'a port ->
  src:Dcs_proto.Node_id.t ->
  dst:Dcs_proto.Node_id.t ->
  cls:Dcs_proto.Msg_class.t ->
  'a ->
  unit

(** [send t ~src ~dst ~cls ~describe deliver] is {!post} with the pair
    of closures as the payload: [deliver ()] runs at each delivered copy,
    and [describe] is forced only when tracing. Partially applied, it is
    a {!Dcs_proto.Link.send}, the form transports layer over. *)
val send :
  t ->
  src:Dcs_proto.Node_id.t ->
  dst:Dcs_proto.Node_id.t ->
  cls:Dcs_proto.Msg_class.t ->
  describe:(unit -> string) ->
  (unit -> unit) ->
  unit

(** Message counts by class since creation. *)
val counters : t -> Dcs_proto.Counters.t

(** Current simulation time (the engine's clock) — lets embeddings
    timestamp telemetry without holding the engine. *)
val now : t -> float

(** Messages sent but not yet delivered (including held ones). *)
val in_flight : t -> int

(** {1 Fault injection} *)

(** Install the fault hook consulted on every subsequent send. *)
val set_fault : t -> Dcs_proto.Link.fault -> unit

(** Remove the fault hook (back to perfectly reliable delivery). *)
val clear_fault : t -> unit

(** Re-dispatch every held message, in original send order, through the
    current fault hook (messages whose links are still severed are held
    again, behind newer traffic on the same buffer). Call at heal /
    resume points — {!Dcs_fault.Plan} schedules this automatically. *)
val flush_held : t -> unit

(** Messages currently parked in the partition buffer. *)
val held_count : t -> int

(** Messages discarded by the fault hook since creation. *)
val dropped : t -> int

(** Extra copies injected by the fault hook since creation. *)
val duplicated : t -> int

(** Mean of the latency distribution (for latency-factor normalization). *)
val mean_latency : t -> float
