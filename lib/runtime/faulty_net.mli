(** A net under a fault plan: the one network path of every
    {!Experiment.run} and of the fuzzer. A run without faults passes the
    empty plan, whose net is exactly a plain {!Net}: no fault hook, no
    shim, no extra random draw.

    Building it fixes every random stream of the faults, so a faulty run
    is as reproducible as a clean one; running it turns the per-delivery
    oracle's [Failure] into a reported violation; and {!at_rest} is the
    book-keeping check once the engine drained. The custody watchdog is
    {!Hlock_cluster.watchdog}; each caller picks its period, which is part
    of its digests. *)

type t = {
  net : Net.t;
  shim : Dcs_fault.Reliable.t option;
      (** present exactly when the plan drops or duplicates messages *)
}

(** [create ~engine ~latency ?topology ?trace ~seed plan] builds the net
    (its RNG seeded [seed + 0x9E37]) and installs [plan] on it (the
    plan's RNG seeded [seed + 0x0FAD]); the empty plan installs nothing.
    When {!Dcs_fault.Plan.needs_shim}
    holds, a {!Dcs_fault.Reliable} shim sits between the protocol and the
    net, with an initial retransmission timeout of 4 × the latency mean
    (600 ms at the paper's 150 ms). *)
val create :
  engine:Dcs_sim.Engine.t ->
  latency:Dcs_sim.Dist.t ->
  ?topology:Dcs_sim.Topology.t ->
  ?trace:Dcs_sim.Trace.t ->
  seed:int64 ->
  Dcs_fault.Plan.t ->
  t

(** The link the cluster sends through: the shim's, when there is one
    ({!Hlock_cluster.create}'s [?transport]). *)
val transport : t -> Dcs_proto.Link.send option

(** [run ?until ?max_events engine] runs the engine; a [Failure] raised
    inside it (the safety oracle's) ends the run as
    [Error "safety: <message>"]. *)
val run :
  ?until:float -> ?max_events:int -> Dcs_sim.Engine.t -> (Dcs_sim.Engine.outcome, string) result

(** [at_rest t cluster], after the engine drained: [cluster] (the
    cluster's own quiescence violations, e.g.
    {!Hlock_cluster.quiescent_violations}), then the shim's undrained
    channels, then a count of the messages the net still carries or
    holds. Empty when everything is at rest. *)
val at_rest : t -> string list -> string list
