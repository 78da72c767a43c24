(** A pooled shard execution cell: simulated clock, network, protocol
    cluster and the custody watchdog that {!Core.Service} is a facade
    over.

    A cell is allocated once per shard and rewound with {!reset} between
    bursts: the event queue, the network's delivery tables and the
    latency RNG are reset in place, and the cluster is rebuilt — from
    the initial star, or from handoff snapshots via [restore]. A reset
    cell behaves identically to a freshly created one, so a burst's
    outcome is a pure function of its seed and restored state,
    independent of which shard (or domain, or process) runs it. *)

open Dcs_modes

type t

(** [latency] defaults to the paper's LAN (uniform around 150 ms);
    [nodes] is the population every lock object is served over. *)
val create : ?latency:Dcs_sim.Dist.t -> nodes:int -> unit -> t

(** Rewind the cell and rebuild its cluster with [locks] lock objects.
    [seed] drives the network latency draws; [restore] rebuilds nodes
    from {!export_lock} snapshots (indexed lock × node) instead of the
    initial star; [config]/[oracle] as in
    {!Dcs_runtime.Hlock_cluster.create}. *)
val reset :
  ?config:Dcs_hlock.Node.config ->
  ?oracle:bool ->
  ?restore:Dcs_hlock.Node.snapshot array array ->
  t ->
  seed:int64 ->
  locks:int ->
  unit

val engine : t -> Dcs_sim.Engine.t
val cluster : t -> Dcs_runtime.Hlock_cluster.t
val nodes : t -> int

(** Requests and upgrades issued but not yet granted: the sum of
    {!Dcs_hlock.Node.waiting} over every engine of the current cluster. *)
val outstanding : t -> int

val now : t -> float
val schedule : t -> after:float -> (unit -> unit) -> unit
val mean_latency : t -> float
val message_counters : t -> Dcs_proto.Counters.t

(** Issue a request and keep the custody watchdog
    ({!Dcs_runtime.Hlock_cluster.watchdog}, every 8 mean latencies)
    scheduled while any request is {!outstanding}; once it stopped, the
    next request or upgrade re-arms it. [on_granted] may fire
    synchronously. Returns the ticket's sequence number. *)
val request :
  ?priority:int -> t -> node:int -> lock:int -> mode:Mode.t -> on_granted:(unit -> unit) -> int

val release : t -> node:int -> lock:int -> seq:int -> unit

(** U→W upgrade; outstanding until it completes, like {!request}. *)
val upgrade : t -> node:int -> lock:int -> seq:int -> on_upgraded:(unit -> unit) -> unit

(** Schedule a script's ops on this cell through {!request}, {!upgrade}
    and {!release} ({!Dcs_workload.Script.drive}), relative to {!now}.
    The script must fit the cell: node and lock ids below {!nodes} and
    the [locks] of the last {!reset}. Run it with {!drain}. *)
val drive : t -> Dcs_workload.Script.t -> Dcs_workload.Script.counts

(** Run the simulation until the event queue drains. [`Undrained] if the
    engine stopped early (horizon/event limit), [`Stuck n] if [n]
    requests were never granted. *)
val drain : t -> (unit, [ `Undrained | `Stuck of int ]) result

(** {!Dcs_runtime.Hlock_cluster.export_lock} on the current cluster:
    the sending half of a bucket handoff. Requires quiescence. *)
val export_lock : t -> lock:int -> Dcs_hlock.Node.snapshot array

val quiescent_violations : t -> string list
