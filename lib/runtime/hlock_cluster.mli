(** A simulated cluster of nodes sharing a set of hierarchical lock objects
    under the paper's protocol.

    Each lock object is an independent instance of the protocol (its own
    logical tree and token) over the same node population; messages travel
    through a shared {!Net}. Lock 0's token starts at node 0, as do all
    others — matching the paper's setup where the tree is initially a star
    rooted at the token node.

    An optional runtime oracle runs {!Dcs_hlock.Invariant.safety} on the
    lock just touched after every delivered message and every client call
    (single token, pairwise-compatible held and cached modes, queues
    bounded by the waiting client requests). It costs O(nodes + queue
    length) per message and per call; tests, the fuzzer, the model
    checker and chaos soaks run with it, benchmark sweeps without. *)

open Dcs_modes

type t

(** Without [transport], each lock posts its protocol messages as data
    to its own {!Net.port}, so an untraced send allocates nothing but
    the message. [transport], when given, carries them instead, as
    closures. Chaos experiments interpose {!Dcs_fault.Reliable.send} here, so the
    engines keep their reliable-FIFO delivery contract over lossy links.
    The model checker ([Dcs_check.Mcheck]) passes a transport that parks
    each message on a per-link FIFO and delivers in the order it explores;
    [net] then only supplies the clock of [obs] events.

    [obs], when given, receives every node's request-lifecycle events
    (timestamped with the net's clock and tagged with lock and node ids)
    plus per-class message counts and {!Dcs_wire.Codec} byte sizes.

    [restore], when given, rebuilds every node from a prior
    {!export_lock} instead of the initial star (indexed
    [restore.(lock).(node)]; dimensions must match [locks] × [nodes]) —
    the receiving half of a shard handoff. *)
val create :
  ?config:Dcs_hlock.Node.config ->
  ?oracle:bool ->
  ?transport:Dcs_proto.Link.send ->
  ?obs:Dcs_obs.Recorder.t ->
  ?restore:Dcs_hlock.Node.snapshot array array ->
  net:Net.t ->
  nodes:int ->
  locks:int ->
  unit ->
  t

val locks : t -> int

(** Direct access to a node engine (tests and inspection). *)
val node : t -> lock:int -> node:int -> Dcs_hlock.Node.t

(** [request t ~node ~lock ~mode ~on_granted] issues a request and returns
    its ticket. [on_granted] fires exactly once — possibly before this
    function returns (message-free local acquisition). [priority]
    (default 0) orders queue service; see {!Dcs_hlock.Node.request}. *)
val request :
  ?priority:int -> t -> node:int -> lock:int -> mode:Mode.t -> on_granted:(unit -> unit) -> int

(** Release a granted ticket. *)
val release : t -> node:int -> lock:int -> seq:int -> unit

(** Upgrade a ticket held in [U] to [W] (Rule 7); [on_upgraded] fires
    exactly once, possibly synchronously. *)
val upgrade : t -> node:int -> lock:int -> seq:int -> on_upgraded:(unit -> unit) -> unit

(** Messages sent so far on behalf of one lock object, by class. *)
val lock_counters : t -> lock:int -> Dcs_proto.Counters.t

(** The sending half of a shard handoff: one lock object's whole per-node
    population as {!Dcs_hlock.Node.snapshot}s, ready to travel in a
    handoff message and be rebuilt with [create ~restore]. Requires
    quiescence for that lock — no token in flight, and
    {!Dcs_hlock.Node.export}'s per-node checks, which include no waiting
    client continuation — and raises [Invalid_argument] otherwise. *)
val export_lock : t -> lock:int -> Dcs_hlock.Node.snapshot array

(** Run the custody watchdog ({!Dcs_hlock.Node.kick}) on every node of
    every lock, once. Simulated runs schedule it through {!watchdog}. *)
val kick_all : t -> unit

(** [watchdog t ~engine ~period ~busy] schedules the custody watchdog on
    [engine]: one period from now it calls [busy ()]; if that holds it
    runs {!kick_all} and fires again one period later, otherwise it stops
    for good and leaves no event behind. Calling it again re-arms it.
    Every simulated run kicks through this helper; the period and stop
    rule of each are part of its digests:

    {v
    harness          period           first fire                    stop rule
    Experiment.run   400 x mean lat.  one period after start        every op done
    Dcs_check.Fuzz   20 x mean lat.   one period after start,       every release done
                     (3 s)            before the script's ops;
                                      none for an empty script
    Dcs_shard.Cell   8 x mean lat.    one period after the first    no request outstanding;
                                      request or upgrade while       the next request
                                      stopped                        re-arms it
    v}

    For reference, [Dcs_netkit.Runner] kicks from a thread every 1 s of
    wall-clock time until it stops; it does not use this helper. *)
val watchdog :
  t -> engine:Dcs_sim.Engine.t -> period:float -> busy:(unit -> bool) -> unit

(** Record cluster-wide gauges into the recorder at the current simulation
    time: total local queue depth ([queue_depth]), total copyset records
    ([copyset_size]) and nodes with a non-empty frozen set
    ([frozen_nodes]). O(nodes × locks); call from a rate-limited engine
    tick hook, not per event. *)
val sample_gauges : t -> Dcs_obs.Recorder.t -> unit

(** {1 Invariant oracles} *)

(** Once the simulation has drained and all clients released: what the
    oracle checks ({!Dcs_hlock.Invariant.safety}) plus
    {!Dcs_hlock.Invariant.quiescent}, for every lock. Empty list = no
    violation. *)
val quiescent_violations : t -> string list
