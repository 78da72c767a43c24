(** The randomized-schedule fuzz driver.

    One {!case} bundles everything a run depends on — script, seed, fault
    plan, seeded protocol mutation — and {!run} is a pure function of it:
    the same case always produces the same {!verdict} and the same
    {!Dcs_sim.Trace} digest, so failures replay and shrink exactly.

    A run executes the script on a simulated cluster over a
    {!Dcs_runtime.Faulty_net} under the case's plan (the empty plan
    without one), with the custody {!Dcs_runtime.Hlock_cluster.watchdog}
    every 20 mean latencies and the runtime safety oracle checking every
    delivered message and client call ({!Dcs_runtime.Hlock_cluster} with
    [oracle:true], i.e. {!Dcs_hlock.Invariant.safety}: single token,
    pairwise-compatible held and cached modes, bounded queues). It
    records the full {!Dcs_obs.Event.t} trace, and on completion checks:

    - quiescence structural invariants
      ({!Dcs_runtime.Hlock_cluster.quiescent_violations}), the shim's
      channels and the net at rest ({!Dcs_runtime.Faulty_net.at_rest});
    - trace conformance against the reference semantics
      ({!Oracle.conformance});
    - liveness: every scripted operation granted, upgraded and released
      before the (generous) horizon. *)

type case = {
  seed : int64;  (** drives network latency draws and the fault plan *)
  script : Dcs_workload.Script.t;
  plan : string option;  (** a {!Dcs_fault.Plan.names} scenario *)
  mutation : Dcs_hlock.Node.mutation option;
}

type verdict = {
  case : case;
  violations : string list;  (** empty = pass *)
  completed : bool;  (** every op granted + upgraded + released *)
  outcome : Dcs_sim.Engine.outcome;
  grants : int;
  upgrades : int;
  releases : int;
  messages : int;
  sim_ms : float;
  engine_events : int;
  digest : int64;  (** network trace digest — the run's identity *)
  oracle : Oracle.report;
  max_hops : int;  (** most relay hops any granted request travelled *)
  sweep_restarts : int;  (** {!Dcs_hlock.Node.sweep_restarts} over every node *)
}

(** [case ~seed ~nodes ~locks ~ops ()] generates the script from the same
    seed. [zipf] skews the lock choice
    (see {!Dcs_workload.Script.generate}). *)
val case :
  ?plan:string ->
  ?mutation:Dcs_hlock.Node.mutation ->
  ?zipf:float ->
  seed:int64 ->
  nodes:int ->
  locks:int ->
  ops:int ->
  unit ->
  case

(** [drive cluster ~schedule script] plays [script] through
    {!Dcs_runtime.Hlock_cluster.request}, [upgrade] and [release]
    ({!Dcs_workload.Script.drive}): the one adapter between client scripts
    and the cluster, shared by {!run} and {!Mcheck}. It lives here, not in
    [Hlock_cluster], so that object keeps only per-event code. *)
val drive :
  Dcs_runtime.Hlock_cluster.t ->
  schedule:(after:float -> (unit -> unit) -> unit) ->
  Dcs_workload.Script.t ->
  Dcs_workload.Script.counts

val run : case -> verdict
val failed : verdict -> bool

(** What a failing case broke, gravest first: [Safety] (the per-step
    safety oracle, or incompatible grants or a Rule 7 upgrade in the
    trace), [Never_granted] (a request still waiting at the horizon, or
    the event limit), [Overtake] (a waiter jumped by more than the
    oracle's bound of incompatible grants) and [Other] (quiescence
    structure, the net at rest, trace bookkeeping). *)
type failure_class = Safety | Never_granted | Overtake | Other

(** Every class, gravest first. *)
val failure_classes : failure_class list
val failure_class_name : failure_class -> string

(** The gravest class among the verdict's violations; [None] iff it
    passed. *)
val failure_class : verdict -> failure_class option
val pp_verdict : Format.formatter -> verdict -> unit

(** Corpus/CLI names: ["weak-freeze"], ["ignore-frozen"]. *)
val mutation_to_string : Dcs_hlock.Node.mutation -> string

val mutation_of_string : string -> Dcs_hlock.Node.mutation option
