(** Regeneration of the paper's evaluation figures (§4).

    Each function runs the relevant simulations and returns both the raw
    series and a rendered report. The node counts default to a sweep up to
    the paper's 120; [quick] mode caps at 32 nodes for fast runs. *)

type point = {
  nodes : int;
  msgs_per_op : float;
  msgs_per_lock_request : float;
  latency_factor : float;
  breakdown : (Dcs_proto.Msg_class.t * float) list;  (** per operation *)
}

type series = {
  driver : Experiment.driver;
  points : point list;
}

(** Default sweep: 2, 4, 8, 16, 24, 32, 48, 64, 80, 96, 120. *)
val default_nodes : int list

val quick_nodes : int list

(** Run one driver over the node counts (paper workload unless
    overridden). Cells fan out over [jobs] domains (default as in
    {!Dcs_netkit.Parallel.map}); each cell's seed is derived
    from [seed] and the cell's (driver, node count) identity, so results
    are bit-identical for every [jobs]. *)
val sweep :
  ?workload:Dcs_workload.Airline.config ->
  ?seed:int64 ->
  ?jobs:int ->
  driver:Experiment.driver ->
  nodes:int list ->
  unit ->
  series

(** Re-run one sweep cell with full telemetry: the configuration and seed
    are exactly what the (driver, nodes) cell would use inside a figure
    sweep (see {!sweep}), so the captured trace drills down into a figure
    point rather than describing a different run. The recorder receives
    events, message bytes and gauges as in {!Experiment.run}. *)
val traced_cell :
  ?workload:Dcs_workload.Airline.config ->
  ?seed:int64 ->
  recorder:Dcs_obs.Recorder.t ->
  driver:Experiment.driver ->
  nodes:int ->
  unit ->
  Experiment.result

(** Figure 5: message overhead per lock request vs number of nodes, all
    three drivers, with a logarithmic fit for the scalable protocols. *)
val fig5 : ?nodes:int list -> ?seed:int64 -> ?jobs:int -> unit -> series list * string

(** Figure 6: request latency as a factor of point-to-point latency, with
    a linear fit for the hierarchical protocol. *)
val fig6 : ?nodes:int list -> ?seed:int64 -> ?jobs:int -> unit -> series list * string

(** Figure 7: message breakdown by type for the hierarchical protocol. *)
val fig7 : ?nodes:int list -> ?seed:int64 -> ?jobs:int -> unit -> series * string

(** All three figures from a single sweep per driver (cheaper than calling
    {!fig5}, {!fig6} and {!fig7} separately). *)
val full_report : ?nodes:int list -> ?seed:int64 -> ?jobs:int -> unit -> string

(** The four protocol decision tables (paper Tables 1a–2b), rendered. *)
val tables : unit -> string

(** Ablation study at a fixed size: protocol variants of DESIGN.md
    (caching off, freezing off, eager releases, routing knobs). *)
val ablations : ?nodes:int -> ?seed:int64 -> unit -> string

(** Locality study: the same workload under uniform, racked and star
    topologies (beyond the paper, whose testbed was one switched LAN). *)
val topology_study : ?nodes:int -> ?seed:int64 -> unit -> string

(** Table-size sensitivity: the same-work baseline vs ours as the (unstated
    in the paper) table size varies. *)
val entries_study : ?nodes:int -> ?seed:int64 -> unit -> string

(** Headline metrics as mean ± sd across seeds. *)
val seed_variance : ?nodes:int list -> unit -> string

(** CSV for a list of series (long format:
    driver,nodes,msgs_per_op,msgs_per_lockreq,latency_factor). *)
val to_csv : series list -> string
