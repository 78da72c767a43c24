(** Public facade of the distributed concurrency services library.

    [Core] re-exports every subsystem and adds {!Service}, a CORBA-style
    lock-set API (the OMG Concurrency Service surface the paper targets:
    [lock] / [try_lock] / [unlock] / [change_mode]) over a simulated
    cluster, so applications can be written against named hierarchical
    locks without touching protocol internals.

    {2 Quickstart}

    {[
      let svc = Core.Service.create ~nodes:8 ~locks:[ "table"; "row:1" ] () in
      Core.Service.lock svc ~node:3 ~name:"table" ~mode:Core.Mode.IR
        (fun table ->
          Core.Service.lock svc ~node:3 ~name:"row:1" ~mode:Core.Mode.R
            (fun row ->
              (* ... critical section: schedule work, then release ... *)
              Core.Service.unlock svc row;
              Core.Service.unlock svc table));
      Core.Service.run svc
    ]} *)

(** {1 Re-exports} *)

module Mode = Dcs_modes.Mode
module Mode_set = Dcs_modes.Mode_set
module Compat = Dcs_modes.Compat
module Rng = Dcs_sim.Rng
module Dist = Dcs_sim.Dist
module Engine = Dcs_sim.Engine
module Trace = Dcs_sim.Trace
module Topology = Dcs_sim.Topology
module Msg_class = Dcs_proto.Msg_class
module Counters = Dcs_proto.Counters
module Hlock = Dcs_hlock.Node
module Hlock_msg = Dcs_hlock.Msg
module Invariant = Dcs_hlock.Invariant
module Naimi = Dcs_naimi.Naimi
module Fault_plan = Dcs_fault.Plan
module Reliable = Dcs_fault.Reliable
module Net = Dcs_runtime.Net
module Hlock_cluster = Dcs_runtime.Hlock_cluster
module Naimi_cluster = Dcs_runtime.Naimi_cluster
module Experiment = Dcs_runtime.Experiment
module Airline = Dcs_workload.Airline
module Obs_event = Dcs_obs.Event
module Recorder = Dcs_obs.Recorder
module Jsonl = Dcs_obs.Jsonl
module Fuzz = Dcs_check.Fuzz

(** The one client-scenario type: fuzz cases, shard bursts and model-checker
    runs are all {!Dcs_workload.Script.t} values, played through
    {!Dcs_workload.Script.drive}. *)
module Fuzz_script = Dcs_workload.Script

module Fuzz_oracle = Dcs_check.Oracle
module Fuzz_corpus = Dcs_check.Corpus
module Fuzz_shrink = Dcs_check.Shrink
module Summary = Dcs_stats.Summary
module Sample = Dcs_stats.Sample
module Fit = Dcs_stats.Fit
module Histogram = Dcs_stats.Histogram
module Stats_table = Dcs_stats.Table

(** {1 The concurrency service} *)

module Service = Service

(** Multi-granularity lock trees; see {!Hierarchy}. *)
module Hierarchy = Hierarchy
