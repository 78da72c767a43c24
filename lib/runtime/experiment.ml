open Dcs_modes
open Dcs_proto
module Airline = Dcs_workload.Airline

type driver =
  | Hierarchical
  | Naimi_same_work
  | Naimi_pure

let driver_to_string = function
  | Hierarchical -> "hierarchical"
  | Naimi_same_work -> "naimi-same-work"
  | Naimi_pure -> "naimi-pure"

type config = {
  nodes : int;
  driver : driver;
  workload : Airline.config;
  latency : Dcs_sim.Dist.t;
  topology : Dcs_sim.Topology.t;
  seed : int64;
  protocol : Dcs_hlock.Node.config;
  oracle : bool;
  chaos : Dcs_fault.Plan.t option;
}

let default_config ~driver ~nodes =
  {
    nodes;
    driver;
    workload = Airline.default_config;
    latency = Dcs_sim.Dist.uniform_around 150.0;
    topology = Dcs_sim.Topology.uniform;
    seed = 42L;
    protocol = Dcs_hlock.Node.default_config;
    oracle = false;
    chaos = None;
  }

(* Rough expected length of the busy phase of a run (ms): idle + critical
   section + an acquisition term that grows with contention. Used only to
   place named fault windows inside the run; being off by 2x still lands
   every window in live traffic. *)
let horizon_estimate cfg =
  let wl = cfg.workload in
  let lat = Dcs_sim.Dist.mean cfg.latency in
  let per_op =
    Dcs_sim.Dist.mean wl.Airline.idle_time
    +. Dcs_sim.Dist.mean wl.Airline.cs_time
    +. (lat *. (1.0 +. (float_of_int cfg.nodes /. 16.0)))
  in
  float_of_int wl.Airline.ops_per_node *. per_op

type chaos_report = {
  violations : string list;
  reliable_stats : Dcs_fault.Reliable.stats option;
  shim_overhead : float;
  net_dropped : int;
  net_duplicated : int;
}

type result = {
  cfg : config;
  ops : int;
  lock_requests : int;
  messages : (Msg_class.t * int) list;
  total_messages : int;
  msgs_per_op : float;
  msgs_per_lock_request : float;
  mean_latency_ms : float;
  latency_factor : float;
  p95_latency_ms : float;
  per_class : (Mode.t * int * float) list;
  latencies : Dcs_stats.Sample.t;
  sim_duration_ms : float;
  events : int;
  chaos_report : chaos_report option;
}

(* Shared measurement state threaded through the per-driver clients. *)
type meter = {
  mutable ops_done : int;
  mutable lock_requests : int;
  latencies : Dcs_stats.Sample.t;
  class_latencies : (Mode.t, Dcs_stats.Summary.t) Hashtbl.t;
}

let meter_create () =
  { ops_done = 0; lock_requests = 0; latencies = Dcs_stats.Sample.create (); class_latencies = Hashtbl.create 8 }

let record_acquired meter ~cls ~elapsed =
  Dcs_stats.Sample.add meter.latencies elapsed;
  let s =
    match Hashtbl.find_opt meter.class_latencies cls with
    | Some s -> s
    | None ->
        let s = Dcs_stats.Summary.create () in
        Hashtbl.replace meter.class_latencies cls s;
        s
  in
  Dcs_stats.Summary.add s elapsed

(* {1 The airline clients} *)

(* Every driver's per-node client loop: idle, draw an op, and hand it to
   [issue ~node op ~held ~finish], which acquires the op's locks. Once
   they are all held it calls [held ()], which records the acquisition
   latency and returns the drawn hold time; after the last release it
   calls [finish ()], and the node idles towards its next op. *)
let airline_clients cfg engine meter issue =
  let wl = cfg.workload in
  let master = Dcs_sim.Rng.create ~seed:cfg.seed in
  let zipf = Airline.entry_zipf wl in
  for node = 0 to cfg.nodes - 1 do
    let rng = Dcs_sim.Rng.split master in
    let remaining = ref wl.Airline.ops_per_node in
    let rec idle_then_op () =
      if !remaining > 0 then
        Dcs_sim.Engine.schedule engine ~after:(Dcs_sim.Dist.sample wl.Airline.idle_time rng)
          start_op
    and start_op () =
      let op = Airline.sample_op ?zipf wl rng in
      let t0 = Dcs_sim.Engine.now engine in
      let held () =
        record_acquired meter ~cls:(Airline.op_class op) ~elapsed:(Dcs_sim.Engine.now engine -. t0);
        Dcs_sim.Dist.sample wl.Airline.cs_time rng
      in
      issue ~node op ~held ~finish:(fun () ->
          meter.ops_done <- meter.ops_done + 1;
          decr remaining;
          idle_then_op ())
    in
    idle_then_op ()
  done

(* {1 The hierarchical driver} *)

let run_hierarchical ?transport ?obs ~oracle cfg engine net meter =
  let wl = cfg.workload in
  let cluster =
    Hlock_cluster.create ~config:cfg.protocol ~oracle ?transport ?obs ~net ~nodes:cfg.nodes
      ~locks:(1 + wl.Airline.entries) ()
  in
  (* Custody watchdog: as long as work remains, kick every few round trips. *)
  let expected_ops = cfg.nodes * wl.Airline.ops_per_node in
  Hlock_cluster.watchdog cluster ~engine
    ~period:(400.0 *. Dcs_sim.Dist.mean cfg.latency)
    ~busy:(fun () -> meter.ops_done < expected_ops);
  let schedule = Dcs_sim.Engine.schedule engine in
  let table = 0 and entry_lock e = 1 + e in
  airline_clients cfg engine meter (fun ~node op ~held ~finish ->
      match op with
      | Airline.Table_op { mode; upgrade } ->
          meter.lock_requests <- meter.lock_requests + 1;
          let seq = ref (-1) in
          let release () =
            Hlock_cluster.release cluster ~node ~lock:table ~seq:!seq;
            finish ()
          in
          seq :=
            Hlock_cluster.request cluster ~node ~lock:table ~mode ~on_granted:(fun () ->
                let cs = held () in
                if upgrade then
                  (* Read under U for half the CS, then upgrade and write. *)
                  schedule ~after:(cs /. 2.0) (fun () ->
                      Hlock_cluster.upgrade cluster ~node ~lock:table ~seq:!seq
                        ~on_upgraded:(fun () -> schedule ~after:(cs /. 2.0) release))
                else schedule ~after:cs release)
      | Airline.Entry_op { intent; entry_mode; entry } ->
          meter.lock_requests <- meter.lock_requests + 2;
          let table_seq = ref (-1) and entry_seq = ref (-1) in
          table_seq :=
            Hlock_cluster.request cluster ~node ~lock:table ~mode:intent ~on_granted:(fun () ->
                entry_seq :=
                  Hlock_cluster.request cluster ~node ~lock:(entry_lock entry) ~mode:entry_mode
                    ~on_granted:(fun () ->
                      schedule ~after:(held ()) (fun () ->
                          Hlock_cluster.release cluster ~node ~lock:(entry_lock entry)
                            ~seq:!entry_seq;
                          Hlock_cluster.release cluster ~node ~lock:table ~seq:!table_seq;
                          finish ()))));
  ((fun () -> Hlock_cluster.quiescent_violations cluster), Some cluster)

(* {1 The Naimi drivers} *)

(* [Naimi_same_work]: entry ops take that entry's exclusive lock; table ops
   take every entry lock in ascending order (total order = no deadlock).
   [Naimi_pure]: one global lock for everything. *)
let run_naimi ?obs ~oracle cfg engine net meter ~pure =
  let wl = cfg.workload in
  let locks = if pure then 1 else wl.Airline.entries in
  let cluster = Naimi_cluster.create ~oracle ?obs ~net ~nodes:cfg.nodes ~locks () in
  airline_clients cfg engine meter (fun ~node op ~held ~finish ->
      let wanted =
        if pure then [ 0 ]
        else
          match op with
          | Airline.Entry_op { entry; _ } -> [ entry ]
          | Airline.Table_op _ -> List.init wl.Airline.entries (fun i -> i)
      in
      meter.lock_requests <- meter.lock_requests + List.length wanted;
      let rec acquire = function
        | [] ->
            Dcs_sim.Engine.schedule engine ~after:(held ()) (fun () ->
                List.iter (fun lock -> Naimi_cluster.release cluster ~node ~lock) wanted;
                finish ())
        | lock :: rest ->
            Naimi_cluster.request cluster ~node ~lock ~on_acquired:(fun () -> acquire rest)
      in
      acquire wanted);
  ((fun () -> Naimi_cluster.quiescent_violations cluster), None)

(* {1 Runner} *)

let run ?trace ?recorder cfg =
  (* Every run goes over a [Faulty_net]; without chaos its plan is empty,
     which makes it a plain net. *)
  let plan =
    match (cfg.chaos, cfg.driver) with
    | None, _ -> []
    | Some plan, Hierarchical -> plan
    | Some _, (Naimi_same_work | Naimi_pure) ->
        invalid_arg "Experiment.run: chaos is only wired for the Hierarchical driver"
  in
  (* Chaos runs always carry the per-delivery oracle. *)
  let oracle = cfg.oracle || Option.is_some cfg.chaos in
  let engine = Dcs_sim.Engine.create () in
  let meter = meter_create () in
  let expected = cfg.nodes * cfg.workload.Airline.ops_per_node in
  let faulty =
    Faulty_net.create ~engine ~latency:cfg.latency ~topology:cfg.topology ?trace ~seed:cfg.seed
      plan
  in
  let net = faulty.Faulty_net.net in
  let transport = Faulty_net.transport faulty in
  let quiescent, cluster =
    match cfg.driver with
    | Hierarchical -> run_hierarchical ?transport ?obs:recorder ~oracle cfg engine net meter
    | Naimi_same_work -> run_naimi ?obs:recorder ~oracle cfg engine net meter ~pure:false
    | Naimi_pure -> run_naimi ?obs:recorder ~oracle cfg engine net meter ~pure:true
  in
  (* Gauge sampling rides the engine tick hook, rate-limited to roughly one
     sample per mean network latency so dense event bursts don't flood the
     recorder. Observation only — no events scheduled, no RNG draws — so
     trace digests and results are unchanged. *)
  (match recorder with
  | Some r ->
      let period = Float.max 1.0 (Net.mean_latency net) in
      let last = ref neg_infinity in
      Dcs_sim.Engine.set_tick engine
        (Some
           (fun () ->
             let now = Dcs_sim.Engine.now engine in
             if now -. !last >= period then begin
               last := now;
               Dcs_obs.Recorder.gauge r ~time:now ~name:"in_flight"
                 ~value:(float_of_int (Net.in_flight net));
               match cluster with Some c -> Hlock_cluster.sample_gauges c r | None -> ()
             end))
  | None -> ());
  (* The at-rest verdict: an oracle failure ends the run; otherwise every
     op must complete and, under the oracle, the cluster, the shim and the
     net must be fully at rest once the engine drained. *)
  let ended = Faulty_net.run engine in
  Dcs_sim.Engine.set_tick engine None;
  let violations =
    match ended with
    | Error v -> [ v ]
    | Ok Dcs_sim.Engine.Horizon_reached -> assert false
    | Ok Dcs_sim.Engine.Event_limit -> failwith "Experiment.run: event limit hit (livelock?)"
    | Ok Dcs_sim.Engine.Drained ->
        if meter.ops_done <> expected then
          failwith
            (Printf.sprintf
               "Experiment.run (%s, n=%d): %d/%d operations completed — liveness failure"
               (driver_to_string cfg.driver) cfg.nodes meter.ops_done expected);
        if oracle then Faulty_net.at_rest faulty (quiescent ()) else []
  in
  let counters = Net.counters net in
  (* A chaos run reports its violations, as the fuzzer does, so harnesses
     can print them; any other run raises on them. *)
  let chaos_report =
    match cfg.chaos with
    | None -> (
        match violations with
        | [] -> None
        | vs -> failwith ("Experiment.run: " ^ String.concat "; " vs))
    | Some _ ->
        let shim_msgs =
          Counters.get counters Msg_class.Ack + Counters.get counters Msg_class.Retransmit
        in
        let protocol_msgs = Counters.total counters - shim_msgs in
        Some
          {
            violations;
            reliable_stats = Option.map Dcs_fault.Reliable.stats faulty.Faulty_net.shim;
            shim_overhead = float_of_int shim_msgs /. float_of_int (max 1 protocol_msgs);
            net_dropped = Net.dropped net;
            net_duplicated = Net.duplicated net;
          }
  in
  let total_messages = Counters.total counters in
  let ops = meter.ops_done in
  let mean_latency_ms = Dcs_stats.Sample.mean meter.latencies in
  let per_class =
    List.filter_map
      (fun m ->
        match Hashtbl.find_opt meter.class_latencies m with
        | None -> None
        | Some s -> Some (m, Dcs_stats.Summary.count s, Dcs_stats.Summary.mean s))
      Mode.all
  in
  {
    cfg;
    ops;
    lock_requests = meter.lock_requests;
    messages = Counters.to_list counters;
    total_messages;
    msgs_per_op = float_of_int total_messages /. float_of_int (max 1 ops);
    msgs_per_lock_request = float_of_int total_messages /. float_of_int (max 1 meter.lock_requests);
    mean_latency_ms;
    latency_factor = mean_latency_ms /. Net.mean_latency net;
    p95_latency_ms = Dcs_stats.Sample.percentile meter.latencies 95.0;
    per_class;
    latencies = meter.latencies;
    sim_duration_ms = Dcs_sim.Engine.now engine;
    events = Dcs_sim.Engine.events_processed engine;
    chaos_report;
  }

let row_header =
  [ "driver"; "nodes"; "ops"; "lock reqs"; "msgs"; "msg/op"; "msg/lockreq"; "lat ms"; "lat factor"; "p95 ms" ]

let result_row r =
  [
    driver_to_string r.cfg.driver;
    string_of_int r.cfg.nodes;
    string_of_int r.ops;
    string_of_int r.lock_requests;
    string_of_int r.total_messages;
    Printf.sprintf "%.2f" r.msgs_per_op;
    Printf.sprintf "%.2f" r.msgs_per_lock_request;
    Printf.sprintf "%.1f" r.mean_latency_ms;
    Printf.sprintf "%.1f" r.latency_factor;
    Printf.sprintf "%.1f" r.p95_latency_ms;
  ]
