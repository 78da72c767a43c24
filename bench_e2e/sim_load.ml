(* The two simulated workloads, driven over Dcs_runtime.Hlock_cluster on
   the discrete-event engine.

   airline-64 is the paper's evaluation traffic (§4): the same client
   loop as Experiment.run's hierarchical driver, rebuilt here so the
   benchmark can put spans around the client calls and the message
   transport. [airline_crosscheck] proves the rebuild faithful: at a
   small scale its message counters must equal Experiment.run's.

   hotlock-64 puts 63 closed-loop clients on one lock. A client holds
   its grant briefly, releases from a timer and re-requests through
   Engine.schedule, so every request yields to the event loop instead of
   re-acquiring a cached grant inside its own grant callback.

   Latencies are simulated milliseconds; every count is a pure function
   of the seed. *)

module Engine = Dcs_sim.Engine
module Rng = Dcs_sim.Rng
module Dist = Dcs_sim.Dist
module Net = Dcs_runtime.Net
module Cluster = Dcs_runtime.Hlock_cluster
module Airline = Dcs_workload.Airline
module Mode = Dcs_modes.Mode
module Counters = Dcs_proto.Counters
module Prof = Measure.Prof

(* One simulated cluster and, when traced, the profiler that its message
   transport and the client calls below report to. *)
type sim = {
  engine : Engine.t;
  net : Net.t;
  cluster : Cluster.t;
  prof : Prof.t option;
  mutable requests : int;
  mutable local_grants : int;  (* grants fired inside [request] (traced only) *)
}

let create ~traced ~seed ~latency ~nodes ~locks =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:(Int64.add seed 0x9E37L) in
  let net = Net.create ~engine ~latency ~topology:Dcs_sim.Topology.uniform ~rng () in
  let prof = if traced then Some (Prof.create ()) else None in
  let transport =
    Option.map
      (fun p ~src ~dst ~cls ~describe deliver ->
        Prof.enter p Send;
        Net.send net ~src ~dst ~cls ~describe (fun () ->
            Prof.enter p Handler;
            deliver ();
            Prof.leave p);
        Prof.leave p)
      prof
  in
  let cluster = Cluster.create ?transport ~net ~nodes ~locks () in
  { engine; net; cluster; prof; requests = 0; local_grants = 0 }

(* The client calls, straight into the cluster or inside Client spans.
   Grant callbacks are not spans of their own: what a callback does
   outside client calls counts toward the handler that delivered the
   grant (or the client call that granted it locally), and what timers
   do outside them toward the engine. *)
let request s ~node ~lock ~mode ~on_granted =
  s.requests <- s.requests + 1;
  match s.prof with
  | None -> Cluster.request s.cluster ~node ~lock ~mode ~on_granted
  | Some p ->
      let inside = ref true in
      let on_granted () =
        if !inside then s.local_grants <- s.local_grants + 1;
        on_granted ()
      in
      Prof.enter p Client;
      let seq = Cluster.request s.cluster ~node ~lock ~mode ~on_granted in
      Prof.leave p;
      inside := false;
      seq

let release s ~node ~lock ~seq =
  match s.prof with
  | None -> Cluster.release s.cluster ~node ~lock ~seq
  | Some p ->
      Prof.enter p Client;
      Cluster.release s.cluster ~node ~lock ~seq;
      Prof.leave p

let upgrade s ~node ~lock ~seq ~on_upgraded =
  match s.prof with
  | None -> Cluster.upgrade s.cluster ~node ~lock ~seq ~on_upgraded
  | Some p ->
      Prof.enter p Client;
      Cluster.upgrade s.cluster ~node ~lock ~seq ~on_upgraded;
      Prof.leave p

let kick_all s =
  match s.prof with
  | None -> Cluster.kick_all s.cluster
  | Some p ->
      Prof.enter p Client;
      Cluster.kick_all s.cluster;
      Prof.leave p

let fingerprint s =
  Printf.sprintf "events=%d %s" (Engine.events_processed s.engine)
    (String.concat ","
       (List.map
          (fun (c, n) -> Printf.sprintf "%s:%d" (Dcs_proto.Msg_class.to_string c) n)
          (Counters.to_list (Net.counters s.net))))

(* {1 airline-64} *)

(* Experiment.run's hierarchical client loop, request for request:
   identical RNG splits, scheduling order and custody-kick cadence. *)
let airline_clients s ~seed ~(wl : Airline.config) ~nodes ~latency ~on_acquired =
  let expected = nodes * wl.Airline.ops_per_node in
  let ops_done = ref 0 in
  let master = Rng.create ~seed in
  let kick_period = 400.0 *. Dist.mean latency in
  let rec kick_loop () =
    if !ops_done < expected then begin
      kick_all s;
      Engine.schedule s.engine ~after:kick_period kick_loop
    end
  in
  Engine.schedule s.engine ~after:kick_period kick_loop;
  let zipf = Airline.entry_zipf wl in
  let table = 0 and entry_lock e = 1 + e in
  for node = 0 to nodes - 1 do
    let rng = Rng.split master in
    let remaining = ref wl.Airline.ops_per_node in
    let rec idle_then_op () =
      if !remaining > 0 then
        Engine.schedule s.engine ~after:(Dist.sample wl.Airline.idle_time rng) start_op
    and start_op () =
      let op = Airline.sample_op ?zipf wl rng in
      let t0 = Engine.now s.engine in
      let acquired ~release =
        on_acquired (Engine.now s.engine -. t0);
        let cs = Dist.sample wl.Airline.cs_time rng in
        match op with
        | Airline.Table_op { upgrade = true; _ } ->
            Engine.schedule s.engine ~after:(cs /. 2.0) (fun () ->
                release ~upgrade_first:true ~after:(cs /. 2.0))
        | Airline.Table_op _ | Airline.Entry_op _ ->
            Engine.schedule s.engine ~after:cs (fun () -> release ~upgrade_first:false ~after:0.0)
      in
      let finish () =
        incr ops_done;
        decr remaining;
        idle_then_op ()
      in
      match op with
      | Airline.Table_op { mode; _ } ->
          let seq = ref (-1) in
          seq :=
            request s ~node ~lock:table ~mode ~on_granted:(fun () ->
                acquired ~release:(fun ~upgrade_first ~after ->
                    if upgrade_first then
                      upgrade s ~node ~lock:table ~seq:!seq ~on_upgraded:(fun () ->
                          Engine.schedule s.engine ~after (fun () ->
                              release s ~node ~lock:table ~seq:!seq;
                              finish ()))
                    else begin
                      release s ~node ~lock:table ~seq:!seq;
                      finish ()
                    end))
      | Airline.Entry_op { intent; entry_mode; entry } ->
          let table_seq = ref (-1) and entry_seq = ref (-1) in
          table_seq :=
            request s ~node ~lock:table ~mode:intent ~on_granted:(fun () ->
                entry_seq :=
                  request s ~node ~lock:(entry_lock entry) ~mode:entry_mode ~on_granted:(fun () ->
                      acquired ~release:(fun ~upgrade_first:_ ~after:_ ->
                          release s ~node ~lock:(entry_lock entry) ~seq:!entry_seq;
                          release s ~node ~lock:table ~seq:!table_seq;
                          finish ())))
    in
    idle_then_op ()
  done;
  fun () -> (!ops_done, expected)

let airline_latency = Dist.uniform_around 150.0

let airline_config ~ops_per_node = { Airline.default_config with Airline.ops_per_node }

(* A small airline run through both this driver and Experiment.run must
   send exactly the same messages. *)
let airline_crosscheck r ~seed =
  let nodes = 64 and wl = airline_config ~ops_per_node:10 in
  let s = create ~traced:false ~seed ~latency:airline_latency ~nodes ~locks:(1 + wl.Airline.entries) in
  let (_ : unit -> int * int) =
    airline_clients s ~seed ~wl ~nodes ~latency:airline_latency ~on_acquired:ignore
  in
  ignore (Engine.run s.engine);
  let cfg =
    {
      (Dcs_runtime.Experiment.default_config ~driver:Dcs_runtime.Experiment.Hierarchical ~nodes) with
      Dcs_runtime.Experiment.workload = wl;
      latency = airline_latency;
      seed;
    }
  in
  let ours = Counters.to_list (Net.counters s.net) in
  match Dcs_runtime.Experiment.run cfg with
  | exception e -> Measure.problem r "airline cross-check: Experiment.run raised %s" (Printexc.to_string e)
  | res ->
      if ours <> res.Dcs_runtime.Experiment.messages then
        Measure.problem r "airline cross-check: message counters differ from Experiment.run"

(* {1 Shared run loop} *)

(* Run the engine to quiescence as the timed phase and record every
   metric the simulation gives: throughput and latency, message mix,
   engine events, and — when traced — the per-layer self times. *)
let run_timed r s ~latencies ~completed =
  let ph = Measure.start () in
  let outcome = Engine.run s.engine in
  let requests = float_of_int s.requests in
  let wall = Measure.finish r ph ~requests in
  r.Measure.basis <- wall;
  (match outcome with
  | Engine.Drained -> ()
  | Engine.Horizon_reached | Engine.Event_limit -> Measure.problem r "engine stopped before draining");
  let done_, expected = completed () in
  r.Measure.attempted <- s.requests;
  if done_ <> expected then begin
    Measure.problem r "%d of %d operations completed" done_ expected;
    r.Measure.failed <- expected - done_
  end;
  (match Cluster.quiescent_violations s.cluster with
  | [] -> ()
  | v :: _ as vs -> Measure.problem r "%d quiescence violations, first: %s" (List.length vs) v);
  Measure.record_latencies r (latencies ());
  Measure.record_msgs r (Counters.to_list (Net.counters s.net)) ~requests;
  let events = float_of_int (Engine.events_processed s.engine) in
  Measure.metric r "engine.events_per_req" (Measure.ratio events requests);
  r.Measure.fingerprint <- fingerprint s;
  match s.prof with
  | None -> ()
  | Some p ->
      Measure.metric r "hlock.handle_us_per_msg" (Prof.us_per_span p Handler);
      Measure.metric r "net.send_us_per_msg" (Prof.us_per_span p Send);
      Measure.metric r "hlock.client_call_us" (Prof.us_per_span p Client);
      Measure.metric r "hlock.local_grant_ratio"
        (Measure.ratio (float_of_int s.local_grants) requests);
      Measure.metric r "engine.self_us_per_event"
        (Measure.ratio ((wall -. Prof.total_self p) *. 1e6) events)

let airline r ~traced ~seed ~scale =
  let nodes = 64 in
  let wl = airline_config ~ops_per_node:(max 1 (int_of_float (4000.0 *. scale))) in
  let t0 = Measure.now () in
  let s = create ~traced ~seed ~latency:airline_latency ~nodes ~locks:(1 + wl.Airline.entries) in
  let latencies = ref [] in
  let completed =
    airline_clients s ~seed ~wl ~nodes ~latency:airline_latency ~on_acquired:(fun l ->
        latencies := l :: !latencies)
  in
  Measure.metric r "setup_s" (Measure.now () -. t0);
  run_timed r s ~latencies:(fun () -> !latencies) ~completed

let hotlock r ~traced ~seed ~scale =
  let nodes = 64 and rounds = max 1 (int_of_float (1000.0 *. scale)) in
  let t0 = Measure.now () in
  let s = create ~traced ~seed ~latency:(Dist.Constant 1.0) ~nodes ~locks:1 in
  let latencies = ref [] in
  let clients = nodes - 1 in
  let finished = ref 0 in
  let master = Rng.create ~seed in
  let kick_period = 400.0 in
  let rec kick_loop () =
    if !finished < clients then begin
      kick_all s;
      Engine.schedule s.engine ~after:kick_period kick_loop
    end
  in
  Engine.schedule s.engine ~after:kick_period kick_loop;
  let granted = ref 0 in
  for node = 1 to clients do
    let rng = Rng.split master in
    let mode = if node mod 4 = 0 then Mode.W else Mode.R in
    let remaining = ref rounds in
    let rec go () =
      let t0 = Engine.now s.engine in
      let seq = ref (-1) in
      seq :=
        request s ~node ~lock:0 ~mode ~on_granted:(fun () ->
            incr granted;
            latencies := (Engine.now s.engine -. t0) :: !latencies;
            Engine.schedule s.engine ~after:(Rng.uniform rng ~lo:0.25 ~hi:0.75) (fun () ->
                release s ~node ~lock:0 ~seq:!seq;
                decr remaining;
                if !remaining > 0 then Engine.schedule s.engine ~after:0.0 go else incr finished))
    in
    Engine.schedule s.engine ~after:0.0 go
  done;
  Measure.metric r "setup_s" (Measure.now () -. t0);
  run_timed r s ~latencies:(fun () -> !latencies) ~completed:(fun () -> (!granted, clients * rounds))
