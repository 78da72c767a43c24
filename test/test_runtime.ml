(* Integration tests: simulated network, clusters with runtime oracles, and
   the end-to-end experiment drivers. *)

open Dcs_runtime
module Airline = Dcs_workload.Airline
module Figures = Dcs_runtime.Figures

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* {1 Net} *)

let test_net_fifo_per_pair () =
  let engine = Dcs_sim.Engine.create () in
  let rng = Dcs_sim.Rng.create ~seed:1L in
  let net = Net.create ~engine ~latency:(Dcs_sim.Dist.uniform_around 100.0) ~rng () in
  let delivered = ref [] in
  for i = 1 to 50 do
    Net.send net ~src:0 ~dst:1 ~cls:Dcs_proto.Msg_class.Request
      ~describe:(fun () -> "m")
      (fun () -> delivered := i :: !delivered)
  done;
  ignore (Dcs_sim.Engine.run engine);
  Alcotest.check
    Alcotest.(list int)
    "in-order delivery" (List.init 50 (fun i -> i + 1))
    (List.rev !delivered);
  checki "in flight drained" 0 (Net.in_flight net);
  checki "counted" 50 (Dcs_proto.Counters.get (Net.counters net) Dcs_proto.Msg_class.Request)

(* Links between ids up to 300, first seen in random order so the floor
   rows grow many times, still deliver FIFO; sends are spread over time
   by stepping the engine between them. *)
let test_net_fifo_wide_ids () =
  let module Rng = Dcs_sim.Rng in
  let engine = Dcs_sim.Engine.create () in
  let net =
    Net.create ~engine ~latency:(Dcs_sim.Dist.Exponential { mean = 20.0 })
      ~rng:(Rng.create ~seed:11L) ()
  in
  let pick = Rng.create ~seed:5L in
  let ids = Array.init 301 Fun.id in
  Rng.shuffle pick ids;
  let ids = Array.sub ids 0 24 in
  let sent = Hashtbl.create 64 and received = Hashtbl.create 64 in
  let count tbl link = Option.value ~default:0 (Hashtbl.find_opt tbl link) in
  let out_of_order = ref 0 in
  for _ = 1 to 6000 do
    let link = (ids.(Rng.int pick ~bound:24), ids.(Rng.int pick ~bound:24)) in
    let k = count sent link in
    Hashtbl.replace sent link (k + 1);
    Net.send net ~src:(fst link) ~dst:(snd link) ~cls:Dcs_proto.Msg_class.Request
      ~describe:(fun () -> "m")
      (fun () ->
        if count received link <> k then incr out_of_order;
        Hashtbl.replace received link (count received link + 1));
    if Rng.int pick ~bound:4 = 0 then ignore (Dcs_sim.Engine.step engine)
  done;
  ignore (Dcs_sim.Engine.run engine);
  checki "out-of-order deliveries" 0 !out_of_order;
  checki "all delivered" 6000 (Hashtbl.fold (fun _ n acc -> acc + n) received 0);
  checki "in flight drained" 0 (Net.in_flight net)

(* An untraced net (no [?trace]) never forces a message's [describe],
   whatever the fault hook does with it: hold (then flush), drop or
   duplicate. Covers every trace site of [Net]: send, recv, hold, drop. *)
let test_net_untraced_never_describes () =
  let engine = Dcs_sim.Engine.create () in
  let rng = Dcs_sim.Rng.create ~seed:5L in
  let net = Net.create ~engine ~latency:(Dcs_sim.Dist.uniform_around 10.0) ~rng () in
  let holding = ref true in
  (* Message i: 0 mod 4 held while [holding], 1 dropped, 2 duplicated,
     3 passed; [cls] carries nothing, so the hook reads the destination. *)
  Net.set_fault net (fun ~now:_ ~src:_ ~dst ~cls:_ ->
      match dst mod 4 with
      | 0 when !holding -> Dcs_proto.Link.Hold
      | 1 -> Dcs_proto.Link.Deliver { copies = 0; delay_factor = 1.0; extra_delay = 0.0 }
      | 2 -> Dcs_proto.Link.Deliver { copies = 2; delay_factor = 1.0; extra_delay = 0.0 }
      | _ -> Dcs_proto.Link.pass);
  let arrived = Array.make 16 0 in
  for dst = 0 to 15 do
    Net.send net ~src:16 ~dst ~cls:Dcs_proto.Msg_class.Request
      ~describe:(fun () -> Alcotest.fail "describe forced on an untraced net")
      (fun () -> arrived.(dst) <- arrived.(dst) + 1)
  done;
  checki "held" 4 (Net.held_count net);
  ignore (Dcs_sim.Engine.run engine);
  holding := false;
  Net.flush_held net;
  ignore (Dcs_sim.Engine.run engine);
  Alcotest.check
    Alcotest.(array int)
    "every undropped message arrives"
    (Array.init 16 (fun dst -> match dst mod 4 with 1 -> 0 | 2 -> 2 | _ -> 1))
    arrived;
  checki "dropped" 4 (Net.dropped net);
  checki "duplicated" 4 (Net.duplicated net);
  checki "in flight drained" 0 (Net.in_flight net)

(* A net reused after [Net.reset] (engine reset, rng reseeded alongside,
   as [Cell] does between bursts) schedules exactly the delivery times of
   a fresh net: the previous run's link floors, absolute times on the old
   clock, are gone. *)
let test_net_reset_matches_fresh () =
  let module Rng = Dcs_sim.Rng in
  let latency = Dcs_sim.Dist.Exponential { mean = 20.0 } in
  let burst engine net ~seed =
    let pick = Rng.create ~seed in
    let times = ref [] in
    for _ = 1 to 2000 do
      let src = Rng.int pick ~bound:40 and dst = Rng.int pick ~bound:40 in
      Net.send net ~src ~dst ~cls:Dcs_proto.Msg_class.Request
        ~describe:(fun () -> "m")
        (fun () -> times := Dcs_sim.Engine.now engine :: !times);
      if Rng.int pick ~bound:8 = 0 then ignore (Dcs_sim.Engine.step engine)
    done;
    ignore (Dcs_sim.Engine.run engine);
    List.rev !times
  in
  let engine = Dcs_sim.Engine.create () and rng = Rng.create ~seed:42L in
  let net = Net.create ~engine ~latency ~rng () in
  ignore (burst engine net ~seed:9L);
  Dcs_sim.Engine.reset engine;
  Rng.reseed rng ~seed:42L;
  Net.reset net;
  let reused = burst engine net ~seed:3L in
  let engine' = Dcs_sim.Engine.create () in
  let fresh = burst engine' (Net.create ~engine:engine' ~latency ~rng:(Rng.create ~seed:42L) ()) ~seed:3L in
  checki "deliveries" 2000 (List.length reused);
  Alcotest.check Alcotest.(list (float 0.0)) "same delivery times" fresh reused

let test_counters () =
  let c = Dcs_proto.Counters.create () in
  Dcs_proto.Counters.incr c Dcs_proto.Msg_class.Request;
  Dcs_proto.Counters.incr c Dcs_proto.Msg_class.Request;
  Dcs_proto.Counters.incr c Dcs_proto.Msg_class.Freeze;
  checki "request" 2 (Dcs_proto.Counters.get c Dcs_proto.Msg_class.Request);
  checki "total" 3 (Dcs_proto.Counters.total c);
  let d = Dcs_proto.Counters.create () in
  Dcs_proto.Counters.incr d Dcs_proto.Msg_class.Freeze;
  Dcs_proto.Counters.merge_into ~dst:c ~src:d;
  checki "merged freeze" 2 (Dcs_proto.Counters.get c Dcs_proto.Msg_class.Freeze);
  Dcs_proto.Counters.reset c;
  checki "reset" 0 (Dcs_proto.Counters.total c)

(* {1 Simulated hlock cluster} *)

let test_cluster_basic_flow () =
  let engine = Dcs_sim.Engine.create () in
  let rng = Dcs_sim.Rng.create ~seed:2L in
  let net = Net.create ~engine ~latency:(Dcs_sim.Dist.uniform_around 50.0) ~rng () in
  let cluster = Hlock_cluster.create ~oracle:true ~net ~nodes:4 ~locks:2 () in
  let got = ref [] in
  let seq1 =
    Hlock_cluster.request cluster ~node:1 ~lock:0 ~mode:Dcs_modes.Mode.R ~on_granted:(fun () ->
        got := 1 :: !got)
  in
  let seq2 =
    Hlock_cluster.request cluster ~node:2 ~lock:1 ~mode:Dcs_modes.Mode.W ~on_granted:(fun () ->
        got := 2 :: !got)
  in
  ignore (Dcs_sim.Engine.run engine);
  checkb "both granted" true (List.mem 1 !got && List.mem 2 !got);
  Hlock_cluster.release cluster ~node:1 ~lock:0 ~seq:seq1;
  Hlock_cluster.release cluster ~node:2 ~lock:1 ~seq:seq2;
  ignore (Dcs_sim.Engine.run engine);
  Alcotest.check Alcotest.(list string) "quiescent" [] (Hlock_cluster.quiescent_violations cluster)

(* {2 Custody watchdog} *)

(* The hand-written loops the harnesses ran before they shared
   [Hlock_cluster.watchdog]. Experiment.run and Fuzz.run armed once and
   re-armed from each fire while busy; Cell re-armed lazily on the next
   request once stopped. Each calls [busy] where it decided to kick. *)
let loop_reference engine ~period ~busy =
  let rec fire () = if busy () then Dcs_sim.Engine.schedule engine ~after:period fire in
  Dcs_sim.Engine.schedule engine ~after:period fire

let cell_reference engine ~period ~busy =
  let scheduled = ref false in
  let rec ensure () =
    if not !scheduled then begin
      scheduled := true;
      Dcs_sim.Engine.schedule engine ~after:period (fun () ->
          scheduled := false;
          if busy () then ensure ())
    end
  in
  ensure

(* Cell's arming through the helper, as [Cell.ensure_kicking] does it. *)
let cell_helper cluster engine ~period ~busy =
  let scheduled = ref false in
  fun () ->
    if not !scheduled then begin
      scheduled := true;
      Hlock_cluster.watchdog cluster ~engine ~period ~busy:(fun () ->
          scheduled := busy ();
          !scheduled)
    end

(* A bare engine and an idle cluster; [busy] logs each call's time and
   answers from [answers] in turn ([false] once they run out). *)
let watchdog_run ~answers arm =
  let engine = Dcs_sim.Engine.create () in
  let rng = Dcs_sim.Rng.create ~seed:1L in
  let net = Net.create ~engine ~latency:(Dcs_sim.Dist.uniform_around 150.0) ~rng () in
  let cluster = Hlock_cluster.create ~net ~nodes:4 ~locks:2 () in
  let log = ref [] and answers = ref answers in
  let busy () =
    log := Dcs_sim.Engine.now engine :: !log;
    match !answers with
    | a :: rest ->
        answers := rest;
        a
    | [] -> false
  in
  arm cluster engine ~busy;
  ignore (Dcs_sim.Engine.run engine);
  (List.rev !log, Dcs_sim.Engine.events_processed engine, Net.counters net)

let test_watchdog_cadence () =
  let times = Alcotest.(list (float 0.0)) in
  List.iter
    (fun (harness, period) ->
      (* Experiment.run and Fuzz.run: one loop, armed at time 0. *)
      let answers = [ true; true; true; false ] in
      let log, events, counters =
        watchdog_run ~answers (fun cluster engine ~busy ->
            Hlock_cluster.watchdog cluster ~engine ~period ~busy)
      in
      let reference, ref_events, _ =
        watchdog_run ~answers (fun _ engine ~busy -> loop_reference engine ~period ~busy)
      in
      Alcotest.check times (harness ^ ": fires one period apart, stops on false")
        [ period; 2.0 *. period; 3.0 *. period; 4.0 *. period ]
        log;
      Alcotest.check times (harness ^ ": as the hand-written loop") reference log;
      checki (harness ^ ": no event beyond the fires") ref_events events;
      checki (harness ^ ": idle kicks send nothing") 0 (Dcs_proto.Counters.total counters))
    [ ("Experiment.run", 400.0 *. 150.0); ("Fuzz.run", 20.0 *. 150.0); ("Cell", 8.0 *. 150.0) ];
  (* Cell: armed by a request at 0, stopped at 3 periods, re-armed by a
     request at 10 periods; a request while armed adds nothing. *)
  let period = 8.0 *. 150.0 in
  let answers = [ true; true; false; true; false ] in
  let requests ensure engine =
    ensure ();
    Dcs_sim.Engine.schedule engine ~after:(10.0 *. period) ensure;
    Dcs_sim.Engine.schedule engine ~after:(10.5 *. period) ensure
  in
  let log, events, _ =
    watchdog_run ~answers (fun cluster engine ~busy ->
        requests (cell_helper cluster engine ~period ~busy) engine)
  in
  let reference, ref_events, _ =
    watchdog_run ~answers (fun _ engine ~busy ->
        requests (cell_reference engine ~period ~busy) engine)
  in
  Alcotest.check times "Cell: stops, then re-armed by a request"
    [ period; 2.0 *. period; 3.0 *. period; 11.0 *. period; 12.0 *. period ]
    log;
  Alcotest.check times "Cell: as the hand-written loop" reference log;
  checki "Cell: no event beyond the fires and requests" ref_events events

(* Randomized end-to-end simulation with the full oracle, over several
   seeds. This is the main confidence test for the protocol under
   asynchrony (message crossings, token movement, freezes, caching). *)
let sim_stress ~seed ~nodes ~locks ~ops_per_node () =
  let engine = Dcs_sim.Engine.create () in
  let rng = Dcs_sim.Rng.create ~seed in
  let net = Net.create ~engine ~latency:(Dcs_sim.Dist.uniform_around 30.0) ~rng () in
  let cluster = Hlock_cluster.create ~oracle:true ~net ~nodes ~locks () in
  let completed = ref 0 in
  let expected = nodes * ops_per_node in
  for node = 0 to nodes - 1 do
    let nrng = Dcs_sim.Rng.split rng in
    let remaining = ref ops_per_node in
    let rec idle () =
      if !remaining > 0 then
        Dcs_sim.Engine.schedule engine ~after:(Dcs_sim.Rng.uniform nrng ~lo:1.0 ~hi:80.0) start
    and start () =
      let lock = Dcs_sim.Rng.int nrng ~bound:locks in
      let mode = Dcs_sim.Rng.pick nrng Dcs_modes.Mode.all in
      let seq = ref (-1) in
      seq :=
        Hlock_cluster.request cluster ~node ~lock ~mode ~on_granted:(fun () ->
            Dcs_sim.Engine.schedule engine ~after:(Dcs_sim.Rng.uniform nrng ~lo:0.5 ~hi:8.0)
              (fun () ->
                (* Occasionally exercise Rule 7. *)
                if Dcs_modes.Mode.equal mode Dcs_modes.Mode.U && Dcs_sim.Rng.bool nrng then
                  Hlock_cluster.upgrade cluster ~node ~lock ~seq:!seq ~on_upgraded:(fun () ->
                      Dcs_sim.Engine.schedule engine ~after:2.0 (fun () ->
                          Hlock_cluster.release cluster ~node ~lock ~seq:!seq;
                          incr completed;
                          decr remaining;
                          idle ()))
                else begin
                  Hlock_cluster.release cluster ~node ~lock ~seq:!seq;
                  incr completed;
                  decr remaining;
                  idle ()
                end))
    in
    idle ()
  done;
  (match Dcs_sim.Engine.run ~max_events:10_000_000 engine with
  | Dcs_sim.Engine.Drained -> ()
  | _ -> Alcotest.fail "engine did not drain");
  checki "all ops completed (liveness)" expected !completed;
  Alcotest.check Alcotest.(list string) "quiescent" [] (Hlock_cluster.quiescent_violations cluster)

(* Heavy-tailed latency maximizes cross-pair reordering: the adversarial
   delivery schedule for the epoch/custody machinery. *)
let test_sim_stress_heavy_tail () =
  let engine = Dcs_sim.Engine.create () in
  let rng = Dcs_sim.Rng.create ~seed:31L in
  let net =
    Net.create ~engine ~latency:(Dcs_sim.Dist.Exponential { mean = 40.0 }) ~rng ()
  in
  let cluster = Hlock_cluster.create ~oracle:true ~net ~nodes:12 ~locks:3 () in
  let completed = ref 0 in
  for node = 0 to 11 do
    let nrng = Dcs_sim.Rng.split rng in
    let remaining = ref 10 in
    let rec idle () =
      if !remaining > 0 then
        Dcs_sim.Engine.schedule engine ~after:(Dcs_sim.Rng.exponential nrng ~mean:30.0) start
    and start () =
      let lock = Dcs_sim.Rng.int nrng ~bound:3 in
      let mode = Dcs_sim.Rng.pick nrng Dcs_modes.Mode.all in
      let seq = ref (-1) in
      seq :=
        Hlock_cluster.request cluster ~node ~lock ~mode ~on_granted:(fun () ->
            Dcs_sim.Engine.schedule engine ~after:2.0 (fun () ->
                Hlock_cluster.release cluster ~node ~lock ~seq:!seq;
                incr completed;
                decr remaining;
                idle ()))
    in
    idle ()
  done;
  ignore (Dcs_sim.Engine.run ~max_events:10_000_000 engine);
  checki "heavy-tail liveness" 120 !completed;
  Alcotest.check Alcotest.(list string) "quiescent" [] (Hlock_cluster.quiescent_violations cluster)

let test_sim_stress_seeds () =
  List.iter (fun seed -> sim_stress ~seed ~nodes:10 ~locks:3 ~ops_per_node:12 ()) [ 3L; 17L; 101L; 4242L ]

let test_sim_stress_bigger () = sim_stress ~seed:7L ~nodes:24 ~locks:5 ~ops_per_node:10 ()

(* Every ablation switch stays live and safe: each run completes, and each
   switch changes the message counts of the same fixed run under the
   default config, so a switch that nothing reads fails here. *)
let test_sim_stress_ablations () =
  let run config =
    let engine = Dcs_sim.Engine.create () in
    let rng = Dcs_sim.Rng.create ~seed:5L in
    let net = Net.create ~engine ~latency:(Dcs_sim.Dist.uniform_around 25.0) ~rng () in
    let cluster = Hlock_cluster.create ~config ~oracle:true ~net ~nodes:8 ~locks:2 () in
    let completed = ref 0 in
    for node = 0 to 7 do
      let nrng = Dcs_sim.Rng.split rng in
      let remaining = ref 8 in
      let rec idle () =
        if !remaining > 0 then
          Dcs_sim.Engine.schedule engine ~after:(Dcs_sim.Rng.uniform nrng ~lo:1.0 ~hi:50.0) start
      and start () =
        let lock = Dcs_sim.Rng.int nrng ~bound:2 in
        let mode = Dcs_sim.Rng.pick nrng Dcs_modes.Mode.all in
        let seq = ref (-1) in
        seq :=
          Hlock_cluster.request cluster ~node ~lock ~mode ~on_granted:(fun () ->
              Dcs_sim.Engine.schedule engine ~after:2.0 (fun () ->
                  Hlock_cluster.release cluster ~node ~lock ~seq:!seq;
                  incr completed;
                  decr remaining;
                  idle ()))
      in
      idle ()
    done;
    ignore (Dcs_sim.Engine.run ~max_events:10_000_000 engine);
    checki "ablation liveness" 64 !completed;
    Dcs_proto.Counters.to_list (Net.counters net)
  in
  let default = run Dcs_hlock.Node.default_config in
  List.iter
    (fun (name, config) ->
      checkb (name ^ " changes the message counts") true (run config <> default))
    [
      ("no caching", { Dcs_hlock.Node.default_config with Dcs_hlock.Node.caching = false });
      ("no freezing", { Dcs_hlock.Node.default_config with Dcs_hlock.Node.freezing = false });
      ("eager releases", { Dcs_hlock.Node.default_config with Dcs_hlock.Node.eager_release = true });
      ("full reversal", { Dcs_hlock.Node.default_config with Dcs_hlock.Node.reverse_all = true });
    ]

(* {1 Experiment drivers} *)

let test_experiments_small () =
  List.iter
    (fun driver ->
      let cfg = Experiment.default_config ~driver ~nodes:6 in
      let cfg = { cfg with Experiment.oracle = true } in
      let r = Experiment.run cfg in
      checki "all ops" (6 * cfg.Experiment.workload.Airline.ops_per_node) r.Experiment.ops;
      checkb "messages flowed" true (r.Experiment.total_messages > 0);
      checkb "latency sane" true (r.Experiment.mean_latency_ms >= 0.0))
    Experiment.[ Hierarchical; Naimi_same_work; Naimi_pure ]

let test_experiment_determinism () =
  let run () =
    let cfg = Experiment.default_config ~driver:Experiment.Hierarchical ~nodes:8 in
    Experiment.run cfg
  in
  let a = run () and b = run () in
  checki "same messages" a.Experiment.total_messages b.Experiment.total_messages;
  Alcotest.check (Alcotest.float 1e-9) "same latency" a.Experiment.mean_latency_ms
    b.Experiment.mean_latency_ms;
  let c =
    Experiment.run
      { (Experiment.default_config ~driver:Experiment.Hierarchical ~nodes:8) with Experiment.seed = 43L }
  in
  checkb "different seed differs" true (c.Experiment.total_messages <> a.Experiment.total_messages)

(* The paper's qualitative claims, at a size where they are robust:
   hierarchical locking beats Naimi-same-work on latency, and costs no more
   messages per lock request than Naimi-pure. *)
let test_paper_relationships () =
  let run driver =
    Experiment.run (Experiment.default_config ~driver ~nodes:32)
  in
  let ours = run Experiment.Hierarchical in
  let same = run Experiment.Naimi_same_work in
  let pure = run Experiment.Naimi_pure in
  checkb
    (Printf.sprintf "latency: ours %.1f < same-work %.1f" ours.Experiment.latency_factor
       same.Experiment.latency_factor)
    true
    (ours.Experiment.latency_factor < same.Experiment.latency_factor);
  checkb
    (Printf.sprintf "messages/lockreq: ours %.2f <= pure %.2f + 20%%"
       ours.Experiment.msgs_per_lock_request pure.Experiment.msgs_per_lock_request)
    true
    (ours.Experiment.msgs_per_lock_request <= pure.Experiment.msgs_per_lock_request *. 1.2)

let test_result_rows () =
  let r = Experiment.run (Experiment.default_config ~driver:Experiment.Naimi_pure ~nodes:4) in
  checki "row arity" (List.length Experiment.row_header) (List.length (Experiment.result_row r))

(* {1 Golden behaviour pins}

   Literal message counts per class and engine event counts of fixed
   runs. Performance work on the protocol engine must leave behaviour
   bit-identical, so any change to these figures is a behaviour change
   and must be argued for, not absorbed.

   The hierarchical runs also carry a ceiling on the minor-heap words
   they allocate: a count, so unlike a timing the host cannot trip it.
   Each ceiling is the figure measured when it was set plus 10%, in the
   default build (release profile, cross-module inlining; see the root
   [dune-workspace]). A build that loses cross-module inlining boxes
   more floats and Int64s per message and fails them: [--profile dev]
   measures 123,355 and 131,896 words. *)

(* At most [ceiling] minor words allocated since the [Gc.minor_words]
   reading [before]. *)
let check_minor_words name ~ceiling ~before =
  let words = Gc.minor_words () -. before in
  checkb (Printf.sprintf "%s: %.0f minor words <= %.0f" name words ceiling) true (words <= ceiling)

let check_counts name expected counts =
  Alcotest.check
    Alcotest.(list (pair string int))
    name expected
    (List.map (fun (cls, n) -> (Dcs_proto.Msg_class.to_string cls, n)) counts)

let test_golden_airline () =
  let cfg = Experiment.default_config ~driver:Experiment.Hierarchical ~nodes:16 in
  let cfg =
    { cfg with Experiment.seed = 42L; workload = { cfg.Experiment.workload with Airline.ops_per_node = 20 } }
  in
  let before = Gc.minor_words () in
  let r = Experiment.run cfg in
  check_minor_words "airline run" ~ceiling:119_211.0 ~before;
  check_counts "messages by class"
    [ ("request", 432); ("grant", 237); ("token", 43); ("release", 233); ("freeze", 168);
      ("ack", 0); ("retx", 0) ]
    r.Experiment.messages;
  checki "engine events" 1759 r.Experiment.events

(* The Naimi baseline doing the airline run's work: every entry op takes
   that entry's exclusive lock, every table op takes every entry lock of
   the table in a fixed order. *)
let test_golden_naimi () =
  let cfg = Experiment.default_config ~driver:Experiment.Naimi_same_work ~nodes:16 in
  let cfg =
    { cfg with Experiment.seed = 42L; workload = { cfg.Experiment.workload with Airline.ops_per_node = 20 } }
  in
  let r = Experiment.run cfg in
  check_counts "messages by class"
    [ ("request", 1605); ("grant", 0); ("token", 623); ("release", 0); ("freeze", 0);
      ("ack", 0); ("retx", 0) ]
    r.Experiment.messages;
  checki "engine events" 2868 r.Experiment.events

(* The hot-lock shape of [hotlock-64] at 16 nodes: every non-token node
   runs closed-loop request, hold, release cycles on one lock, every
   fourth one writing; constant 1 ms links. *)
let test_golden_hotlock () =
  let nodes = 16 and rounds = 50 in
  let before = Gc.minor_words () in
  let engine = Dcs_sim.Engine.create () in
  let rng = Dcs_sim.Rng.create ~seed:42L in
  let net = Net.create ~engine ~latency:(Dcs_sim.Dist.Constant 1.0) ~rng () in
  let cluster = Hlock_cluster.create ~net ~nodes ~locks:1 () in
  let completed = ref 0 in
  let master = Dcs_sim.Rng.create ~seed:7L in
  for node = 1 to nodes - 1 do
    let hold = Dcs_sim.Rng.split master in
    let mode = if node mod 4 = 0 then Dcs_modes.Mode.W else Dcs_modes.Mode.R in
    let remaining = ref rounds in
    let rec go () =
      let seq = ref (-1) in
      seq :=
        Hlock_cluster.request cluster ~node ~lock:0 ~mode ~on_granted:(fun () ->
            Dcs_sim.Engine.schedule engine ~after:(Dcs_sim.Rng.uniform hold ~lo:0.25 ~hi:0.75)
              (fun () ->
                incr completed;
                Hlock_cluster.release cluster ~node ~lock:0 ~seq:!seq;
                decr remaining;
                if !remaining > 0 then Dcs_sim.Engine.schedule engine ~after:0.0 go))
    in
    Dcs_sim.Engine.schedule engine ~after:0.0 go
  done;
  ignore (Dcs_sim.Engine.run engine);
  check_minor_words "hot-lock run" ~ceiling:127_362.0 ~before;
  checki "all rounds" ((nodes - 1) * rounds) !completed;
  check_counts "messages by class"
    [ ("request", 766); ("grant", 600); ("token", 149); ("release", 600); ("freeze", 3);
      ("ack", 0); ("retx", 0) ]
    (Dcs_proto.Counters.to_list (Net.counters net));
  checki "engine events" 3618 (Dcs_sim.Engine.events_processed engine)

(* {1 Topology} *)

let test_topology_factors () =
  let open Dcs_sim in
  Alcotest.check (Alcotest.float 1e-9) "uniform" 1.0 (Topology.factor Topology.uniform ~src:0 ~dst:5);
  let racks = Topology.racks ~rack_size:4 ~remote_factor:3.0 in
  Alcotest.check (Alcotest.float 1e-9) "same rack" 1.0 (Topology.factor racks ~src:1 ~dst:3);
  Alcotest.check (Alcotest.float 1e-9) "cross rack" 3.0 (Topology.factor racks ~src:1 ~dst:4);
  let star = Topology.star ~hub:0 ~spoke_factor:2.0 in
  Alcotest.check (Alcotest.float 1e-9) "to hub" 1.0 (Topology.factor star ~src:3 ~dst:0);
  Alcotest.check (Alcotest.float 1e-9) "spoke to spoke" 2.0 (Topology.factor star ~src:3 ~dst:4);
  checkb "bad rack size" true
    (try ignore (Topology.racks ~rack_size:0 ~remote_factor:2.0); false
     with Invalid_argument _ -> true)

(* The labels and factors of the record-of-closures topology that the
   variant replaced: every directed pair of a 16-node cluster gets the old
   factor, bit for bit, under each shape. *)
let test_topology_unchanged () =
  let open Dcs_sim in
  let shapes =
    [ ("uniform", Topology.uniform, fun _ _ -> 1.0);
      ( "racks(4,x3.0)",
        Topology.racks ~rack_size:4 ~remote_factor:3.0,
        fun src dst -> if src / 4 = dst / 4 then 1.0 else 3.0 );
      ( "racks(5,x2.5)",
        Topology.racks ~rack_size:5 ~remote_factor:2.5,
        fun src dst -> if src / 5 = dst / 5 then 1.0 else 2.5 );
      ( "star(hub=0,x4.0)",
        Topology.star ~hub:0 ~spoke_factor:4.0,
        fun src dst -> if src = 0 || dst = 0 then 1.0 else 4.0 );
      ( "star(hub=7,x2.0)",
        Topology.star ~hub:7 ~spoke_factor:2.0,
        fun src dst -> if src = 7 || dst = 7 then 1.0 else 2.0 ) ]
  in
  List.iter
    (fun (label, topo, old) ->
      Alcotest.check Alcotest.string "label" label (Topology.to_string topo);
      for src = 0 to 15 do
        for dst = 0 to 15 do
          let got = Topology.factor topo ~src ~dst in
          if Int64.bits_of_float got <> Int64.bits_of_float (old src dst) then
            Alcotest.failf "%s n%d->n%d: %g, expected %g" label src dst got (old src dst)
        done
      done)
    shapes

let test_topology_slows_latency () =
  let run topology =
    let cfg = Experiment.default_config ~driver:Experiment.Hierarchical ~nodes:12 in
    (Experiment.run { cfg with Experiment.topology }).Experiment.mean_latency_ms
  in
  let uniform = run Dcs_sim.Topology.uniform in
  let racked = run (Dcs_sim.Topology.racks ~rack_size:6 ~remote_factor:8.0) in
  checkb
    (Printf.sprintf "racked (%.0f ms) slower than uniform (%.0f ms)" racked uniform)
    true (racked > uniform)

(* {1 Figures harness} *)

let test_figures_quick () =
  let nodes = [ 2; 4 ] in
  let series, report = Figures.fig5 ~nodes () in
  checkb "three drivers" true (List.length series = 3);
  checkb "two points each" true
    (List.for_all (fun s -> List.length s.Figures.points = 2) series);
  checkb "report has a table" true (String.length report > 200);
  let csv = Figures.to_csv series in
  checkb "csv rows" true (List.length (String.split_on_char '\n' csv) >= 7);
  let _, fig7 = Figures.fig7 ~nodes () in
  checkb "fig7 rendered" true (String.length fig7 > 100);
  checkb "tables rendered" true (String.length (Figures.tables ()) > 400)

(* {1 Naimi cluster oracle} *)

let test_naimi_cluster_quiescent () =
  let engine = Dcs_sim.Engine.create () in
  let rng = Dcs_sim.Rng.create ~seed:9L in
  let net = Net.create ~engine ~latency:(Dcs_sim.Dist.uniform_around 20.0) ~rng () in
  let cluster = Naimi_cluster.create ~oracle:true ~net ~nodes:5 ~locks:2 () in
  let order = ref [] in
  for node = 0 to 4 do
    Naimi_cluster.request cluster ~node ~lock:0 ~on_acquired:(fun () ->
        order := node :: !order;
        Dcs_sim.Engine.schedule engine ~after:5.0 (fun () ->
            Naimi_cluster.release cluster ~node ~lock:0))
  done;
  ignore (Dcs_sim.Engine.run engine);
  checki "all five entered" 5 (List.length !order);
  Alcotest.check Alcotest.(list string) "quiescent" [] (Naimi_cluster.quiescent_violations cluster)

let () =
  Alcotest.run "dcs_runtime"
    [
      ( "net",
        [
          Alcotest.test_case "fifo per pair" `Quick test_net_fifo_per_pair;
          Alcotest.test_case "fifo with wide ids" `Quick test_net_fifo_wide_ids;
          Alcotest.test_case "reset matches fresh" `Quick test_net_reset_matches_fresh;
          Alcotest.test_case "untraced net never forces describe" `Quick
            test_net_untraced_never_describes;
          Alcotest.test_case "counters" `Quick test_counters;
        ] );
      ( "hlock-cluster",
        [
          Alcotest.test_case "basic flow" `Quick test_cluster_basic_flow;
          Alcotest.test_case "watchdog cadence" `Quick test_watchdog_cadence;
          Alcotest.test_case "stress seeds" `Slow test_sim_stress_seeds;
          Alcotest.test_case "heavy-tail latency" `Slow test_sim_stress_heavy_tail;
          Alcotest.test_case "stress bigger" `Slow test_sim_stress_bigger;
          Alcotest.test_case "stress ablations" `Slow test_sim_stress_ablations;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "all drivers small" `Slow test_experiments_small;
          Alcotest.test_case "determinism" `Slow test_experiment_determinism;
          Alcotest.test_case "paper relationships" `Slow test_paper_relationships;
          Alcotest.test_case "result rows" `Quick test_result_rows;
        ] );
      ( "golden",
        [
          Alcotest.test_case "airline 16 nodes" `Quick test_golden_airline;
          Alcotest.test_case "hot lock 16 nodes" `Quick test_golden_hotlock;
          Alcotest.test_case "naimi same-work 16 nodes" `Quick test_golden_naimi;
        ] );
      ( "topology",
        [
          Alcotest.test_case "factors" `Quick test_topology_factors;
          Alcotest.test_case "old labels and factors" `Quick test_topology_unchanged;
          Alcotest.test_case "slows latency" `Slow test_topology_slows_latency;
        ] );
      ( "figures",
        [ Alcotest.test_case "quick harness" `Slow test_figures_quick ] );
      ( "naimi-cluster",
        [ Alcotest.test_case "quiescent" `Quick test_naimi_cluster_quiescent ] );
    ]
