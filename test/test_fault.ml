(* Fault-injection subsystem: plan hooks and partition buffering in Net,
   the reliable-delivery shim under a scripted adversary, the protocol
   invariants and their per-delivery oracle, and end-to-end chaos
   determinism. *)

open Dcs_fault
module Net = Dcs_runtime.Net
module Experiment = Dcs_runtime.Experiment
module Link = Dcs_proto.Link

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let fresh_net ?(latency = Dcs_sim.Dist.Constant 10.0) ~seed () =
  let engine = Dcs_sim.Engine.create () in
  let rng = Dcs_sim.Rng.create ~seed in
  let net = Net.create ~engine ~latency ~rng () in
  (engine, net)

(* {1 Net fault hook} *)

(* A held link buffers; flush delivers in original send order. *)
let test_net_hold_flush () =
  let engine, net = fresh_net ~seed:3L () in
  Net.set_fault net (fun ~now:_ ~src ~dst:_ ~cls:_ ->
      if src = 0 then Link.Hold else Link.pass);
  let delivered = ref [] in
  for i = 1 to 8 do
    Net.send net ~src:0 ~dst:1 ~cls:Dcs_proto.Msg_class.Request
      ~describe:(fun () -> "held")
      (fun () -> delivered := i :: !delivered)
  done;
  Net.send net ~src:2 ~dst:1 ~cls:Dcs_proto.Msg_class.Request
    ~describe:(fun () -> "live")
    (fun () -> delivered := 100 :: !delivered);
  ignore (Dcs_sim.Engine.run engine);
  checki "held count" 8 (Net.held_count net);
  Alcotest.check Alcotest.(list int) "only the live link delivered" [ 100 ] (List.rev !delivered);
  checki "held still in flight" 8 (Net.in_flight net);
  Net.clear_fault net;
  Net.flush_held net;
  ignore (Dcs_sim.Engine.run engine);
  Alcotest.check
    Alcotest.(list int)
    "flush preserves send order"
    (100 :: List.init 8 (fun i -> i + 1))
    (List.rev !delivered);
  checki "drained" 0 (Net.in_flight net)

(* Drop and duplicate decisions are counted and (for dups) FIFO-safe. *)
let test_net_drop_duplicate () =
  let engine, net = fresh_net ~seed:4L () in
  let n = ref 0 in
  Net.set_fault net (fun ~now:_ ~src:_ ~dst:_ ~cls:_ ->
      incr n;
      if !n = 1 then Link.Deliver { copies = 0; delay_factor = 1.0; extra_delay = 0.0 }
      else if !n = 2 then Link.Deliver { copies = 3; delay_factor = 1.0; extra_delay = 0.0 }
      else Link.pass);
  let arrivals = ref [] in
  for i = 1 to 3 do
    Net.send net ~src:0 ~dst:1 ~cls:Dcs_proto.Msg_class.Request
      ~describe:(fun () -> "m")
      (fun () -> arrivals := i :: !arrivals)
  done;
  ignore (Dcs_sim.Engine.run engine);
  checki "dropped" 1 (Net.dropped net);
  checki "duplicated" 2 (Net.duplicated net);
  (* msg 1 dropped; msg 2 thrice; msg 3 once — copies stay FIFO. *)
  Alcotest.check Alcotest.(list int) "arrival order" [ 2; 2; 2; 3 ] (List.rev !arrivals);
  checki "counter counts sends, not copies" 3
    (Dcs_proto.Counters.get (Net.counters net) Dcs_proto.Msg_class.Request)

(* A latency spike defers affected messages but cannot reorder the pair. *)
let test_net_latency_spike_fifo () =
  let engine, net = fresh_net ~seed:5L () in
  let n = ref 0 in
  Net.set_fault net (fun ~now:_ ~src:_ ~dst:_ ~cls:_ ->
      incr n;
      if !n = 1 then Link.Deliver { copies = 1; delay_factor = 40.0; extra_delay = 0.0 }
      else Link.pass);
  let arrivals = ref [] in
  for i = 1 to 4 do
    Net.send net ~src:0 ~dst:1 ~cls:Dcs_proto.Msg_class.Request
      ~describe:(fun () -> "m")
      (fun () -> arrivals := i :: !arrivals)
  done;
  ignore (Dcs_sim.Engine.run engine);
  Alcotest.check
    Alcotest.(list int)
    "spiked first message still delivers first" [ 1; 2; 3; 4 ] (List.rev !arrivals)

(* Typed payloads posted to a port take every fault path as data: a held
   link flushed later, a drop and a duplicate. Each link still delivers
   in send order, and the net's books balance. *)
let test_net_post_faults () =
  let engine, net = fresh_net ~seed:6L () in
  let arrivals = Hashtbl.create 4 in
  let port =
    Net.port ~env:arrivals
      ~deliver:(fun arrivals src dst payload ->
        let link = (src, dst) in
        Hashtbl.replace arrivals link
          (payload :: Option.value ~default:[] (Hashtbl.find_opt arrivals link)))
      ~describe:string_of_int
  in
  let holding = ref true and on_0_2 = ref 0 in
  Net.set_fault net (fun ~now:_ ~src ~dst ~cls:_ ->
      match (src, dst) with
      | 0, 1 when !holding -> Link.Hold
      | 0, 2 ->
          incr on_0_2;
          if !on_0_2 = 2 then Link.Deliver { copies = 0; delay_factor = 1.0; extra_delay = 0.0 }
          else if !on_0_2 = 3 then Link.Deliver { copies = 2; delay_factor = 1.0; extra_delay = 0.0 }
          else Link.pass
      | _ -> Link.pass);
  let post ~src ~dst payload = Net.post net port ~src ~dst ~cls:Dcs_proto.Msg_class.Copy_grant payload in
  for i = 1 to 6 do
    post ~src:0 ~dst:1 i;
    post ~src:0 ~dst:2 i;
    post ~src:2 ~dst:1 (100 + i)
  done;
  ignore (Dcs_sim.Engine.run engine);
  checki "held" 6 (Net.held_count net);
  checki "held still in flight" 6 (Net.in_flight net);
  holding := false;
  Net.flush_held net;
  ignore (Dcs_sim.Engine.run engine);
  let link src dst = List.rev (Option.value ~default:[] (Hashtbl.find_opt arrivals (src, dst))) in
  Alcotest.check Alcotest.(list int) "held link" [ 1; 2; 3; 4; 5; 6 ] (link 0 1);
  Alcotest.check Alcotest.(list int) "lossy link" [ 1; 3; 3; 4; 5; 6 ] (link 0 2);
  Alcotest.check Alcotest.(list int) "live link" [ 101; 102; 103; 104; 105; 106 ] (link 2 1);
  checki "in flight drained" 0 (Net.in_flight net);
  checki "held drained" 0 (Net.held_count net);
  checki "dropped" 1 (Net.dropped net);
  checki "duplicated" 1 (Net.duplicated net);
  checki "posts counted" 18 (Dcs_proto.Counters.get (Net.counters net) Dcs_proto.Msg_class.Copy_grant)

(* The trace digest of a 16-node, two-lock cluster run whose traffic into
   n5 is held until a flush at 200 ms. It folds every send, hold and
   delivery record, each message's [describe] text included, so any
   change to what the net or the cluster sends or renders moves it. *)
let test_traced_cluster_digest () =
  let module Engine = Dcs_sim.Engine in
  let module Cluster = Dcs_runtime.Hlock_cluster in
  let engine = Engine.create () in
  let trace = Dcs_sim.Trace.create () in
  let net =
    Net.create ~engine ~latency:(Dcs_sim.Dist.uniform_around 10.0)
      ~rng:(Dcs_sim.Rng.create ~seed:16L) ~trace ()
  in
  let cluster = Cluster.create ~oracle:true ~net ~nodes:16 ~locks:2 () in
  Net.set_fault net (fun ~now:_ ~src:_ ~dst ~cls:_ -> if dst = 5 then Link.Hold else Link.pass);
  Engine.schedule engine ~after:200.0 (fun () ->
      Net.clear_fault net;
      Net.flush_held net);
  let modes = Dcs_modes.Mode.[| IR; R; U; IW; W |] in
  let granted = ref 0 in
  for node = 0 to 15 do
    for lock = 0 to 1 do
      let seq = ref (-1) in
      Engine.schedule engine ~after:(float_of_int node) (fun () ->
          seq :=
            Cluster.request cluster ~node ~lock ~mode:modes.((node + lock) mod 5) ~on_granted:(fun () ->
                incr granted;
                Engine.schedule engine ~after:5.0 (fun () ->
                    Cluster.release cluster ~node ~lock ~seq:!seq)))
    done
  done;
  ignore (Engine.run engine);
  checki "all granted" 32 !granted;
  Alcotest.check Alcotest.(list string) "at rest" [] (Cluster.quiescent_violations cluster);
  Alcotest.check Alcotest.int64 "trace digest" (-7367695683134469911L)
    (Dcs_sim.Trace.digest trace)

(* {1 Plan} *)

let test_plan_windows_and_shim () =
  let w = { Plan.start = 100.0; duration = 50.0 } in
  let clean = [ Plan.Latency_spike { window = w; factor = 4.0; scope = Plan.All } ] in
  let lossy = clean @ [ Plan.Drop { window = w; prob = 0.1; scope = Plan.All } ] in
  checkb "latency plan needs no shim" false (Plan.needs_shim clean);
  checkb "drop plan needs shim" true (Plan.needs_shim lossy);
  Alcotest.check (Alcotest.float 1e-9) "horizon" 150.0 (Plan.horizon lossy);
  List.iter
    (fun name ->
      match Plan.named ~nodes:16 ~horizon:10_000.0 name with
      | Some plan ->
          checkb (name ^ " non-empty") true (plan <> []);
          checkb (name ^ " fits horizon") true (Plan.horizon plan <= 10_000.0)
      | None -> Alcotest.failf "named plan %s missing" name)
    Plan.names;
  checkb "unknown plan" true (Plan.named ~nodes:16 ~horizon:1e4 "nope" = None)

(* The installed hook holds partitioned pairs exactly during the window
   and heals (flush fires) at its end. *)
let test_plan_install_partition () =
  let engine = Dcs_sim.Engine.create () in
  let rng = Dcs_sim.Rng.create ~seed:11L in
  let plan =
    [
      Plan.Partition
        { window = { Plan.start = 100.0; duration = 200.0 }; groups = [ [ 0 ]; [ 1 ] ] };
    ]
  in
  let hook = ref (fun ~now:_ ~src:_ ~dst:_ ~cls:_ -> Link.pass) in
  let flushes = ref [] in
  Plan.install plan ~engine ~rng
    ~set_fault:(fun f -> hook := f)
    ~flush:(fun () -> flushes := Dcs_sim.Engine.now engine :: !flushes);
  let decide ~now ~src ~dst = !hook ~now ~src ~dst ~cls:Dcs_proto.Msg_class.Request in
  checkb "before window passes" true (decide ~now:50.0 ~src:0 ~dst:1 = Link.pass);
  checkb "inside window holds" true (decide ~now:150.0 ~src:0 ~dst:1 = Link.Hold);
  checkb "reverse direction holds too" true (decide ~now:150.0 ~src:1 ~dst:0 = Link.Hold);
  checkb "unlisted node passes" true (decide ~now:150.0 ~src:2 ~dst:0 = Link.pass);
  checkb "after window passes" true (decide ~now:301.0 ~src:0 ~dst:1 = Link.pass);
  ignore (Dcs_sim.Engine.run engine);
  checki "one heal flush" 1 (List.length !flushes);
  checkb "flush at window end" true (List.hd !flushes >= 300.0)

(* {1 Reliable shim under a scripted adversary} *)

(* The adversary drops every 3rd transmission, duplicates every 4th, and
   alternates 5 ms / 45 ms delays so later sequence numbers overtake
   earlier ones. The shim must still deliver exactly once, in order. *)
let test_reliable_adversary () =
  let engine = Dcs_sim.Engine.create () in
  let attempts = ref 0 in
  let below ~src:_ ~dst:_ ~cls:_ ~describe:_ k =
    incr attempts;
    let n = !attempts in
    if n mod 3 = 0 then () (* dropped *)
    else begin
      let delay = if n mod 2 = 0 then 45.0 else 5.0 in
      Dcs_sim.Engine.schedule engine ~after:delay k;
      if n mod 4 = 0 then Dcs_sim.Engine.schedule engine ~after:(delay +. 13.0) k
    end
  in
  let shim = Reliable.create ~engine ~rto:100.0 ~below () in
  let delivered = ref [] in
  let total = 40 in
  for i = 1 to total do
    Reliable.send shim ~src:0 ~dst:1 ~cls:Dcs_proto.Msg_class.Request
      ~describe:(fun () -> Printf.sprintf "payload-%d" i)
      (fun () -> delivered := i :: !delivered)
  done;
  (match Dcs_sim.Engine.run engine with
  | Dcs_sim.Engine.Drained -> ()
  | _ -> Alcotest.fail "engine did not drain");
  Alcotest.check
    Alcotest.(list int)
    "exactly-once, in-order delivery"
    (List.init total (fun i -> i + 1))
    (List.rev !delivered);
  let s = Reliable.stats shim in
  checki "all data accepted" total s.Reliable.data_sent;
  checkb "some retransmits happened" true (s.Reliable.retransmits > 0);
  checkb "dedup caught duplicates" true (s.Reliable.duplicates_dropped > 0);
  checkb "reordered arrivals were buffered" true (s.Reliable.buffered_out_of_order > 0);
  (* Bounded recovery: every loss is repaired within a handful of RTOs. *)
  checkb "retransmits bounded" true (s.Reliable.retransmits <= 4 * total);
  Alcotest.check Alcotest.(list string) "channels drained" [] (Reliable.quiescent_violations shim)

(* Two interleaved directed pairs keep independent sequence spaces. *)
let test_reliable_pairs_independent () =
  let engine = Dcs_sim.Engine.create () in
  let below ~src:_ ~dst:_ ~cls:_ ~describe:_ k = Dcs_sim.Engine.schedule engine ~after:1.0 k in
  let shim = Reliable.create ~engine ~below () in
  let got = ref [] in
  List.iter
    (fun (src, dst, tag) ->
      Reliable.send shim ~src ~dst ~cls:Dcs_proto.Msg_class.Copy_grant
        ~describe:(fun () -> tag)
        (fun () -> got := tag :: !got))
    [ (0, 1, "a1"); (1, 0, "b1"); (0, 1, "a2"); (2, 1, "c1"); (1, 0, "b2") ];
  ignore (Dcs_sim.Engine.run engine);
  checki "all delivered" 5 (List.length !got);
  let order_of tag = List.length (List.filter (fun t -> t < tag) (List.rev !got)) in
  checkb "a1 before a2" true (order_of "a1" < order_of "a2");
  checkb "b1 before b2" true (order_of "b1" < order_of "b2");
  Alcotest.check Alcotest.(list string) "drained" [] (Reliable.quiescent_violations shim)

(* A lossless link must add no retransmits and still quiesce. *)
let test_reliable_clean_link_no_overhead () =
  let engine = Dcs_sim.Engine.create () in
  let below ~src:_ ~dst:_ ~cls:_ ~describe:_ k = Dcs_sim.Engine.schedule engine ~after:2.0 k in
  let shim = Reliable.create ~engine ~below () in
  let n = ref 0 in
  for _ = 1 to 20 do
    Reliable.send shim ~src:3 ~dst:4 ~cls:Dcs_proto.Msg_class.Release
      ~describe:(fun () -> "x")
      (fun () -> incr n)
  done;
  ignore (Dcs_sim.Engine.run engine);
  checki "all delivered" 20 !n;
  let s = Reliable.stats shim in
  checki "no retransmits on a clean link" 0 s.Reliable.retransmits;
  checki "no duplicates" 0 s.Reliable.duplicates_dropped

(* {1 Invariant}

   Violating states are built from hand-written snapshots: a four-node
   star with the token at n0 and n1 caching R under a matching n0 record
   is the clean base, and each case edits one snapshot. *)

module Node = Dcs_hlock.Node
module Invariant = Dcs_hlock.Invariant
module Mode = Dcs_modes.Mode

let peers = 4

let base_snapshots () =
  let snap id =
    Node.export
      (Node.create ~id ~peers ~is_token:(id = 0)
         ~parent:(if id = 0 then None else Some 0)
         ~send:(fun ~dst:_ _ -> ())
         ())
  in
  let s = Array.init peers snap in
  s.(0) <- { (s.(0)) with Node.s_children = [ (1, Mode.R, 1) ] };
  s.(1) <-
    {
      (s.(1)) with
      Node.s_cached = Dcs_modes.Mode_set.singleton Mode.R;
      s_accounted_parent = Some 0;
      s_accounted_epoch = 1;
    };
  s

let cache snaps id m = { (snaps.(id)) with Node.s_cached = Dcs_modes.Mode_set.singleton m }

let nodes_of snaps =
  Array.mapi
    (fun id s ->
      Node.restore ~id ~peers ~send:(fun ~dst:_ _ -> ()) s)
    snaps

(* [waiting_at]: nodes that each issue one client W request first, left
   waiting (their sends go nowhere). *)
let safety ?(tokens_in_flight = 0) ?(waiting_at = []) snaps =
  let nodes = nodes_of snaps in
  List.iter (fun id -> ignore (Node.request nodes.(id) ~mode:Mode.W ~on_granted:ignore)) waiting_at;
  Invariant.safety ~lock:0 ~tokens_in_flight nodes

let quiescent snaps = Invariant.quiescent ~lock:0 (nodes_of snaps)

let edit f =
  let s = base_snapshots () in
  f s;
  s

let check_clean label vs = Alcotest.check Alcotest.(list string) label [] vs

let contains ~needle s =
  let n = String.length needle in
  let rec scan i = i + n <= String.length s && (String.sub s i n = needle || scan (i + 1)) in
  scan 0

(* Each case must be reported, and for the right reason. *)
let check_reports cases =
  List.iter
    (fun (label, needle, vs) ->
      checkb (label ^ " caught") true (List.exists (contains ~needle) vs))
    cases

let test_invariant_clean () =
  check_clean "safety" (safety (base_snapshots ()));
  check_clean "quiescent" (quiescent (base_snapshots ()));
  (* In-flight transfers count toward token conservation. *)
  check_clean "in-flight token is fine"
    (safety ~tokens_in_flight:1
       (edit (fun s -> s.(0) <- { (s.(0)) with Node.s_token = false })))

let queued_request =
  {
    Dcs_hlock.Msg.requester = 2;
    seq = 0;
    mode = Mode.W;
    upgrade = false;
    timestamp = 1;
    priority = 0;
    hops = 1;
    hint_stamp = 0;
    hint_owner = 0;
    path = [ 2 ];
  }

let one_queued s = s.(0) <- { (s.(0)) with Node.s_queue = [ queued_request ] }

let test_invariant_safety_violations () =
  check_reports
    [
      ( "duplicated token",
        "token multiplicity 2",
        safety (edit (fun s -> s.(2) <- { (s.(2)) with Node.s_token = true })) );
      ( "lost token",
        "token multiplicity 0",
        safety (edit (fun s -> s.(0) <- { (s.(0)) with Node.s_token = false })) );
      ("queue longer than waiting", "1 queued requests", safety (edit one_queued));
    ];
  check_clean "queue within waiting" (safety ~waiting_at:[ 2 ] (edit one_queued));
  (* W cached on n2 against R cached on n1: the report names both witnesses. *)
  Alcotest.check
    Alcotest.(list string)
    "cached W vs cached R"
    [ "lock 0: incompatible retained modes n1:R vs n2:W" ]
    (safety (edit (fun s -> s.(2) <- cache s 2 Mode.W)))

(* A clean check allocates nothing: the oracle runs after every delivery
   and client call, so whatever it allocates is paid per message. It is
   measured at every delivery of a busy 8-node cluster (cached, held and
   queued modes of all five kinds) after warm-up requests. *)
let test_invariant_allocation_free () =
  let module C = Testkit.Sync_cluster in
  let c = C.create 8 in
  let modes = [| Mode.IR; Mode.R; Mode.U; Mode.IW; Mode.W |] in
  for node = 1 to 7 do
    ignore (C.acquire c ~node ~mode:Mode.R)
  done;
  for node = 0 to 7 do
    ignore (C.request c ~node ~mode:modes.(node mod 5))
  done;
  let busy = ref 0 in
  let rec go () =
    let nodes = c.C.nodes in
    let tokens_in_flight =
      List.length
        (List.filter (function _, _, Dcs_hlock.Msg.Token _ -> true | _ -> false) c.C.wire)
    in
    let retained = Array.exists (fun e -> Node.held e <> [] || Node.cached e <> []) nodes in
    let queued = Array.exists (fun e -> Node.queue e <> []) nodes in
    let before = Gc.minor_words () in
    let vs = Invariant.safety ~lock:0 ~tokens_in_flight nodes in
    let words = Gc.minor_words () -. before in
    check_clean "clean" vs;
    Alcotest.check (Alcotest.float 0.0) "minor words of a clean check" 0.0 words;
    if retained && queued then incr busy;
    if C.step c then go ()
  in
  go ();
  checkb (Printf.sprintf "%d busy states checked" !busy) true (!busy > 0)

let test_invariant_quiescent_violations () =
  check_reports
    [
      ( "child record disagrees with owned mode",
        "n0 records n1 as IR but its owned mode is R",
        quiescent (edit (fun s -> s.(0) <- { (s.(0)) with Node.s_children = [ (1, Mode.IR, 1) ] }))
      );
      ( "accounting parent with no record",
        "n1 claims accounting parent n0, which has no record",
        quiescent (edit (fun s -> s.(0) <- { (s.(0)) with Node.s_children = [] })) );
      ( "own routing parent",
        "n3 is its own routing parent",
        quiescent (edit (fun s -> s.(3) <- { (s.(3)) with Node.s_parent = Some 3 })) );
    ]

(* The per-delivery oracle fires: a transport that delivers the first
   token transfer twice breaks token conservation, and the delivery that
   does it raises. *)
let test_oracle_catches_duplicate_token () =
  let engine, net = fresh_net ~seed:5L () in
  let duplicated = ref false in
  let transport ~src ~dst ~cls ~describe k =
    Net.send net ~src ~dst ~cls ~describe k;
    if cls = Dcs_proto.Msg_class.Token_transfer && not !duplicated then begin
      duplicated := true;
      Net.send net ~src ~dst ~cls ~describe k
    end
  in
  let cluster =
    Dcs_runtime.Hlock_cluster.create ~oracle:true ~transport ~net ~nodes:3 ~locks:1 ()
  in
  ignore
    (Dcs_runtime.Hlock_cluster.request cluster ~node:2 ~lock:0 ~mode:Mode.W
       ~on_granted:ignore);
  match Dcs_sim.Engine.run engine with
  | _ -> Alcotest.fail "duplicated token went unnoticed"
  | exception Failure msg ->
      checkb ("names token multiplicity: " ^ msg) true (contains ~needle:"token multiplicity" msg)

(* {1 End-to-end chaos experiments} *)

let chaos_config ~seed =
  let cfg = Experiment.default_config ~driver:Experiment.Hierarchical ~nodes:8 in
  {
    cfg with
    Experiment.seed;
    workload = { cfg.Experiment.workload with Dcs_workload.Airline.ops_per_node = 8; entries = 4 };
  }

let run_chaos ~seed name =
  let cfg = chaos_config ~seed in
  let horizon = Experiment.horizon_estimate cfg in
  let plan = Option.get (Plan.named ~nodes:8 ~horizon name) in
  let cfg = { cfg with Experiment.chaos = Some plan } in
  let trace = Dcs_sim.Trace.create () in
  let result = Experiment.run ~trace cfg in
  (result, Dcs_sim.Trace.digest trace)

(* Every shipped plan: all ops complete, zero invariant violations. *)
let test_chaos_plans_clean () =
  List.iter
    (fun name ->
      let result, _ = run_chaos ~seed:21L name in
      checki (name ^ " all ops") (8 * 8) result.Experiment.ops;
      let rep = Option.get result.Experiment.chaos_report in
      Alcotest.check
        Alcotest.(list string)
        (name ^ " invariants clean") [] rep.Experiment.violations)
    Plan.names

(* Same seed + same plan ⇒ identical trace digest; and the plan actually
   perturbs the run (digest differs from the fault-free one). *)
let test_chaos_determinism () =
  List.iter
    (fun name ->
      let _, d1 = run_chaos ~seed:9L name in
      let _, d2 = run_chaos ~seed:9L name in
      Alcotest.check Alcotest.int64 (name ^ " digest reproduces") d1 d2;
      let _, d3 = run_chaos ~seed:10L name in
      checkb (name ^ " seed matters") true (not (Int64.equal d1 d3)))
    [ "heal-partition"; "lossy-dup" ]

(* Trace digests of [run_chaos ~seed:9L] for every plan, and of the same
   config without chaos, measured before every run took one network
   path: a change that moves the chaos path or the plain one moves
   them. *)
let test_chaos_digest_pins () =
  List.iter
    (fun (name, pinned) ->
      let _, d = run_chaos ~seed:9L name in
      Alcotest.check Alcotest.int64 (name ^ " digest") pinned d)
    [
      ("latency-spike", -8667075568807820343L);
      ("heal-partition", -2213776899654906010L);
      ("slow-node", -1038266375869065318L);
      ("lossy-dup", -5877101304898470657L);
    ];
  let trace = Dcs_sim.Trace.create () in
  ignore (Experiment.run ~trace (chaos_config ~seed:9L));
  Alcotest.check Alcotest.int64 "no chaos digest" (-3834342303133513465L)
    (Dcs_sim.Trace.digest trace)

(* The empty plan is no plan: same messages, engine events and latency
   sample, and a clean report with no shim and no fault. *)
let test_chaos_empty_plan () =
  let cfg = chaos_config ~seed:9L in
  let plain = Experiment.run cfg in
  let empty = Experiment.run { cfg with Experiment.chaos = Some [] } in
  checkb "messages" true (plain.Experiment.messages = empty.Experiment.messages);
  checki "engine events" plain.Experiment.events empty.Experiment.events;
  Alcotest.check
    Alcotest.(list (float 0.0))
    "latency sample"
    (Dcs_stats.Sample.values plain.Experiment.latencies)
    (Dcs_stats.Sample.values empty.Experiment.latencies);
  checkb "no report without chaos" true (plain.Experiment.chaos_report = None);
  let rep = Option.get empty.Experiment.chaos_report in
  Alcotest.check Alcotest.(list string) "clean" [] rep.Experiment.violations;
  checkb "no shim" true (rep.Experiment.reliable_stats = None);
  checki "nothing dropped" 0 (rep.Experiment.net_dropped + rep.Experiment.net_duplicated)

let test_chaos_rejects_bad_configs () =
  let w = { Plan.start = 0.0; duration = 1000.0 } in
  let lossy = [ Plan.Drop { window = w; prob = 0.5; scope = Plan.All } ] in
  let naimi =
    {
      (Experiment.default_config ~driver:Experiment.Naimi_pure ~nodes:4) with
      Experiment.chaos = Some lossy;
    }
  in
  checkb "chaos under naimi rejected" true
    (match Experiment.run naimi with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The shim's wire overhead is visible in the standard message counters
   under their own classes. *)
let test_chaos_overhead_accounted () =
  let result, _ = run_chaos ~seed:33L "lossy-dup" in
  let rep = Option.get result.Experiment.chaos_report in
  let stats = Option.get rep.Experiment.reliable_stats in
  let count cls = try List.assoc cls result.Experiment.messages with Not_found -> 0 in
  checki "acks on the wire" stats.Reliable.acks (count Dcs_proto.Msg_class.Ack);
  checki "retransmits on the wire" stats.Reliable.retransmits
    (count Dcs_proto.Msg_class.Retransmit);
  checkb "overhead reported" true (rep.Experiment.shim_overhead > 0.0);
  checkb "faults actually fired" true (rep.Experiment.net_dropped > 0)

let () =
  Alcotest.run "fault"
    [
      ( "net-faults",
        [
          Alcotest.test_case "hold and flush" `Quick test_net_hold_flush;
          Alcotest.test_case "drop and duplicate" `Quick test_net_drop_duplicate;
          Alcotest.test_case "latency spike keeps FIFO" `Quick test_net_latency_spike_fifo;
          Alcotest.test_case "typed payloads under faults" `Quick test_net_post_faults;
          Alcotest.test_case "traced cluster digest" `Quick test_traced_cluster_digest;
        ] );
      ( "plan",
        [
          Alcotest.test_case "windows and shim flag" `Quick test_plan_windows_and_shim;
          Alcotest.test_case "install partition" `Quick test_plan_install_partition;
        ] );
      ( "reliable",
        [
          Alcotest.test_case "scripted adversary" `Quick test_reliable_adversary;
          Alcotest.test_case "independent pairs" `Quick test_reliable_pairs_independent;
          Alcotest.test_case "clean link no overhead" `Quick test_reliable_clean_link_no_overhead;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "clean state" `Quick test_invariant_clean;
          Alcotest.test_case "detects safety violations" `Quick test_invariant_safety_violations;
          Alcotest.test_case "clean check allocates nothing" `Quick test_invariant_allocation_free;
          Alcotest.test_case "detects quiescence violations" `Quick
            test_invariant_quiescent_violations;
          Alcotest.test_case "oracle catches duplicated token" `Quick
            test_oracle_catches_duplicate_token;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "all plans clean" `Slow test_chaos_plans_clean;
          Alcotest.test_case "determinism" `Slow test_chaos_determinism;
          Alcotest.test_case "digest pins" `Quick test_chaos_digest_pins;
          Alcotest.test_case "empty plan is no plan" `Quick test_chaos_empty_plan;
          Alcotest.test_case "bad configs rejected" `Quick test_chaos_rejects_bad_configs;
          Alcotest.test_case "overhead accounted" `Slow test_chaos_overhead_accounted;
        ] );
    ]
