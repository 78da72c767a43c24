(* Integration tests for the real TCP transport: several runners in one
   process, talking over loopback sockets. *)

module Runner = Dcs_netkit.Runner
module Config = Dcs_netkit.Cluster_config

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let base_port = ref 7600

(* A runner's transport counters and gauges, read by name from its live
   metrics registry. *)
let counter r name = Dcs_obs.Metrics.value (Dcs_obs.Metrics.counter (Runner.metrics r) name)
let gauge r name = Dcs_obs.Metrics.gauge_value (Dcs_obs.Metrics.gauge (Runner.metrics r) name)

(* Poll [ok] for up to 3 s. *)
let eventually ok =
  let deadline = Unix.gettimeofday () +. 3.0 in
  let rec go () =
    if ok () then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let make_cluster ~nodes ~locks =
  (* Fresh ports per test to dodge TIME_WAIT. *)
  base_port := !base_port + 16;
  let spec =
    String.concat ","
      (List.init nodes (fun i -> Printf.sprintf "%d:127.0.0.1:%d" i (!base_port + i)))
  in
  let config =
    match Config.parse ~locks spec with Ok c -> c | Error e -> Alcotest.fail e
  in
  let runners = Array.init nodes (fun self -> Runner.create ~config ~self ()) in
  Array.iter Runner.start runners;
  Thread.delay 0.15;
  runners

let stop_all runners = Array.iter Runner.stop runners

(* The fixed calls of several tests: node 1 takes R and releases it, then
   node 0 takes W and releases it, each after its grant. *)
let read_then_write runners =
  let take_and_release node mode =
    Runner.release runners.(node) ~lock:0 ~seq:(Runner.request_sync runners.(node) ~lock:0 ~mode)
  in
  take_and_release 1 Dcs_modes.Mode.R;
  take_and_release 0 Dcs_modes.Mode.W

let test_remote_grant () =
  let runners = make_cluster ~nodes:2 ~locks:1 in
  read_then_write runners;
  checkb "messages flowed" true (Dcs_proto.Counters.total (Runner.counters runners.(1)) > 0);
  stop_all runners

let test_writer_mutual_exclusion () =
  let runners = make_cluster ~nodes:3 ~locks:1 in
  let in_cs = ref 0 and max_in_cs = ref 0 and m = Mutex.create () in
  let worker self () =
    for _ = 1 to 5 do
      let seq = Runner.request_sync runners.(self) ~lock:0 ~mode:Dcs_modes.Mode.W in
      Mutex.lock m;
      incr in_cs;
      if !in_cs > !max_in_cs then max_in_cs := !in_cs;
      Mutex.unlock m;
      Thread.delay 0.002;
      Mutex.lock m;
      decr in_cs;
      Mutex.unlock m;
      Runner.release runners.(self) ~lock:0 ~seq
    done
  in
  let threads = List.init 3 (fun self -> Thread.create (worker self) ()) in
  List.iter Thread.join threads;
  checki "never two writers at once" 1 !max_in_cs;
  stop_all runners

let test_concurrent_readers_across_processes () =
  let runners = make_cluster ~nodes:4 ~locks:1 in
  (* All four take R; they must all be granted while held concurrently. *)
  let seqs =
    Array.mapi (fun i r -> (i, Runner.request_sync r ~lock:0 ~mode:Dcs_modes.Mode.R)) runners
  in
  Array.iter (fun (i, seq) -> Runner.release runners.(i) ~lock:0 ~seq) seqs;
  stop_all runners

let test_upgrade_over_tcp () =
  let runners = make_cluster ~nodes:2 ~locks:1 in
  let seq = Runner.request_sync runners.(1) ~lock:0 ~mode:Dcs_modes.Mode.U in
  Runner.upgrade_sync runners.(1) ~lock:0 ~seq;
  Runner.release runners.(1) ~lock:0 ~seq;
  stop_all runners

let test_multi_lock_traffic () =
  let runners = make_cluster ~nodes:3 ~locks:3 in
  let done_count = ref 0 and m = Mutex.create () in
  let worker self () =
    let rng = Dcs_sim.Rng.create ~seed:(Int64.of_int (self + 5)) in
    for _ = 1 to 10 do
      let lock = Dcs_sim.Rng.int rng ~bound:3 in
      let mode =
        if Dcs_sim.Rng.float rng < 0.7 then Dcs_modes.Mode.R else Dcs_modes.Mode.W
      in
      let seq = Runner.request_sync runners.(self) ~lock ~mode in
      Thread.delay 0.001;
      Runner.release runners.(self) ~lock ~seq;
      Mutex.lock m;
      incr done_count;
      Mutex.unlock m
    done
  in
  let threads = List.init 3 (fun self -> Thread.create (worker self) ()) in
  List.iter Thread.join threads;
  checki "all ops done" 30 !done_count;
  stop_all runners

(* {1 Inbound sockets} *)

(* Every inbound connection's socket is closed once its peer hangs up, as
   each [await_peers] probe does: after 50 connect/close cycles this
   process's descriptor table must be back where it was. The connections
   are held open until the runner has accepted them all, so the check
   cannot pass merely by running before the accept thread. It runs first,
   before any other runner's sockets churn the table. *)
let test_inbound_sockets_closed () =
  if not (Sys.file_exists "/proc/self/fd") then Alcotest.skip ();
  base_port := !base_port + 16;
  let config =
    match Config.parse ~locks:1 (Printf.sprintf "0:127.0.0.1:%d" !base_port) with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let runner = Runner.create ~config ~self:0 () in
  Runner.start runner;
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  (* Poll until [ok] holds of the descriptor count, or 3 s pass. *)
  let await ok =
    let deadline = Unix.gettimeofday () +. 3.0 in
    let rec go () =
      let n = open_fds () in
      if ok n || Unix.gettimeofday () >= deadline then n
      else begin
        Thread.delay 0.02;
        go ()
      end
    in
    go ()
  in
  let before = open_fds () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, !base_port) in
  let socks =
    List.init 50 (fun _ ->
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect sock addr;
        sock)
  in
  let accepted = await (fun n -> n >= before + 100) in
  List.iter Unix.close socks;
  let after = await (fun n -> n <= before) in
  Runner.stop runner;
  checkb (Printf.sprintf "both ends of 50 connections open (%d -> %d)" before accepted) true
    (accepted >= before + 100);
  checkb (Printf.sprintf "descriptors %d -> %d after the peers hung up" before after) true
    (after <= before + 2)

(* {1 Runtime stats (queryable transport observability)} *)

(* Poll until a 2-node cluster is quiescent and the counts it keeps
   independently agree: no frame queued, and on each node the engine's
   sends ([Runner.counters], counted at [send]) equal [net.frames_sent]
   (counted by the writer at kernel accept), which equal the peer's
   [net.frames_received]. After 3 s, fail with both values of a pair that
   differs. *)
let await_quiescent runners =
  let pairs () =
    List.concat_map
      (fun i ->
        let r = runners.(i) in
        let sent = counter r "net.frames_sent" in
        [
          (Printf.sprintf "node %d queued frames" i, Runner.queued_frames r, 0);
          ( Printf.sprintf "node %d engine sends vs net.frames_sent" i,
            Dcs_proto.Counters.total (Runner.counters r),
            sent );
          ( Printf.sprintf "node %d frames sent vs node %d received" i (1 - i),
            sent,
            counter runners.(1 - i) "net.frames_received" );
        ])
      [ 0; 1 ]
  in
  if not (eventually (fun () -> List.for_all (fun (_, a, b) -> a = b) (pairs ()))) then
    List.iter (fun (what, a, b) -> if a <> b then Alcotest.failf "%s: %d <> %d" what a b) (pairs ())

let test_stats_clean_cluster () =
  let runners = make_cluster ~nodes:2 ~locks:1 in
  read_then_write runners;
  await_quiescent runners;
  (* The registry is live: query before stop. *)
  let c = counter runners.(1) in
  checkb "frames were sent" true (c "net.frames_sent" > 0);
  checkb "bytes cover the frames (4-byte prefix each)" true
    (c "net.bytes_sent" >= 5 * c "net.frames_sent");
  checkb "batched writes happened" true (c "net.batches" > 0);
  checkb "connected at least once" true (c "net.connects" >= 1);
  checki "no reconnects on a clean run" 0 (c "net.reconnects");
  checki "nothing dropped while running" 0 (c "net.dropped_frames");
  checki "no decode errors" 0 (c "net.decode_errors");
  checkb "inbound traffic was counted" true
    (c "net.frames_received" > 0 && c "net.bytes_received" > 0);
  checkb "grant-mix counters fired" true (c "grants.R" > 0);
  stop_all runners

(* The TCP transport runs the protocol the simulator's checkers test: the
   same calls send the same messages, class by class, as on the
   synchronous in-memory cluster. *)
let test_sim_tcp_parity () =
  let runners = make_cluster ~nodes:2 ~locks:1 in
  read_then_write runners;
  await_quiescent runners;
  let module SC = Testkit.Sync_cluster in
  let c = SC.create 2 in
  SC.release c ~node:1 ~seq:(SC.acquire c ~node:1 ~mode:Dcs_modes.Mode.R);
  SC.release c ~node:0 ~seq:(SC.acquire c ~node:0 ~mode:Dcs_modes.Mode.W);
  SC.settle c;
  checkb "messages flowed" true (SC.messages_sent c > 0);
  List.iter
    (fun cls ->
      let tcp =
        Dcs_proto.Counters.get (Runner.counters runners.(0)) cls
        + Dcs_proto.Counters.get (Runner.counters runners.(1)) cls
      in
      checki (Dcs_proto.Msg_class.to_string cls) (SC.sent_of_class c cls) tcp)
    Dcs_proto.Msg_class.all;
  stop_all runners

let test_stats_unreachable_peer () =
  (* Node 0 alone, with a peer that never answers: the writer must keep
     retrying with growing backoff, the queue must report the stuck
     frames, and stop must count them as dropped. *)
  base_port := !base_port + 16;
  let spec =
    Printf.sprintf "0:127.0.0.1:%d,1:127.0.0.1:%d" !base_port (!base_port + 1)
  in
  let config = match Config.parse ~locks:1 spec with Ok c -> c | Error e -> Alcotest.fail e in
  let runner = Runner.create ~config ~self:1 () in
  Runner.start runner;
  (* Lock 0's token lives at node 0, so this request must go remote —
     and node 0 does not exist. Fire-and-forget the callback. *)
  ignore (Runner.request runner ~lock:0 ~mode:Dcs_modes.Mode.R ~on_granted:(fun () -> ()));
  (* Give the writer a few backoff cycles. *)
  Thread.delay 1.0;
  checkb "connect retries counted" true (counter runner "net.connect_retries" > 0);
  checkb "backoff is live and nonzero" true (gauge runner "net.backoff_ms" > 0.0);
  checkb "frames stuck in the queue" true (Runner.queued_frames runner >= 1);
  checki "nothing dropped before stop" 0 (counter runner "net.dropped_frames");
  Runner.stop runner;
  (* The writer thread finishes its current backoff sleep before it
     notices the shutdown and books the drops — poll briefly. *)
  let deadline = Unix.gettimeofday () +. 3.0 in
  let rec dropped () =
    if counter runner "net.dropped_frames" >= 1 then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Thread.delay 0.05;
      dropped ()
    end
  in
  checkb "queued frames dropped at stop" true (dropped ())

(* {1 Hostile inbound frames} *)

(* A well-formed frame whose sender id is outside the cluster is dropped
   and counted as a decode error: it changes no engine state, and the
   connection keeps serving — the valid frame written after it on the same
   socket is handled. Unchecked, the forged grant below would make node 1
   hold an instance and adopt node 5 as its accounting parent. *)
let test_forged_src_dropped () =
  let runners = make_cluster ~nodes:2 ~locks:1 in
  let target = runners.(1) in
  let seq = Runner.request_sync target ~lock:0 ~mode:Dcs_modes.Mode.R in
  Runner.release target ~lock:0 ~seq;
  Thread.delay 0.1;
  let errors () = counter target "net.decode_errors" in
  let sent () = Dcs_proto.Counters.total (Runner.counters target) in
  let state_before = Runner.lock_state target ~lock:0 in
  let errors_before = errors () and sent_before = sent () in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close sock; stop_all runners) @@ fun () ->
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, !base_port + 1));
  let oc = Unix.out_channel_of_descr sock in
  let req ~requester ~seq ~mode =
    { Dcs_hlock.Msg.requester; seq; mode; upgrade = false; timestamp = 1; priority = 0; hops = 1;
      hint_stamp = 0; hint_owner = requester; path = [ requester ] }
  in
  let write src msg =
    Dcs_wire.Codec.write_frame oc { Dcs_wire.Codec.src; lock = 0; payload = Dcs_wire.Codec.Hlock msg };
    flush oc
  in
  write 5
    (Dcs_hlock.Msg.Grant
       { req = req ~requester:1 ~seq:77 ~mode:Dcs_modes.Mode.R; epoch = 9;
         recorded = Dcs_modes.Mode.R; frozen = Dcs_modes.Mode_set.empty });
  checkb "forged frame counted" true (eventually (fun () -> errors () > errors_before));
  Alcotest.check Alcotest.string "engine state unchanged" state_before
    (Runner.lock_state target ~lock:0);
  checki "nothing sent in reply" sent_before (sent ());
  (* A W request from node 0 conflicts with whatever node 1 owns or
     caches, so serving it sends a message (a relay or the token). *)
  write 0 (Dcs_hlock.Msg.Request (req ~requester:0 ~seq:1000 ~mode:Dcs_modes.Mode.W));
  checkb "next valid frame served" true (eventually (fun () -> sent () > sent_before));
  checki "one decode error" (errors_before + 1) (errors ())

(* A hostile frame, a request whose path count is a negative nine-byte
   varint, is counted as a decode error. A decoder raising anything but
   [Buf.Malformed] would end the reader thread without counting it. *)
let test_hostile_frame_counted () =
  let runners = make_cluster ~nodes:2 ~locks:1 in
  let errors () = counter runners.(1) "net.decode_errors" in
  let before = errors () in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close sock; stop_all runners) @@ fun () ->
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, !base_port + 1));
  let valid =
    Dcs_wire.Codec.encode
      { Dcs_wire.Codec.src = 0; lock = 0;
        payload =
          Dcs_wire.Codec.Hlock
            (Dcs_hlock.Msg.Request
               { Dcs_hlock.Msg.requester = 0; seq = 1; mode = Dcs_modes.Mode.R; upgrade = false;
                 timestamp = 1; priority = 0; hops = 1; hint_stamp = 0;
                 hint_owner = 0; path = [] }) }
  in
  (* The last byte is the empty path's count. *)
  let body = String.sub valid 0 (String.length valid - 1) ^ String.make 8 '\xff' ^ "\x7f" in
  let n = String.length body in
  let header = String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff)) in
  let frame = Bytes.of_string (header ^ body) in
  ignore (Unix.write sock frame 0 (Bytes.length frame));
  checkb "hostile frame counted" true (eventually (fun () -> errors () > before))

(* A header announcing a body over [Codec.max_frame] is a malformed
   frame: counted as a decode error before any body is read, and the
   connection is closed. *)
let test_oversized_header_counted () =
  let runners = make_cluster ~nodes:2 ~locks:1 in
  let errors () = counter runners.(1) "net.decode_errors" in
  let before = errors () in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close sock; stop_all runners) @@ fun () ->
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, !base_port + 1));
  let n = Dcs_wire.Codec.max_frame + 1 in
  let header = Bytes.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff)) in
  ignore (Unix.write sock header 0 4);
  checkb "oversized header counted" true (eventually (fun () -> errors () > before));
  let closed =
    match Unix.select [ sock ] [] [] 5.0 with
    | [], _, _ -> false
    | _ -> Unix.read sock (Bytes.create 1) 0 1 = 0
  in
  checkb "connection closed" true closed

(* {1 A grant that never comes fails the caller}

   Node 1 requests while node 0, the token holder, is never started: the
   request can never reach the token, and [request_sync] must give up
   with a [Failure] naming the node, lock and seq instead of hanging. *)

let test_request_sync_deadline () =
  base_port := !base_port + 16;
  let spec = Printf.sprintf "0:127.0.0.1:%d,1:127.0.0.1:%d" !base_port (!base_port + 1) in
  let config = match Config.parse ~locks:1 spec with Ok c -> c | Error e -> Alcotest.fail e in
  let runner = Runner.create ~config ~self:1 () in
  Runner.start runner;
  let t0 = Unix.gettimeofday () in
  let outcome =
    match Runner.request_sync runner ~lock:0 ~mode:Dcs_modes.Mode.W with
    | _ -> None
    | exception Failure msg -> Some msg
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Runner.stop runner;
  match outcome with
  | None -> Alcotest.fail "granted without a token holder"
  | Some msg ->
      Alcotest.check Alcotest.string "failure names node, lock and seq"
        "Runner.request_sync: node 1 lock 0 seq 0 not granted within 5 s" msg;
      checkb "gave up within the deadline" true (elapsed < 7.0)

(* {1 In-process telemetry shards round-trip through the merger} *)

let test_telemetry_shards_merge () =
  base_port := !base_port + 16;
  let spec =
    Printf.sprintf "0:127.0.0.1:%d,1:127.0.0.1:%d" !base_port (!base_port + 1)
  in
  let config = match Config.parse ~locks:2 spec with Ok c -> c | Error e -> Alcotest.fail e in
  let dir = Filename.temp_file "dcs_netkit_shards" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let paths = List.init 2 (fun i -> Filename.concat dir (Printf.sprintf "node-%d.jsonl" i)) in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths;
      Unix.rmdir dir)
  @@ fun () ->
  let runners =
    Array.of_list
      (List.mapi
         (fun self path ->
           let telemetry =
             Dcs_obs.Recorder.create ~path
               ~meta:[ ("node", string_of_int self); ("nodes", "2"); ("locks", "2") ]
               ()
           in
           Runner.create ~telemetry ~config ~self ())
         paths)
  in
  Array.iter Runner.start runners;
  Thread.delay 0.15;
  (* Cross traffic on both locks so both shards carry sent/received
     edges and at least one token transfer. *)
  let seq = Runner.request_sync runners.(1) ~lock:0 ~mode:Dcs_modes.Mode.W in
  Runner.release runners.(1) ~lock:0 ~seq;
  let seq = Runner.request_sync runners.(0) ~lock:0 ~mode:Dcs_modes.Mode.R in
  Runner.release runners.(0) ~lock:0 ~seq;
  let seq = Runner.request_sync runners.(1) ~lock:1 ~mode:Dcs_modes.Mode.R in
  Runner.release runners.(1) ~lock:1 ~seq;
  (* Drain the wire before stop so no frame is dropped mid-flight. *)
  Thread.delay 0.3;
  stop_all runners;
  match Dcs_obs.Merge.load paths with
  | Error e -> Alcotest.failf "merge load: %s" e
  | Ok (loaded, warnings) ->
      checki "no truncation warnings" 0 (List.length warnings);
      let offsets = Dcs_obs.Merge.align loaded in
      let events = Dcs_obs.Merge.merged_events ~offsets loaded in
      let breakdowns, _ = Dcs_obs.Merge.critical_paths events in
      checkb "completed spans in the merged timeline" true (List.length breakdowns >= 3);
      checkb "a remote span paid net or token time" true
        (List.exists
           (fun (b : Dcs_obs.Merge.breakdown) ->
             b.Dcs_obs.Merge.b_net_ms > 0.0 || b.Dcs_obs.Merge.b_token_ms > 0.0)
           breakdowns);
      (* Shard frame accounting equals the transports' Counters exactly. *)
      (match Dcs_obs.Merge.summed_counters loaded with
      | None -> Alcotest.fail "shards carry no counters line"
      | Some counters ->
          let msgs = Dcs_obs.Merge.summed_msgs loaded in
          List.iter
            (fun (cls, n) ->
              checki
                (Printf.sprintf "class %s matches transport"
                   (Dcs_proto.Msg_class.to_string cls))
                n
                (fst (List.assoc cls msgs)))
            counters);
      let totals = Dcs_obs.Merge.metric_totals loaded in
      checkb "no frames dropped" true
        (List.assoc_opt "net.dropped_frames" totals = Some 0.0)

let () =
  Alcotest.run "dcs_netkit"
    [
      ( "sockets",
        [ Alcotest.test_case "inbound sockets closed" `Slow test_inbound_sockets_closed ] );
      ( "tcp",
        [
          Alcotest.test_case "remote grant" `Slow test_remote_grant;
          Alcotest.test_case "writer mutual exclusion" `Slow test_writer_mutual_exclusion;
          Alcotest.test_case "concurrent readers" `Slow test_concurrent_readers_across_processes;
          Alcotest.test_case "upgrade over tcp" `Slow test_upgrade_over_tcp;
          Alcotest.test_case "multi-lock traffic" `Slow test_multi_lock_traffic;
          Alcotest.test_case "same messages as the simulator" `Slow test_sim_tcp_parity;
        ] );
      ( "stats",
        [
          Alcotest.test_case "clean cluster stats" `Slow test_stats_clean_cluster;
          Alcotest.test_case "unreachable peer" `Slow test_stats_unreachable_peer;
          Alcotest.test_case "forged sender dropped" `Slow test_forged_src_dropped;
          Alcotest.test_case "hostile frame counted" `Slow test_hostile_frame_counted;
          Alcotest.test_case "oversized header counted" `Slow test_oversized_header_counted;
        ] );
      ( "deadline",
        [ Alcotest.test_case "request_sync gives up" `Slow test_request_sync_deadline ] );
      ( "telemetry",
        [ Alcotest.test_case "shards merge" `Slow test_telemetry_shards_merge ] );
    ]
