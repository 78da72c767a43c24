(* The microbenchmark suite, shared by the human-readable harness
   (main.ml) and the machine-readable report (report.ml): one row per
   protocol decision table (the precomputed Decision arrays the hot path
   calls) plus the simulator and protocol hot paths. *)

open Bechamel
open Toolkit

let mode_pairs =
  List.concat_map (fun a -> List.map (fun b -> (a, b)) Dcs_modes.Mode.all) Dcs_modes.Mode.all

(* The protocol decision tables (Tables 1a-2b) through the precomputed
   Decision lookup arrays, owned codes kept as ints, as Node does. *)
let code_pairs =
  List.map (fun (a, b) -> (Dcs_modes.Decision.code_of_mode a, b)) mode_pairs

let bench_decision_1a =
  Test.make ~name:"decision-1a compatibility"
    (Staged.stage (fun () ->
         List.iter (fun (a, b) -> ignore (Dcs_modes.Decision.compatible a b)) mode_pairs))

let bench_decision_1b =
  Test.make ~name:"decision-1b child grant"
    (Staged.stage (fun () ->
         List.iter
           (fun (c, b) -> ignore (Dcs_modes.Decision.can_child_grant ~owned:c b))
           code_pairs))

let bench_decision_2a =
  Test.make ~name:"decision-2a queue/forward"
    (Staged.stage (fun () ->
         List.iter
           (fun (c, b) -> ignore (Dcs_modes.Decision.queueable ~pending:c b))
           code_pairs))

let bench_decision_2b =
  Test.make ~name:"decision-2b freeze set"
    (Staged.stage (fun () ->
         List.iter
           (fun (c, b) -> ignore (Dcs_modes.Decision.freeze_set ~owned:c b))
           code_pairs))

let bench_mode_set =
  Test.make ~name:"mode-set algebra"
    (Staged.stage (fun () ->
         let open Dcs_modes in
         let s = Mode_set.of_list [ Mode.IR; Mode.R ] in
         let t = Mode_set.of_list [ Mode.R; Mode.W ] in
         ignore (Mode_set.union s t);
         ignore (Mode_set.inter s t);
         ignore (Mode_set.diff s t)))

let bench_engine =
  Test.make ~name:"engine 1k events"
    (Staged.stage (fun () ->
         let e = Dcs_sim.Engine.create () in
         for i = 1 to 1000 do
           Dcs_sim.Engine.schedule e ~after:(float_of_int (i mod 17)) (fun () -> ())
         done;
         ignore (Dcs_sim.Engine.run e)))

(* A steady queue of [n] pending events: each fired event schedules one
   more with a delay from the airline mix — a 150 ms message (uniform
   75–225 ms) three times in four, else a 15 ms timer (uniform 7.5–22.5
   ms) — so each insert lands at a random depth. One run fires 1,000
   events; the rows pick the engine's run/heap bound (engine.ml). *)
let bench_engine_steady n =
  Test.make ~name:(Printf.sprintf "engine steady %d pending" n)
    (Staged.stage
       (let e = Dcs_sim.Engine.create () in
        let rng = Dcs_sim.Rng.create ~seed:7L in
        let rec fire () =
          let after =
            if Dcs_sim.Rng.int rng ~bound:4 = 0 then Dcs_sim.Rng.uniform rng ~lo:7.5 ~hi:22.5
            else Dcs_sim.Rng.uniform rng ~lo:75.0 ~hi:225.0
          in
          Dcs_sim.Engine.schedule e ~after fire
        in
        for _ = 1 to n do
          fire ()
        done;
        fun () ->
          for _ = 1 to 1000 do
            ignore (Dcs_sim.Engine.step e)
          done))

(* 1k records into a trace: the per-record cost of a traced run (render
   the line, fold it into the FNV-1a digest; nothing is kept). The name
   predates the digest-only trace and stays so the gate keeps its
   baseline. *)
let bench_trace =
  Test.make ~name:"trace 1k records (cap 64)"
    (Staged.stage (fun () ->
         let tr = Dcs_sim.Trace.create () in
         for i = 1 to 1000 do
           Dcs_sim.Trace.record tr ~time:(float_of_int i) (fun () -> "event")
         done;
         ignore (Dcs_sim.Trace.digest tr)))

(* One full request/grant/release round trip on an 8-node simulated
   cluster: the protocol hot path end-to-end. *)
let bench_hlock_roundtrip =
  Test.make ~name:"hlock request round trip"
    (Staged.stage
       (let counter = ref 0 in
        fun () ->
          incr counter;
          let engine = Dcs_sim.Engine.create () in
          let rng = Dcs_sim.Rng.create ~seed:(Int64.of_int !counter) in
          let net =
            Dcs_runtime.Net.create ~engine ~latency:(Dcs_sim.Dist.Constant 1.0) ~rng ()
          in
          let cluster = Dcs_runtime.Hlock_cluster.create ~net ~nodes:8 ~locks:1 () in
          for node = 1 to 7 do
            let seq = ref (-1) in
            seq :=
              Dcs_runtime.Hlock_cluster.request cluster ~node ~lock:0 ~mode:Dcs_modes.Mode.R
                ~on_granted:(fun () ->
                  Dcs_runtime.Hlock_cluster.release cluster ~node ~lock:0 ~seq:!seq)
          done;
          ignore (Dcs_sim.Engine.run engine)))

(* Rule 6 bookkeeping at a token node of [peers] nodes with one child:
   a queued W keeps a frozen set, and the child's record alternating
   between R and IR (two Releases at its epoch) changes that set twice
   per run, so each run walks the copyset for Freeze targets twice. The
   Freeze itself goes out once; later walks find nothing new to send. A
   walk over the copyset costs the same at 8 and 128 peers; a walk over
   every peer slot does not. *)
let bench_freeze_walk peers =
  Test.make
    ~name:(Printf.sprintf "hlock freeze walk %d peers" peers)
    (Staged.stage
       (let open Dcs_hlock in
        let open Dcs_modes in
        let n =
          Node.restore ~id:0 ~peers ~send:(fun ~dst:_ _ -> ())
            { Node.s_token = true; s_parent = None; s_parent_stamp = 0;
              s_accounted_parent = None; s_accounted_epoch = 0; s_last_reported = None;
              s_cached = Mode_set.empty; s_children = [ (1, Mode.R, 1) ]; s_queue = [];
              s_frozen = Mode_set.empty; s_sent_freeze = []; s_tenure = 1; s_hint = (1, 0);
              s_last_granter = None; s_next_seq = 0; s_clock = 0;
              s_epoch_counter = 1 }
        in
        Node.handle_msg n ~src:2
          (Msg.Request
             { Msg.requester = 2; seq = 0; mode = Mode.W; upgrade = false; timestamp = 1;
               priority = 0; hops = 1; hint_stamp = 1; hint_owner = 0;
               path = [ 2 ] });
        let weaker = Msg.Release { new_owned = Some Mode.IR; epoch = 1 }
        and stronger = Msg.Release { new_owned = Some Mode.R; epoch = 1 } in
        fun () ->
          Node.handle_msg n ~src:1 weaker;
          Node.handle_msg n ~src:1 stronger))

let bench_naimi_roundtrip =
  Test.make ~name:"naimi request round trip"
    (Staged.stage
       (let counter = ref 0 in
        fun () ->
          incr counter;
          let engine = Dcs_sim.Engine.create () in
          let rng = Dcs_sim.Rng.create ~seed:(Int64.of_int !counter) in
          let net =
            Dcs_runtime.Net.create ~engine ~latency:(Dcs_sim.Dist.Constant 1.0) ~rng ()
          in
          let cluster = Dcs_runtime.Naimi_cluster.create ~net ~nodes:8 ~locks:1 () in
          for node = 1 to 7 do
            Dcs_runtime.Naimi_cluster.request cluster ~node ~lock:0 ~on_acquired:(fun () ->
                Dcs_runtime.Naimi_cluster.release cluster ~node ~lock:0)
          done;
          ignore (Dcs_sim.Engine.run engine)))

(* {1 Wire path}

   The allocation claims the transport relies on, measured: with a
   reused writer, encoding allocates nothing; decode allocates only the
   decoded message. The request
   and token shapes bracket the format: token is the fattest message
   (embedded queue), request is the common case. *)

let sample_request : Dcs_hlock.Msg.request =
  {
    requester = 3;
    seq = 12345;
    mode = Dcs_modes.Mode.W;
    upgrade = false;
    timestamp = 987654;
    priority = 2;
    hops = 3;
    hint_stamp = 5; hint_owner = 2;
    path = [ 3; 5; 7 ];
  }

let request_env =
  { Dcs_wire.Codec.src = 3; lock = 1; payload = Dcs_wire.Codec.Hlock (Request sample_request) }

let token_env =
  {
    Dcs_wire.Codec.src = 0;
    lock = 1;
    payload =
      Dcs_wire.Codec.Hlock
        (Token
           {
             serving = sample_request;
             sender_owned = Some Dcs_modes.Mode.R;
             sender_epoch = 7;
             queue = [ sample_request; { sample_request with seq = 12346; requester = 5 } ];
             frozen = Dcs_modes.Mode_set.of_list [ Dcs_modes.Mode.R; Dcs_modes.Mode.W ];
           });
  }

let bench_wire_encode name env =
  let w = Dcs_wire.Buf.writer ~capacity:256 () in
  Test.make ~name
    (Staged.stage (fun () ->
         Dcs_wire.Buf.reset w;
         Dcs_wire.Codec.write_envelope w env))

let bench_wire_encode_request = bench_wire_encode "wire encode request (reused writer)" request_env
let bench_wire_encode_token = bench_wire_encode "wire encode token (reused writer)" token_env

let bench_wire_decode =
  let data = Bytes.of_string (Dcs_wire.Codec.encode token_env) in
  let len = Bytes.length data in
  Test.make ~name:"wire decode token (materialized)"
    (Staged.stage (fun () -> ignore (Dcs_wire.Codec.decode_sub data ~off:0 ~len)))

(* The batched transport's inner loop without the sockets: frame 16
   envelopes back-to-back into one reused buffer, as the runner's writer
   does, then walk the batch decoding each frame in place with
   [decode_sub], as [Runner.reader_loop] does. *)
let bench_wire_framed_batch =
  let w = Dcs_wire.Buf.writer ~capacity:4096 () in
  Test.make ~name:"wire framed batch x16 decode"
    (Staged.stage (fun () ->
         let open Dcs_wire in
         Buf.reset w;
         for _ = 1 to 8 do
           Codec.append_frame w request_env;
           Codec.append_frame w token_env
         done;
         let data = Buf.unsafe_bytes w in
         let total = Buf.length w in
         let off = ref 0 in
         while !off < total do
           let len = Codec.frame_length data ~off:!off in
           ignore (Codec.decode_sub data ~off:(!off + Codec.frame_header) ~len);
           off := !off + Codec.frame_header + len
         done))

(* The migration handoff's wire cost: one Handoff frame carrying a real
   two-burst bucket store (full per-node protocol state), through the
   same encoder/decoder the live migration path uses. This is the byte
   price of moving a bucket. *)
let handoff_env =
  let cfg = Dcs_shard.Router.default_config in
  let cell = Dcs_shard.Cell.create ~latency:cfg.Dcs_shard.Router.latency
      ~nodes:cfg.Dcs_shard.Router.nodes () in
  let tbl = Hashtbl.create 4 in
  let burst b = Dcs_shard.Router.run_burst cfg cell tbl { Dcs_shard.Traffic.set = 0; burst = b } in
  let g0, _, m0 = burst 0 in
  let g1, _, m1 = burst 1 in
  {
    Dcs_wire.Codec.src = 0;
    lock = 0;
    payload =
      Dcs_wire.Codec.Shard
        (Dcs_wire.Shard_msg.Handoff
           {
             bucket = 0;
             version = 1;
             entries =
               [
                 {
                   Dcs_wire.Shard_msg.set = 0;
                   bursts = 2;
                   grants = g0 + g1;
                   msgs = m0 + m1;
                   state = Dcs_shard.Cell.export_lock cell ~lock:0;
                 };
               ];
             parked = [ (0, 2) ];
           });
  }

let bench_handoff_encode = bench_wire_encode "shard handoff encode (reused writer)" handoff_env

let bench_handoff_decode =
  let data = Bytes.of_string (Dcs_wire.Codec.encode handoff_env) in
  let len = Bytes.length data in
  Test.make ~name:"shard handoff decode (materialized)"
    (Staged.stage (fun () -> ignore (Dcs_wire.Codec.decode_sub data ~off:0 ~len)))

(* The transport's metrics hooks, as the runner's hot paths pay them:
   handles resolved once at create time, then per-event atomic counter
   increments, a gauge store, and one log-scaled histogram observation.
   The minor-words column is the claim: the per-event path allocates
   nothing (find-or-create runs only at registration). *)
let bench_metrics_hook =
  let m = Dcs_obs.Metrics.create () in
  let c = Dcs_obs.Metrics.counter m "bench.frames" in
  let g = Dcs_obs.Metrics.gauge m "bench.depth" in
  let h = Dcs_obs.Metrics.histogram m "bench.latency" in
  Test.make ~name:"metrics hook incr+set+observe"
    (Staged.stage (fun () ->
         Dcs_obs.Metrics.incr c;
         Dcs_obs.Metrics.add c 17;
         Dcs_obs.Metrics.set g 42.0;
         Dcs_obs.Metrics.observe h 3.5))

(* 100 messages through the reliable-delivery shim over a clean 1 ms
   link: the per-message cost of the seq/ack/dedup machinery alone. *)
let bench_reliable_shim =
  Test.make ~name:"reliable shim 100 msgs"
    (Staged.stage (fun () ->
         let engine = Dcs_sim.Engine.create () in
         let below ~src:_ ~dst:_ ~cls:_ ~describe:_ k =
           Dcs_sim.Engine.schedule engine ~after:1.0 k
         in
         let shim = Dcs_fault.Reliable.create ~engine ~below () in
         for _ = 1 to 100 do
           Dcs_fault.Reliable.send shim ~src:0 ~dst:1 ~cls:Dcs_proto.Msg_class.Request
             ~describe:(fun () -> "bench") (fun () -> ())
         done;
         ignore (Dcs_sim.Engine.run engine)))

let all =
  [
    bench_decision_1a;
    bench_decision_1b;
    bench_decision_2a;
    bench_decision_2b;
    bench_mode_set;
    bench_engine;
    bench_engine_steady 16;
    bench_engine_steady 64;
    bench_engine_steady 256;
    bench_engine_steady 1024;
    bench_trace;
    bench_hlock_roundtrip;
    bench_freeze_walk 8;
    bench_freeze_walk 128;
    bench_naimi_roundtrip;
    bench_wire_encode_request;
    bench_wire_encode_token;
    bench_wire_decode;
    bench_wire_framed_batch;
    bench_handoff_encode;
    bench_handoff_decode;
    bench_metrics_hook;
    bench_reliable_shim;
  ]

type result = { name : string; ns : float; minor_words : float }

(* Run the whole suite; [quota] is the per-test measurement budget in
   seconds. Returns per-run time and minor-heap allocation (words; the
   zero-allocation wire-path claims are checked against the latter),
   sorted by name. *)
let run ?(quota = 0.25) () =
  let tests = Test.make_grouped ~name:"dcs" all in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~kde:(Some 10) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock; minor_allocated ] tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let estimate results name =
    match Hashtbl.find_opt results name with
    | Some result -> (
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Some est
        | _ -> None)
    | None -> None
  in
  let times = Analyze.all ols Instance.monotonic_clock raw in
  let allocs = Analyze.all ols Instance.minor_allocated raw in
  let out = ref [] in
  Hashtbl.iter
    (fun name _ ->
      match (estimate times name, estimate allocs name) with
      | Some ns, Some minor_words -> out := { name; ns; minor_words } :: !out
      | Some ns, None -> out := { name; ns; minor_words = 0.0 } :: !out
      | None, _ -> ())
    times;
  List.sort (fun a b -> String.compare a.name b.name) !out

(* {1 Aggregate throughput}

   End-to-end requests per second of wall-clock time on an [nodes]-node
   simulated cluster (constant 1 ms links): every non-token node runs
   [rounds] closed-loop request→hold→release cycles on a shared lock, so
   the figure folds in the protocol engines, the simulated network and the
   event loop — the implementation's capacity to push lock traffic, not the
   simulated latency. Every fourth node writes, so the load mixes
   cache-friendly reads with conflicting writes that keep revocation
   traffic flowing. A client holds each grant for 0.25–0.75 ms (seeded),
   releases from a timer and re-requests through [Engine.schedule], never
   from inside its grant callback — the [hotlock-64] shape, so every
   request yields to the event loop and competes with the other clients
   instead of re-acquiring its cached grant on the spot.

   Alongside req/s the row reports messages per request (from the
   network's exact counters) and wall-clock µs per message: if per-message
   cost is flat in [nodes], any drop in req/s is explained by
   messages/request alone. *)
type throughput_row = { req_per_s : float; msgs_per_req : float; us_per_msg : float }

let throughput ~nodes ~rounds () =
  let engine = Dcs_sim.Engine.create () in
  let rng = Dcs_sim.Rng.create ~seed:42L in
  let net = Dcs_runtime.Net.create ~engine ~latency:(Dcs_sim.Dist.Constant 1.0) ~rng () in
  let cluster = Dcs_runtime.Hlock_cluster.create ~net ~nodes ~locks:1 () in
  let completed = ref 0 in
  let master = Dcs_sim.Rng.create ~seed:7L in
  for node = 1 to nodes - 1 do
    let hold = Dcs_sim.Rng.split master in
    let mode = if node mod 4 = 0 then Dcs_modes.Mode.W else Dcs_modes.Mode.R in
    let remaining = ref rounds in
    let rec go () =
      let seq = ref (-1) in
      seq :=
        Dcs_runtime.Hlock_cluster.request cluster ~node ~lock:0 ~mode ~on_granted:(fun () ->
            Dcs_sim.Engine.schedule engine ~after:(Dcs_sim.Rng.uniform hold ~lo:0.25 ~hi:0.75)
              (fun () ->
                incr completed;
                Dcs_runtime.Hlock_cluster.release cluster ~node ~lock:0 ~seq:!seq;
                decr remaining;
                if !remaining > 0 then Dcs_sim.Engine.schedule engine ~after:0.0 go))
    in
    Dcs_sim.Engine.schedule engine ~after:0.0 go
  done;
  let t0 = Unix.gettimeofday () in
  ignore (Dcs_sim.Engine.run engine);
  let dt = Unix.gettimeofday () -. t0 in
  let requests = !completed in
  assert (requests = (nodes - 1) * rounds);
  let msgs = Dcs_proto.Counters.total (Dcs_runtime.Net.counters net) in
  {
    req_per_s = float_of_int requests /. dt;
    msgs_per_req = float_of_int msgs /. float_of_int requests;
    us_per_msg = dt *. 1e6 /. float_of_int msgs;
  }

(* Aggregate requests per second of the sharded lock-namespace service:
   the full round loop (traffic plan, bucket routing, pooled-cell bursts,
   namespace digest) at a given shard count, fanned over [shards] worker
   domains. Requests = grants — Router.run raises if any burst loses one.
   On a single-core host the shard counts measure the sharding machinery's
   overhead rather than parallel speedup; the determinism tests pin the
   digests equal across shard counts, so the same figures on a multi-core
   host are directly comparable. *)
let shard_throughput ~shards ~rounds () =
  (* The workload is fixed (default buckets/lock sets/burst mix); only
     the shard count varies, so the rows are directly comparable. *)
  let cfg = { Dcs_shard.Router.default_config with Dcs_shard.Router.shards; rounds } in
  let t0 = Unix.gettimeofday () in
  let r = Dcs_shard.Router.run ~jobs:shards cfg in
  let dt = Unix.gettimeofday () -. t0 in
  float_of_int r.Dcs_shard.Router.grants /. dt

(* The capstone soak: a 64-node-per-set population over a 1M-lock-set
   namespace, Zipf-skewed traffic, millions of requests, run at each
   shard count with one worker domain per shard. Returns per-shard-count
   rows: (shards, grants, wall seconds, req/s, digest, per-shard burst
   counts). The digest must be identical across rows — the determinism
   tests pin that, and the soak re-checks it — so the rows differ only
   in how the same work was spread. *)
type soak_row = {
  soak_shards : int;
  soak_grants : int;
  soak_wall_s : float;
  soak_req_per_s : float;
  soak_digest : int64;
  soak_balance : int list;  (* bursts per shard *)
}

let soak ?(shard_counts = [ 1; 2; 4 ]) ?(lock_sets = 1_000_000) ?(nodes = 64) ?(rounds = 250)
    ?(jobs_per_round = 1250) ?(ops_per_burst = 8) ?(skew = 0.9) () =
  let cfg =
    {
      Dcs_shard.Router.default_config with
      Dcs_shard.Router.lock_sets;
      nodes;
      rounds;
      jobs_per_round;
      ops_per_burst;
      skew;
      buckets = 64;
    }
  in
  List.map
    (fun shards ->
      let cfg = { cfg with Dcs_shard.Router.shards } in
      let t0 = Unix.gettimeofday () in
      let r = Dcs_shard.Router.run ~jobs:shards cfg in
      let wall = Unix.gettimeofday () -. t0 in
      {
        soak_shards = shards;
        soak_grants = r.Dcs_shard.Router.grants;
        soak_wall_s = wall;
        soak_req_per_s = float_of_int r.Dcs_shard.Router.grants /. wall;
        soak_digest = r.Dcs_shard.Router.digest;
        soak_balance =
          List.map
            (fun (s : Dcs_shard.Router.shard_stat) -> s.Dcs_shard.Router.bursts)
            r.Dcs_shard.Router.shard_stats;
      })
    shard_counts
