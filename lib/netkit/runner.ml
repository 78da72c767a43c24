module Node = Dcs_hlock.Node
module Codec = Dcs_wire.Codec
module Buf = Dcs_wire.Buf
module Metrics = Dcs_obs.Metrics
module Recorder = Dcs_obs.Recorder

let src_log = Logs.Src.create "dcs.netkit" ~doc:"TCP cluster runner"

module Log = (val Logs.src_log src_log : Logs.LOG)

type outbound = {
  mutable queue : Codec.envelope Queue.t;  (* unencoded; the writer thread encodes *)
  mutable alive : bool;
  cond : Condition.t;
}

type t = {
  config : Cluster_config.t;
  self : int;
  (* Striped engine locks: one mutex per lock object, so independent lock
     engines dispatch concurrently instead of serializing on one global
     mutex. *)
  stripes : Mutex.t array;
  mutable nodes : Node.t array;  (* one engine per lock *)
  counters : Dcs_proto.Counters.t;
  counters_lock : Mutex.t;
  outbounds : (int, outbound) Hashtbl.t;  (* peer id -> writer state *)
  outbound_lock : Mutex.t;
  (* This node's telemetry: engine and transport events, per-class frame
     accounting and the metrics registry, stamped with [clock]. *)
  recorder : Recorder.t;
  clock : Dcs_obs.Clock.t;
  (* Live transport metrics ({!Dcs_obs.Metrics}) in the recorder's
     registry: the handles are looked up once here so hot-path updates
     are a single atomic op. *)
  m_frames_sent : Metrics.counter;
  m_bytes_sent : Metrics.counter;
  m_batches : Metrics.counter;
  m_partial_requeues : Metrics.counter;
  m_connects : Metrics.counter;
  m_reconnects : Metrics.counter;
  m_connect_retries : Metrics.counter;
  m_dropped : Metrics.counter;
  m_decode_errors : Metrics.counter;
  m_frames_received : Metrics.counter;
  m_bytes_received : Metrics.counter;
  m_backoff : Metrics.gauge;
  m_queue_depth : Metrics.gauge;
  mutable listener : Unix.file_descr option;
  mutable running : bool;
}

let id t = t.self

let counters t = t.counters

let metrics t = Recorder.metrics t.recorder

let queued_frames t =
  Mutex.lock t.outbound_lock;
  let n = Hashtbl.fold (fun _ out acc -> acc + Queue.length out.queue) t.outbounds 0 in
  Mutex.unlock t.outbound_lock;
  n

(* The span id a wire message belongs to, if it carries one. Release and
   Freeze messages are span-less bookkeeping. *)
let span_of_msg (msg : Dcs_hlock.Msg.t) =
  match msg with
  | Request r -> Some (r.requester, r.seq)
  | Grant { req; _ } -> Some (req.requester, req.seq)
  | Token { serving; _ } -> Some (serving.requester, serving.seq)
  | Release _ | Freeze _ -> None

(* A transport event on a span-carrying frame: the causal edges
   [dcs-trace analyze] aligns clocks with. *)
let record_wire t ~lock msg kind =
  match span_of_msg msg with
  | Some (requester, seq) ->
      Recorder.record t.recorder ~time:(t.clock ()) ~lock ~node:t.self
        (Dcs_obs.Event.Span { requester; seq }) kind
  | None -> ()

(* Accounting for one frame that fully reached the kernel: per-class
   count/bytes, plus a Sent span event. *)
let record_written t ~dst (env : Codec.envelope) ~payload_bytes =
  match env.Codec.payload with
  | Codec.Hlock msg ->
      let cls = Dcs_hlock.Msg.class_of msg in
      Recorder.message t.recorder ~cls ~bytes:payload_bytes;
      record_wire t ~lock:env.Codec.lock msg (Dcs_obs.Event.Sent { cls; dst })
  | Codec.Naimi _ | Codec.Shard _ -> ()

(* {1 Outbound connections: one writer thread per peer}

   Frames queue as unencoded envelopes; the writer thread drains the
   whole queue under one lock acquisition, encodes everything into one
   reusable flat buffer ([Codec.append_frame], frames back to back) and
   flushes the batch with a single write. On a write failure every frame
   the kernel did not fully accept is requeued in order and the
   connection is re-established with capped exponential backoff — frames
   are only ever dropped at shutdown, and then the exact count is
   logged, or when one exceeds [Codec.max_frame]. *)

let max_batch_bytes = 256 * 1024

(* Write [len] bytes, reporting partial progress on failure so the
   caller knows which whole frames the kernel accepted. *)
let write_all fd buf len =
  let off = ref 0 in
  try
    while !off < len do
      let k = Unix.write fd buf !off (len - !off) in
      off := !off + k
    done;
    Ok ()
  with e -> Error (!off, e)

let writer_loop t peer_id out =
  let peer = Cluster_config.peer t.config peer_id in
  let wbuf = Buf.writer ~capacity:8192 () in
  let drained = Queue.create () in  (* drained from out.queue, not yet on the wire *)
  let connected_before = ref false in
  let connect () =
    (* Retry while the runner lives: outbound frames wait in the queue
       instead of being dropped. *)
    let rec go delay attempts =
      if not (out.alive && t.running) then None
      else
        match
          let addr = Unix.ADDR_INET (Unix.inet_addr_of_string peer.host, peer.port) in
          let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          (try
             Unix.setsockopt sock Unix.TCP_NODELAY true;
             Unix.connect sock addr;
             sock
           with e ->
             (try Unix.close sock with _ -> ());
             raise e)
        with
        | sock ->
            Metrics.incr t.m_connects;
            if !connected_before then Metrics.incr t.m_reconnects;
            connected_before := true;
            Metrics.set t.m_backoff 0.0;
            Some sock
        | exception _ ->
            Metrics.incr t.m_connect_retries;
            Metrics.set t.m_backoff (delay *. 1000.0);
            if attempts > 0 && attempts mod 50 = 0 then
              Log.warn (fun m ->
                  m "writer to %d: still unreachable after %d attempts" peer_id attempts);
            Thread.delay delay;
            go (Float.min 1.0 (delay *. 1.5)) (attempts + 1)
    in
    go 0.05 0
  in
  (* Put [envs] (oldest first) back ahead of everything still pending. *)
  let requeue envs =
    let q = Queue.create () in
    List.iter (fun e -> Queue.push e q) envs;
    Queue.transfer drained q;
    Queue.transfer q drained
  in
  let rec session () =
    match connect () with
    | None ->
        Mutex.lock t.outbound_lock;
        let dropped = Queue.length drained + Queue.length out.queue in
        Mutex.unlock t.outbound_lock;
        if dropped > 0 then begin
          Metrics.add t.m_dropped dropped;
          Log.err (fun m -> m "writer to %d: shut down with %d frame(s) unsent" peer_id dropped)
        end
    | Some fd -> pump fd
  and pump fd =
    if Queue.is_empty drained then begin
      Mutex.lock t.outbound_lock;
      while Queue.is_empty out.queue && out.alive do
        Condition.wait out.cond t.outbound_lock
      done;
      (* Batch drain: the whole outbound queue, one lock acquisition. *)
      Queue.transfer out.queue drained;
      Mutex.unlock t.outbound_lock
    end;
    if not out.alive then begin
      (try Unix.close fd with _ -> ());
      session ()  (* resolves to the shutdown branch; logs any drops *)
    end
    else begin
      Buf.reset wbuf;
      let batch = ref [] in  (* (envelope, end offset in wbuf), newest first *)
      while (not (Queue.is_empty drained)) && Buf.length wbuf < max_batch_bytes do
        let env = Queue.pop drained in
        match Codec.append_frame wbuf env with
        | () -> batch := (env, Buf.length wbuf) :: !batch
        | exception Invalid_argument reason ->
            (* The peer would reject it: drop it here, where it is counted. *)
            Metrics.incr t.m_dropped;
            Log.err (fun m -> m "writer to %d: frame dropped: %s" peer_id reason)
      done;
      (* Account frames the kernel fully accepted (all of them on Ok; the
         prefix up to [written] on a partial write). Per-frame payload size
         falls out of consecutive end offsets minus the frame header. *)
      let account written frames =
        Metrics.incr t.m_batches;
        let sent, bytes =
          List.fold_left
            (fun (n, start) ((env : Codec.envelope), fin) ->
              if fin <= written then begin
                record_written t ~dst:peer_id env ~payload_bytes:(fin - start - Codec.frame_header);
                (n + 1, fin)
              end
              else (n, start))
            (0, 0) frames
        in
        Metrics.add t.m_frames_sent sent;
        Metrics.add t.m_bytes_sent bytes
      in
      match write_all fd (Buf.unsafe_bytes wbuf) (Buf.length wbuf) with
      | Ok () ->
          account (Buf.length wbuf) (List.rev !batch);
          pump fd
      | Error (written, e) ->
          account written (List.rev !batch);
          Metrics.incr t.m_partial_requeues;
          let unsent = List.rev (List.filter (fun (_, fin) -> fin > written) !batch) in
          requeue (List.map fst unsent);
          Log.err (fun m ->
              m "writer to %d: write failed after %d bytes (%s); requeued %d frame(s), reconnecting"
                peer_id written (Printexc.to_string e) (List.length unsent));
          (try Unix.close fd with _ -> ());
          session ()
    end
  in
  session ()

let outbound_for t peer_id =
  Mutex.lock t.outbound_lock;
  let out =
    match Hashtbl.find_opt t.outbounds peer_id with
    | Some out when out.alive -> out
    | _ ->
        let out = { queue = Queue.create (); alive = true; cond = Condition.create () } in
        Hashtbl.replace t.outbounds peer_id out;
        ignore (Thread.create (fun () -> writer_loop t peer_id out) ());
        out
  in
  Mutex.unlock t.outbound_lock;
  out

let send_env t ~dst env =
  if dst = t.self then Log.err (fun m -> m "dropping self-addressed frame")
  else begin
    let out = outbound_for t dst in
    Mutex.lock t.outbound_lock;
    Queue.push env out.queue;
    Condition.signal out.cond;
    Mutex.unlock t.outbound_lock
  end

(* {1 Node construction} *)

let create ?telemetry ~config ~self () =
  let n = Cluster_config.size config in
  if self < 0 || self >= n then invalid_arg "Runner.create: self out of range";
  let locks = config.Cluster_config.locks in
  let recorder =
    match telemetry with Some r -> r | None -> Recorder.create ()
  in
  let metrics = Recorder.metrics recorder in
  let c name = Metrics.counter metrics name and g name = Metrics.gauge metrics name in
  let t =
    {
      config;
      self;
      stripes = Array.init locks (fun _ -> Mutex.create ());
      nodes = [||];
      counters = Dcs_proto.Counters.create ();
      counters_lock = Mutex.create ();
      outbounds = Hashtbl.create 8;
      outbound_lock = Mutex.create ();
      recorder;
      clock = Dcs_obs.Clock.wall ();
      m_frames_sent = c "net.frames_sent";
      m_bytes_sent = c "net.bytes_sent";
      m_batches = c "net.batches";
      m_partial_requeues = c "net.partial_requeues";
      m_connects = c "net.connects";
      m_reconnects = c "net.reconnects";
      m_connect_retries = c "net.connect_retries";
      m_dropped = c "net.dropped_frames";
      m_decode_errors = c "net.decode_errors";
      m_frames_received = c "net.frames_received";
      m_bytes_received = c "net.bytes_received";
      m_backoff = g "net.backoff_ms";
      m_queue_depth = g "net.outbound_queue_depth";
      listener = None;
      running = false;
    }
  in
  let nodes =
    Array.init locks (fun lock ->
        let send ~dst msg =
          (* Counters are shared across stripes; guard the increment. *)
          Mutex.lock t.counters_lock;
          Dcs_proto.Counters.incr t.counters (Dcs_hlock.Msg.class_of msg);
          Mutex.unlock t.counters_lock;
          send_env t ~dst { Codec.src = self; lock; payload = Codec.Hlock msg }
        in
        let obs scope kind = Recorder.record t.recorder ~time:(t.clock ()) ~lock ~node:self scope kind in
        Node.create ~obs ~id:self ~peers:n ~is_token:(self = 0)
          ~parent:(if self = 0 then None else Some 0)
          ~send ())
  in
  t.nodes <- nodes;
  t

(* Every entry into a lock's engine — a delivery, a client call, a kick —
   runs [f] on it under the lock's stripe mutex. *)
let on_stripe t lock f = Mutex.protect t.stripes.(lock) (fun () -> f t.nodes.(lock))

(* {1 Inbound} *)

let dispatch t (env : Codec.envelope) =
  match env.Codec.payload with
  | Codec.Hlock msg ->
      let lock = env.Codec.lock in
      if lock < 0 || lock >= Array.length t.nodes then
        Log.err (fun m -> m "message for unknown lock %d" lock)
      else begin
        try on_stripe t lock (fun node -> Node.handle_msg node ~src:env.Codec.src msg)
        with e -> Log.err (fun m -> m "handler raised: %s" (Printexc.to_string e))
      end
  | Codec.Naimi _ -> Log.err (fun m -> m "unexpected Naimi payload")
  | Codec.Shard _ -> Log.err (fun m -> m "unexpected Shard payload")

(* Raw-socket framing (no buffered channels): read exactly [n] bytes. *)
let really_read fd buf n =
  let rec go off =
    if off < n then begin
      let k = Unix.read fd buf off (n - off) in
      if k = 0 then raise End_of_file;
      go (off + k)
    end
  in
  go 0

(* Serve one inbound connection until it ends — end of stream, a read
   error or a malformed frame (an oversized header among them) — then
   close its socket. *)
let reader_loop t fd =
  let header = Bytes.create Codec.frame_header in
  (* One reusable inbound buffer per connection, grown to the largest
     frame seen; frames decode in place, no per-frame [Bytes.to_string]. *)
  let body = ref (Bytes.create 4096) in
  let rec go () =
    match really_read fd header Codec.frame_header with
    | exception _ -> ()
    | () -> (
        let len = ref 0 in
        match
          len := Codec.frame_length header ~off:0;
          if Bytes.length !body < !len then begin
            let cap = ref (2 * Bytes.length !body) in
            while !cap < !len do
              cap := 2 * !cap
            done;
            body := Bytes.create !cap
          end;
          really_read fd !body !len;
          Codec.decode_sub !body ~off:0 ~len:!len
        with
        | env when env.Codec.src < 0 || env.Codec.src >= Cluster_config.size t.config ->
            (* Engines index per-peer state by sender id: a frame from
               outside the cluster is dropped, and the connection keeps
               serving. *)
            Metrics.incr t.m_decode_errors;
            Log.err (fun m -> m "frame from unknown node %d" env.Codec.src);
            go ()
        | env ->
            Metrics.incr t.m_frames_received;
            Metrics.add t.m_bytes_received !len;
            (* The Received event must precede the events dispatch
               produces, so the span's merged timeline orders the arrival
               before its consequences. *)
            (match env.Codec.payload with
            | Codec.Hlock msg ->
                record_wire t ~lock:env.Codec.lock msg
                  (Dcs_obs.Event.Received { cls = Dcs_hlock.Msg.class_of msg; src = env.Codec.src })
            | Codec.Naimi _ | Codec.Shard _ -> ());
            dispatch t env;
            go ()
        (* An oversized header lands here too, before any body is read. *)
        | exception Dcs_wire.Buf.Malformed reason ->
            Metrics.incr t.m_decode_errors;
            Log.err (fun m -> m "malformed frame: %s" reason)
        | exception _ -> ()  (* the stream ended or failed mid-frame *))
  in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) go

let accept_loop t sock =
  while t.running do
    match Unix.accept sock with
    | conn, _ -> ignore (Thread.create (fun () -> reader_loop t conn) ())
    | exception _ -> ()
  done

(* The custody watchdog's period, in seconds: a few round trips on any
   network this runs over, and quiet enough for an idle cluster. *)
let kick_interval = 1.0

(* How long [request_sync] and [upgrade_sync] wait for their grant, in
   seconds: far beyond the queueing a working cluster causes, so expiry
   means a protocol or transport fault, which must fail the caller
   instead of hanging it. *)
let sync_deadline = 5.0

let kick_loop t =
  while t.running do
    Thread.delay kick_interval;
    Array.iteri (fun lock _ -> on_stripe t lock Node.kick) t.nodes;
    Metrics.set t.m_queue_depth (float_of_int (queued_frames t));
    Recorder.snapshot t.recorder ~time:(t.clock ())
  done

let start t =
  if t.running then ()
  else begin
    t.running <- true;
    (* A peer that dies between our connect and our write would otherwise
       kill the whole process with SIGPIPE; the writer loop turns the
       resulting EPIPE into a requeue-and-reconnect. *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    let me = Cluster_config.peer t.config t.self in
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string me.Cluster_config.host, me.Cluster_config.port));
    Unix.listen sock 64;
    t.listener <- Some sock;
    ignore (Thread.create (fun () -> accept_loop t sock) ());
    ignore (Thread.create (fun () -> kick_loop t) ())
  end

(* Startup barrier: probe every peer's listen port until it accepts. A
   successful connect is closed straight away — the peer's reader thread
   just sees EOF — so this only proves the socket is bound, which is all
   the first request storm needs (writer threads retry the real
   connections themselves). *)
let await_peers ?(timeout = 10.0) t =
  let deadline = Unix.gettimeofday () +. timeout in
  let probe peer =
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close sock with _ -> ())
      (fun () ->
        match
          Unix.connect sock
            (Unix.ADDR_INET
               (Unix.inet_addr_of_string peer.Cluster_config.host, peer.Cluster_config.port))
        with
        | () -> true
        | exception _ -> false)
  in
  let rec wait_for pending =
    let pending = List.filter (fun p -> not (probe p)) pending in
    match pending with
    | [] -> Ok ()
    | _ when Unix.gettimeofday () >= deadline ->
        Error
          (Printf.sprintf "await_peers: %s unreachable after %.1fs"
             (String.concat ", "
                (List.map (fun p -> Printf.sprintf "node %d" p.Cluster_config.id) pending))
             timeout)
    | _ ->
        Thread.delay 0.05;
        wait_for pending
  in
  wait_for (List.filter (fun p -> p.Cluster_config.id <> t.self) t.config.Cluster_config.peers)

let stop t =
  if t.running then begin
    t.running <- false;
    (match t.listener with
    | Some sock -> ( try Unix.close sock with _ -> ())
    | None -> ());
    t.listener <- None;
    Mutex.lock t.outbound_lock;
    Hashtbl.iter
      (fun _ out ->
        out.alive <- false;
        Condition.broadcast out.cond)
      t.outbounds;
    Mutex.unlock t.outbound_lock;
    (* Closing telemetry lines: a final metrics snapshot, the per-class
       frame accounting, and the authoritative queued-message counters
       the analyzer cross-checks against. *)
    Metrics.set t.m_queue_depth (float_of_int (queued_frames t));
    Recorder.close t.recorder ~time:(t.clock ())
      ~counters:(Dcs_proto.Counters.to_list t.counters)
  end

let lock_state t ~lock =
  Mutex.protect t.stripes.(lock) (fun () -> Format.asprintf "%a" Node.pp_state t.nodes.(lock))

(* {1 Client API} *)

let request ?priority t ~lock ~mode ~on_granted =
  on_stripe t lock (fun node -> Node.request ?priority node ~mode ~on_granted:(fun _ -> on_granted ()))

let release t ~lock ~seq = on_stripe t lock (fun node -> Node.release node ~seq)

let upgrade t ~lock ~seq ~on_upgraded =
  on_stripe t lock (fun node -> Node.upgrade node ~seq ~on_upgraded:(fun _ -> on_upgraded ()))

(* Blocking wrappers: a one-shot latch. The grant callback may run on a
   reader thread (under the lock's stripe mutex) or synchronously in
   [request]; it only sets the flag. The caller polls it, backing off to
   a millisecond, until [sync_deadline]. *)
let await_latch latch ~what ~self ~lock ~seq =
  let deadline = Unix.gettimeofday () +. sync_deadline in
  let rec wait pause =
    if not (Atomic.get latch) then begin
      if Unix.gettimeofday () >= deadline then
        failwith
          (Printf.sprintf "Runner.%s: node %d lock %d seq %d not granted within %.0f s" what self
             lock seq sync_deadline);
      Thread.delay pause;
      wait (Float.min 0.001 (2.0 *. pause))
    end
  in
  wait 0.00005

let request_sync ?priority t ~lock ~mode =
  let latch = Atomic.make false in
  let seq = request ?priority t ~lock ~mode ~on_granted:(fun () -> Atomic.set latch true) in
  await_latch latch ~what:"request_sync" ~self:t.self ~lock ~seq;
  seq

let upgrade_sync t ~lock ~seq =
  let latch = Atomic.make false in
  upgrade t ~lock ~seq ~on_upgraded:(fun () -> Atomic.set latch true);
  await_latch latch ~what:"upgrade_sync" ~self:t.self ~lock ~seq
