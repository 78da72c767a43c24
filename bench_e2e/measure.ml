(* Measurement plumbing shared by the workloads: one repetition's result
   record, process probes (wall clock, CPU, GC, peak RSS), percentiles,
   and a self-time profiler for spans the benchmark opens around its own
   calls into the system's layers. *)

(* Seconds on the monotonic clock. *)
external now : unit -> (float[@unboxed]) = "bench_e2e_monotonic" "bench_e2e_monotonic_unboxed"
[@@noalloc]

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* VmHWM: the process's peak resident set, in MB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb -> kb /. 1024.0)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Nearest-rank percentile of an ascending array; 0 when empty. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* {1 One repetition} *)

type rep = {
  mutable metrics : (string * float) list;  (* newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  mutable fingerprint : string;
      (* deterministic outcome (message counters, engine events) that
         every repetition of one seed must reproduce *)
  mutable basis : float;  (* the quantity tracing inflates: traced/untraced - 1 *)
}

let rep () = { metrics = []; attempted = 0; failed = 0; problems = []; fingerprint = ""; basis = 0.0 }
let metric r name v = r.metrics <- (name, v) :: r.metrics
let problem r fmt = Printf.ksprintf (fun s -> r.problems <- s :: r.problems) fmt

let record_latencies r latencies_ms =
  let sorted = sorted_of_list latencies_ms in
  metric r "latency_p50_ms" (percentile sorted 50.0);
  metric r "latency_p90_ms" (percentile sorted 90.0);
  metric r "latency_p99_ms" (percentile sorted 99.0);
  metric r "latency_samples" (float_of_int (Array.length sorted))

(* Protocol messages per request, in total and by class; [mix] is a
   per-class count as {!Dcs_proto.Counters.to_list} gives it. *)
let record_msgs r mix ~requests =
  let per cls = ratio (float_of_int (try List.assoc cls mix with Not_found -> 0)) requests in
  metric r "msgs_per_req" (ratio (float_of_int (List.fold_left (fun a (_, n) -> a + n) 0 mix)) requests);
  List.iter
    (fun (name, cls) -> metric r ("net.msgs_per_req." ^ name) (per cls))
    Dcs_proto.Msg_class.
      [
        ("request", Request);
        ("copy_grant", Copy_grant);
        ("token_transfer", Token_transfer);
        ("release", Release);
        ("freeze", Freeze);
      ]

(* {1 The timed phase}

   Wall clock, process CPU (every thread and domain) and GC counters
   between [start] and [finish]; [finish] records the throughput, CPU
   and GC metrics for [requests] completed requests and returns the
   phase's wall time. *)

type phase = { w0 : float; c0 : float; g0 : Gc.stat }

let start () =
  let g0 = Gc.quick_stat () in
  { g0; c0 = cpu_s (); w0 = now () }

let finish r ph ~requests =
  let wall = now () -. ph.w0 and cpu = cpu_s () -. ph.c0 in
  let g = Gc.quick_stat () in
  metric r "req_per_s" (ratio requests wall);
  metric r "cpu_us_per_req" (ratio (cpu *. 1e6) requests);
  metric r "gc.minor_words_per_req" (ratio (g.Gc.minor_words -. ph.g0.Gc.minor_words) requests);
  metric r "gc.minor_collections" (float_of_int (g.Gc.minor_collections - ph.g0.Gc.minor_collections));
  metric r "gc.major_collections" (float_of_int (g.Gc.major_collections - ph.g0.Gc.major_collections));
  wall

(* {1 Span profiler}

   Self time per layer: a span's duration minus the part of it that
   nested spans cover. Spans are opened only from the benchmark's side —
   around a call into the system, or around a continuation the system
   calls back — so the profiler sees layer boundaries, never the
   system's internals. [enter] and [leave] bracket a span without
   allocating, counting clock ticks that are converted to seconds
   against the monotonic clock when read; a span left open by an
   exception only matters to a run that has already failed. *)

module Prof = struct
  external ticks : unit -> (int[@untagged]) = "bench_e2e_ticks" "bench_e2e_ticks_unboxed" [@@noalloc]

  type layer = Handler | Send | Client

  let index = function Handler -> 0 | Send -> 1 | Client -> 2
  let depth_max = 256

  type t = {
    self : int array;  (* ticks, per layer *)
    count : int array;  (* spans closed, per layer *)
    st_layer : int array;
    st_start : int array;
    st_child : int array;
    mutable depth : int;
    t0 : float;  (* the monotonic clock and the ticks at creation *)
    k0 : int;
  }

  let create () =
    {
      self = Array.make 3 0;
      count = Array.make 3 0;
      st_layer = Array.make depth_max 0;
      st_start = Array.make depth_max 0;
      st_child = Array.make depth_max 0;
      depth = 0;
      t0 = now ();
      k0 = ticks ();
    }

  let enter t layer =
    let d = t.depth in
    if d >= depth_max then failwith "Prof.enter: spans nested too deep";
    t.st_layer.(d) <- index layer;
    t.st_child.(d) <- 0;
    t.depth <- d + 1;
    t.st_start.(d) <- ticks ()

  let leave t =
    let d = t.depth - 1 in
    let dur = ticks () - t.st_start.(d) in
    t.depth <- d;
    let l = t.st_layer.(d) in
    t.self.(l) <- t.self.(l) + dur - t.st_child.(d);
    t.count.(l) <- t.count.(l) + 1;
    if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur

  let seconds_per_tick t = ratio (now () -. t.t0) (float_of_int (ticks () - t.k0))
  let self t layer = float_of_int t.self.(index layer) *. seconds_per_tick t
  let count t layer = t.count.(index layer)
  let total_self t = float_of_int (Array.fold_left ( + ) 0 t.self) *. seconds_per_tick t

  (* Mean self time per span of [layer], in microseconds. *)
  let us_per_span t layer = ratio (self t layer *. 1e6) (float_of_int (count t layer))
end
