open Dcs_modes
open Dcs_proto
module Histogram = Dcs_stats.Histogram
module Summary = Dcs_stats.Summary

type mode_stat = {
  mode : Mode.t;
  count : int;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

let classes = List.length Msg_class.all
let modes = List.length Mode.all

type t = {
  keep_events : bool;
  mutable events : Event.t list; (* newest first *)
  mutable event_count : int;
  mutable requested : int;
  metrics : Metrics.t;
  grants : Metrics.grants;
  (* open spans: (lock, requester, seq) -> request time *)
  spans : (int * int * int, float) Hashtbl.t;
  (* acquisition latency per mode *)
  lat_hist : Histogram.t array; (* indexed by Mode.index *)
  lat_sum : Summary.t array;
  (* per-class message accounting *)
  counts : int array;
  bytes : int array;
  mutable samples : (float * string * float) list; (* newest first *)
}

let create ?(events = true) () =
  let metrics = Metrics.create () in
  {
    keep_events = events;
    events = [];
    event_count = 0;
    requested = 0;
    metrics;
    grants = Metrics.grants metrics;
    spans = Hashtbl.create 64;
    lat_hist = Array.init modes (fun _ -> Histogram.create ~base:1.25 ~min_value:0.01 ());
    lat_sum = Array.init modes (fun _ -> Summary.create ());
    counts = Array.make classes 0;
    bytes = Array.make classes 0;
    samples = [];
  }

let close_span t ~time ~lock ~requester ~seq mode =
  let key = (lock, requester, seq) in
  match Hashtbl.find_opt t.spans key with
  | None -> ()
  | Some started ->
      Hashtbl.remove t.spans key;
      let elapsed = time -. started in
      let i = Mode.index mode in
      Histogram.add t.lat_hist.(i) elapsed;
      Summary.add t.lat_sum.(i) elapsed

let record t ~time ~lock ~node scope kind =
  t.event_count <- t.event_count + 1;
  if t.keep_events then t.events <- { Event.time; lock; node; scope; kind } :: t.events;
  Metrics.count_grant t.grants kind;
  match (scope, kind) with
  | Event.Span { requester; seq }, Event.Requested _ ->
      t.requested <- t.requested + 1;
      Hashtbl.replace t.spans (lock, requester, seq) time
  | Span { requester; seq }, (Granted_local { mode; _ } | Granted_token { mode; _ }) ->
      close_span t ~time ~lock ~requester ~seq mode
  | Span { requester; seq }, Upgraded -> close_span t ~time ~lock ~requester ~seq Mode.W
  | _ -> ()

let message t ~cls ~bytes =
  let i = Msg_class.index cls in
  t.counts.(i) <- t.counts.(i) + 1;
  t.bytes.(i) <- t.bytes.(i) + bytes

let gauge t ~time ~name ~value =
  if t.keep_events then t.samples <- (time, name, value) :: t.samples

let events t = List.rev t.events

let event_count t = t.event_count

let requested t = t.requested

let completed t = Metrics.grants_total t.grants

let open_spans t = Hashtbl.length t.spans

let metrics t = t.metrics

let msg_counts t = List.map (fun c -> (c, t.counts.(Msg_class.index c))) Msg_class.all

let msg_bytes t = List.map (fun c -> (c, t.bytes.(Msg_class.index c))) Msg_class.all

let mode_stats t =
  List.filter_map
    (fun mode ->
      let i = Mode.index mode in
      let n = Summary.count t.lat_sum.(i) in
      if n = 0 then None
      else
        let h = t.lat_hist.(i) in
        Some
          {
            mode;
            count = n;
            mean_ms = Summary.mean t.lat_sum.(i);
            p50_ms = Histogram.quantile h 0.5;
            p95_ms = Histogram.quantile h 0.95;
            p99_ms = Histogram.quantile h 0.99;
          })
    Mode.all

let gauge_samples t = List.rev t.samples
