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

(* The [grants.<mode>] and [grants.upgrades] counters. *)
type grants = { by_mode : Metrics.counter array; (* per Mode.index *) upgrades : Metrics.counter }

type t = {
  mu : Mutex.t;
  keep_events : bool;
  mutable out : out_channel option; (* None without a file and after [close] *)
  mutable events : Event.t list; (* newest first *)
  mutable event_count : int;
  mutable requested : int;
  metrics : Metrics.t;
  (* Registered on the first grant, so a registry that never sees one (a
     shard worker's) carries no grants.* rows. *)
  mutable grants : grants option;
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

let create ?(events = false) ?path ?(meta = []) () =
  let out =
    Option.map
      (fun path ->
        let oc = open_out path in
        Jsonl.output_meta oc meta;
        flush oc;
        oc)
      path
  in
  {
    mu = Mutex.create ();
    keep_events = events;
    out;
    events = [];
    event_count = 0;
    requested = 0;
    metrics = Metrics.create ();
    grants = None;
    spans = Hashtbl.create 64;
    lat_hist = Array.init modes (fun _ -> Histogram.create ~base:1.25 ~min_value:0.01 ());
    lat_sum = Array.init modes (fun _ -> Summary.create ());
    counts = Array.make classes 0;
    bytes = Array.make classes 0;
    samples = [];
  }

let locked t f = Mutex.protect t.mu f

(* Write one group of lines and flush, so a crashed process leaves a
   readable prefix and [dcs-trace top] sees each line as it lands. *)
let emit t write =
  match t.out with
  | None -> ()
  | Some oc ->
      write oc;
      flush oc

let grants t =
  match t.grants with
  | Some g -> g
  | None ->
      let c name = Metrics.counter t.metrics ("grants." ^ name) in
      let g =
        { by_mode = Array.of_list (List.map (fun m -> c (Mode.to_string m)) Mode.all);
          upgrades = c "upgrades" }
      in
      t.grants <- Some g;
      g

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
  locked t @@ fun () ->
  t.event_count <- t.event_count + 1;
  if t.keep_events || Option.is_some t.out then begin
    let e = { Event.time; lock; node; scope; kind } in
    if t.keep_events then t.events <- e :: t.events;
    emit t (fun oc -> Jsonl.output_event oc e)
  end;
  match (scope, kind) with
  | Event.Span { requester; seq }, Event.Requested _ ->
      t.requested <- t.requested + 1;
      Hashtbl.replace t.spans (lock, requester, seq) time
  | Span { requester; seq }, (Granted_local { mode; _ } | Granted_token { mode; _ }) ->
      Metrics.incr (grants t).by_mode.(Mode.index mode);
      close_span t ~time ~lock ~requester ~seq mode
  | Span { requester; seq }, Upgraded ->
      Metrics.incr (grants t).upgrades;
      close_span t ~time ~lock ~requester ~seq Mode.W
  | _ -> ()

let message t ~cls ~bytes =
  locked t @@ fun () ->
  let i = Msg_class.index cls in
  t.counts.(i) <- t.counts.(i) + 1;
  t.bytes.(i) <- t.bytes.(i) + bytes

let gauge t ~time ~name ~value =
  locked t @@ fun () ->
  if t.keep_events then t.samples <- (time, name, value) :: t.samples;
  emit t (fun oc -> Jsonl.output_gauge oc ~time ~name ~value)

let write_metrics t ~time oc =
  List.iter
    (fun (name, mkind, value) -> Jsonl.output_metric oc ~time ~name ~mkind ~value)
    (Metrics.snapshot t.metrics)

let snapshot t ~time = locked t @@ fun () -> emit t (write_metrics t ~time)

let by_class arr = List.map (fun c -> (c, arr.(Msg_class.index c))) Msg_class.all

let close ?counters t ~time =
  locked t @@ fun () ->
  emit t (fun oc ->
      write_metrics t ~time oc;
      Jsonl.output_msgs oc ~counts:(by_class t.counts) ~bytes:(by_class t.bytes);
      Option.iter (Jsonl.output_counters oc) counters);
  Option.iter close_out_noerr t.out;
  t.out <- None

let events t = locked t @@ fun () -> List.rev t.events

let event_count t = locked t @@ fun () -> t.event_count

let requested t = locked t @@ fun () -> t.requested

let completed t =
  locked t @@ fun () ->
  match t.grants with
  | None -> 0
  | Some g -> Array.fold_left (fun n c -> n + Metrics.value c) (Metrics.value g.upgrades) g.by_mode

let open_spans t = locked t @@ fun () -> Hashtbl.length t.spans

let metrics t = t.metrics

let msg_counts t = locked t @@ fun () -> by_class t.counts

let msg_bytes t = locked t @@ fun () -> by_class t.bytes

let mode_stats t =
  locked t @@ fun () ->
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

let gauge_samples t = locked t @@ fun () -> List.rev t.samples
