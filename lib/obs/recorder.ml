open Dcs_modes
open Dcs_proto

let classes = List.length Msg_class.all

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

let record t ~time ~lock ~node scope kind =
  locked t @@ fun () ->
  t.event_count <- t.event_count + 1;
  if t.keep_events || Option.is_some t.out then begin
    let e = { Event.time; lock; node; scope; kind } in
    if t.keep_events then t.events <- e :: t.events;
    emit t (fun oc -> Jsonl.output_event oc e)
  end;
  match (scope, kind) with
  | Event.Span _, Event.Requested _ -> t.requested <- t.requested + 1
  | Span _, (Granted_local { mode; _ } | Granted_token { mode; _ }) ->
      Metrics.incr (grants t).by_mode.(Mode.index mode)
  | Span _, Upgraded -> Metrics.incr (grants t).upgrades
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

let metrics t = t.metrics

let msg_counts t = locked t @@ fun () -> by_class t.counts

let msg_bytes t = locked t @@ fun () -> by_class t.bytes

let gauge_samples t = locked t @@ fun () -> List.rev t.samples
