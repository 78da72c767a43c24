open Dcs_proto

let classes = List.length Msg_class.all

type t = {
  oc : out_channel;
  clock : Clock.t;
  mu : Mutex.t;
  counts : int array;
  bytes : int array;
  mutable closed : bool;
}

let create ~path ?clock ~meta () =
  let clock = match clock with Some c -> c | None -> Clock.wall () in
  let oc = open_out path in
  let t =
    {
      oc;
      clock;
      mu = Mutex.create ();
      counts = Array.make classes 0;
      bytes = Array.make classes 0;
      closed = false;
    }
  in
  Jsonl.output_meta oc meta;
  flush oc;
  t

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) @@ fun () -> if not t.closed then f ()

let event t ~lock ~node scope kind =
  locked t @@ fun () ->
  Jsonl.output_event t.oc { Event.time = t.clock (); lock; node; scope; kind };
  flush t.oc

let message t ~cls ~bytes =
  (* Accumulated only; written as msgs lines by [write_msgs] (at stop).
     The per-message hot path touches two array cells under the mutex —
     no I/O, no allocation. *)
  locked t @@ fun () ->
  let i = Msg_class.index cls in
  t.counts.(i) <- t.counts.(i) + 1;
  t.bytes.(i) <- t.bytes.(i) + bytes

let snapshot t metrics =
  let rows = Metrics.snapshot metrics in
  locked t @@ fun () ->
  let time = t.clock () in
  List.iter (fun (name, mkind, value) -> Jsonl.output_metric t.oc ~time ~name ~mkind ~value) rows;
  flush t.oc

let write_msgs t =
  locked t @@ fun () ->
  let pick arr = List.map (fun c -> (c, arr.(Msg_class.index c))) Msg_class.all in
  Jsonl.output_msgs t.oc ~counts:(pick t.counts) ~bytes:(pick t.bytes);
  flush t.oc

let write_counters t cs =
  locked t @@ fun () ->
  Jsonl.output_counters t.oc cs;
  flush t.oc

let close t =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) @@ fun () ->
  if not t.closed then (
    t.closed <- true;
    close_out_noerr t.oc)
