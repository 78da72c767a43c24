module Histogram = Dcs_stats.Histogram

type counter = { c_name : string; c : int Atomic.t }

(* A mutable float record field is an unboxed float slot: stores are
   single word writes, so concurrent [set]s can interleave but never
   tear. Good enough for a telemetry gauge. *)
type gauge = { g_name : string; mutable g : float }

type histogram = { h_name : string; h_lock : Mutex.t; h : Histogram.t }

type t = {
  lock : Mutex.t;
  mutable counters : counter list; (* registration order, newest first *)
  mutable gauges : gauge list;
  mutable histograms : histogram list;
}

let create () = { lock = Mutex.create (); counters = []; gauges = []; histograms = [] }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let counter t name =
  with_lock t (fun () ->
      match List.find_opt (fun c -> c.c_name = name) t.counters with
      | Some c -> c
      | None ->
          let c = { c_name = name; c = Atomic.make 0 } in
          t.counters <- c :: t.counters;
          c)

let gauge t name =
  with_lock t (fun () ->
      match List.find_opt (fun g -> g.g_name = name) t.gauges with
      | Some g -> g
      | None ->
          let g = { g_name = name; g = 0.0 } in
          t.gauges <- g :: t.gauges;
          g)

let histogram ?(base = 1.25) ?(min_value = 0.01) t name =
  with_lock t (fun () ->
      match List.find_opt (fun h -> h.h_name = name) t.histograms with
      | Some h -> h
      | None ->
          let h =
            { h_name = name; h_lock = Mutex.create (); h = Histogram.create ~base ~min_value () }
          in
          t.histograms <- h :: t.histograms;
          h)

let incr c = ignore (Atomic.fetch_and_add c.c 1)
let add c n = ignore (Atomic.fetch_and_add c.c n)
let value c = Atomic.get c.c
let counter_name c = c.c_name

let set g v = g.g <- v
let gauge_value g = g.g

let observe h v =
  Mutex.lock h.h_lock;
  Histogram.add h.h v;
  Mutex.unlock h.h_lock

let quantile h q =
  Mutex.lock h.h_lock;
  let v = Histogram.quantile h.h q in
  Mutex.unlock h.h_lock;
  v

(* {1 Shard labels}

   A sharded service runs one registry per shard process; labelling the
   instrument name lets merged telemetry keep the per-shard series apart
   while staying ordinary (name, kind, value) rows for every existing
   consumer. *)

let labelled name ~shard =
  if shard < 0 then invalid_arg "Metrics.labelled: negative shard id";
  Printf.sprintf "%s{shard=%d}" name shard

let shard_label name =
  match String.index_opt name '{' with
  | None -> None
  | Some i ->
      let len = String.length name in
      let tag = "{shard=" in
      let tlen = String.length tag in
      if len > i + tlen && String.sub name i tlen = tag && name.[len - 1] = '}' then
        match int_of_string_opt (String.sub name (i + tlen) (len - i - tlen - 1)) with
        | Some shard when shard >= 0 -> Some (String.sub name 0 i, shard)
        | _ -> None
      else None

let snapshot t =
  let rows =
    with_lock t (fun () ->
        List.map (fun c -> (c.c_name, `Counter, float_of_int (Atomic.get c.c))) t.counters
        @ List.map (fun g -> (g.g_name, `Gauge, g.g)) t.gauges
        @ List.concat_map
            (fun h ->
              Mutex.lock h.h_lock;
              let count = float_of_int (Histogram.count h.h) in
              let p50 = Histogram.quantile h.h 0.5 in
              let p95 = Histogram.quantile h.h 0.95 in
              let p99 = Histogram.quantile h.h 0.99 in
              Mutex.unlock h.h_lock;
              [
                (h.h_name ^ ".count", `Counter, count);
                (h.h_name ^ ".p50", `Gauge, p50);
                (h.h_name ^ ".p95", `Gauge, p95);
                (h.h_name ^ ".p99", `Gauge, p99);
              ])
            t.histograms)
  in
  List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) rows
