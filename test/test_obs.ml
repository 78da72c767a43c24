(* Telemetry tests: Counters.diff / pp ordering, the Recorder's span and
   metric accounting and its streaming file under concurrent writers,
   JSONL round-tripping and hostile input, the Metrics registry and the
   wall clock, multi-shard merge with causal clock alignment, the analyzer's grant-path and freeze-episode folds and
   critical-path classification, and an end-to-end crosscheck of recorder
   message counts against the transport's Counters. *)

open Dcs_modes
module Msg_class = Dcs_proto.Msg_class
module Counters = Dcs_proto.Counters
module Event = Dcs_obs.Event
module Recorder = Dcs_obs.Recorder
module Jsonl = Dcs_obs.Jsonl
module Metrics = Dcs_obs.Metrics
module Clock = Dcs_obs.Clock
module Merge = Dcs_obs.Merge
module Q = QCheck2

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-6)

(* {1 Counters satellite} *)

let test_counters_diff () =
  let before = Counters.create () and now = Counters.create () in
  Counters.incr before Msg_class.Request;
  List.iter
    (fun c -> Counters.incr now c)
    [ Msg_class.Request; Request; Request; Copy_grant; Ack ];
  let d = Counters.diff now before in
  Alcotest.check
    Alcotest.(list int)
    "per-class delta in Msg_class.all order"
    [ 2; 1; 0; 0; 0; 1; 0 ]
    (List.map snd d);
  Alcotest.check Alcotest.bool "classes in canonical order" true
    (List.map fst d = Msg_class.all)

let test_counters_pp_ordering () =
  let c = Counters.create () in
  (* Fill in reverse canonical order: pp must still render in
     Msg_class.all order, not insertion order. *)
  List.iter (Counters.incr c) (List.rev Msg_class.all);
  let rendered = Format.asprintf "%a" Counters.pp c in
  let positions =
    List.map
      (fun cls ->
        let name = Msg_class.to_string cls ^ "=" in
        let nh = String.length rendered and nn = String.length name in
        let rec go i =
          if i + nn > nh then Alcotest.failf "%s missing from %S" name rendered
          else if String.sub rendered i nn = name then i
          else go (i + 1)
        in
        go 0)
      Msg_class.all
  in
  checkb "pp renders classes in Msg_class.all order" true
    (List.sort compare positions = positions)

(* {1 Recorder} *)

let ev r ~time ~node ~requester ~seq kind =
  Recorder.record r ~time ~lock:0 ~node (Event.Span { requester; seq }) kind

let node_ev r ~time ~node kind = Recorder.record r ~time ~lock:0 ~node Event.Node kind

(* One local grant (1 hop), one token grant (0 hops, then upgraded), and
   a freeze episode — exercises every accounting path. *)
let populate r =
  ev r ~time:0.0 ~node:1 ~requester:1 ~seq:0 (Event.Requested { mode = Mode.R; priority = 0 });
  ev r ~time:1.0 ~node:1 ~requester:1 ~seq:0 (Event.Forwarded { dst = 0 });
  ev r ~time:2.0 ~node:0 ~requester:1 ~seq:0 Event.Queued;
  ev r ~time:5.0 ~node:1 ~requester:1 ~seq:0 (Event.Granted_local { mode = Mode.R; hops = 1 });
  ev r ~time:6.0 ~node:2 ~requester:2 ~seq:0 (Event.Requested { mode = Mode.IW; priority = 1 });
  ev r ~time:9.0 ~node:2 ~requester:2 ~seq:0 (Event.Granted_token { mode = Mode.IW; hops = 0 });
  ev r ~time:10.0 ~node:2 ~requester:2 ~seq:0 (Event.Requested { mode = Mode.W; priority = 0 });
  ev r ~time:14.0 ~node:2 ~requester:2 ~seq:0 Event.Upgraded;
  ev r ~time:15.0 ~node:1 ~requester:1 ~seq:0 (Event.Released { mode = Mode.R });
  node_ev r ~time:3.0 ~node:0 (Event.Frozen (Mode_set.of_list [ Mode.IR; Mode.R ]));
  node_ev r ~time:8.0 ~node:0 (Event.Unfrozen (Mode_set.of_list [ Mode.IR; Mode.R ]));
  Recorder.message r ~cls:Msg_class.Request ~bytes:40;
  Recorder.message r ~cls:Msg_class.Request ~bytes:2;
  Recorder.message r ~cls:Msg_class.Token_transfer ~bytes:25;
  Recorder.gauge r ~time:1.0 ~name:"queue_depth" ~value:3.0;
  Recorder.gauge r ~time:2.0 ~name:"queue_depth" ~value:5.0

let metric_value r name =
  match List.find_opt (fun (n, _, _) -> n = name) (Metrics.snapshot (Recorder.metrics r)) with
  | Some (_, `Counter, v) -> int_of_float v
  | _ -> Alcotest.failf "no counter %s" name

let test_recorder_accounting () =
  let r = Recorder.create ~events:true () in
  populate r;
  checki "events retained" 11 (Recorder.event_count r);
  checki "spans requested" 3 (Recorder.requested r);
  checki "spans completed" 3 (Recorder.completed r);
  checki "every span closed" (Recorder.requested r) (Recorder.completed r);
  checki "grants.R" 1 (metric_value r "grants.R");
  checki "grants.IW" 1 (metric_value r "grants.IW");
  checki "grants.W" 0 (metric_value r "grants.W");
  checki "grants.upgrades" 1 (metric_value r "grants.upgrades");
  checki "request msgs" 2
    (List.assoc Msg_class.Request (Recorder.msg_counts r));
  checki "request bytes" 42
    (List.assoc Msg_class.Request (Recorder.msg_bytes r));
  checki "no grant msgs" 0
    (List.assoc Msg_class.Copy_grant (Recorder.msg_counts r));
  checki "gauge samples" 2 (List.length (Recorder.gauge_samples r));
  (* Acquisition latency is the analyzer's: one breakdown per span
     segment, from the same events in time order. *)
  let events =
    List.stable_sort (fun (a : Event.t) (b : Event.t) -> compare a.time b.time) (Recorder.events r)
  in
  let breakdowns, _ = Merge.critical_paths events in
  let of_mode m = List.filter (fun (b : Merge.breakdown) -> Mode.equal b.Merge.b_mode m) breakdowns in
  checki "R count" 1 (List.length (of_mode Mode.R));
  Alcotest.check
    Alcotest.(list bool)
    "W count (upgrade closes as W)" [ true ]
    (List.map (fun (b : Merge.breakdown) -> b.Merge.b_kind = `Upgrade) (of_mode Mode.W));
  let r_span = List.hd (of_mode Mode.R) in
  checkf "R waits 5ms" 5.0 (r_span.Merge.b_finish -. r_span.Merge.b_start);
  checkf "R buckets sum to its wait" 5.0 (Merge.total_wait r_span)

(* The figures the Recorder used to fold online, now derived from
   [populate]'s events by the analyzer's folds. *)
let test_merge_grant_paths_and_freezes () =
  let r = Recorder.create ~events:true () in
  populate r;
  let events =
    List.stable_sort (fun (a : Event.t) (b : Event.t) -> compare a.time b.time) (Recorder.events r)
  in
  let breakdowns, incomplete = Merge.critical_paths events in
  checki "no incomplete spans" 0 incomplete;
  let of_kind k = List.filter (fun (b : Merge.breakdown) -> b.Merge.b_kind = k) breakdowns in
  checki "local grants" 1 (List.length (of_kind `Local));
  checki "token grants" 1 (List.length (of_kind `Token));
  checki "upgrades" 1 (List.length (of_kind `Upgrade));
  let hops k =
    let hs = List.map (fun (b : Merge.breakdown) -> b.Merge.b_hops) (of_kind k) in
    List.map (fun h -> (h, List.length (List.filter (( = ) h) hs))) (List.sort_uniq compare hs)
  in
  Alcotest.check Alcotest.(list (pair int int)) "local hop distribution" [ (1, 1) ] (hops `Local);
  Alcotest.check Alcotest.(list (pair int int)) "token hop distribution" [ (0, 1) ] (hops `Token);
  let episodes = Hashtbl.fold (fun _ ivs acc -> ivs @ acc) (Merge.freeze_episodes events) [] in
  Alcotest.check
    Alcotest.(list (pair (float 1e-9) (float 1e-9)))
    "one closed 5 ms freeze episode, none open" [ (3.0, 8.0) ] episodes

let test_recorder_metrics_only () =
  let r = Recorder.create () in
  populate r;
  checki "event log off" 0 (List.length (Recorder.events r));
  checki "metrics still counted" 3 (Recorder.completed r);
  checki "messages still counted" 2
    (List.assoc Msg_class.Request (Recorder.msg_counts r))

(* Four threads record into one streaming recorder at once, interleaving
   events, messages and metric snapshots, as the TCP runner's stripe,
   reader and writer threads do. Every line must parse, every recorded
   event must be in the file, and the msgs lines must count every
   message. *)
let test_recorder_threads_share_one_file () =
  let path = Filename.temp_file "dcs_obs_threads" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let r = Recorder.create ~path ~meta:[ ("node", "0") ] () in
  let threads = 4 and per_thread = 300 in
  let work i () =
    for k = 0 to per_thread - 1 do
      let seq = (i * per_thread) + k and time = float_of_int k in
      ev r ~time ~node:i ~requester:i ~seq (Event.Requested { mode = Mode.R; priority = 0 });
      Recorder.message r ~cls:Msg_class.Request ~bytes:(k mod 7);
      Thread.yield ();
      ev r ~time ~node:i ~requester:i ~seq (Event.Granted_local { mode = Mode.R; hops = 0 });
      if k mod 20 = 0 then Recorder.snapshot r ~time
    done
  in
  List.iter Thread.join (List.init threads (fun i -> Thread.create (work i) ()));
  Recorder.close r ~time:0.0;
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  let evs = ref 0 and msgs = ref 0 and bytes = ref 0 and metrics = ref 0 in
  List.iter
    (fun l ->
      match Jsonl.parse_line l with
      | Ok (Jsonl.Ev _) -> incr evs
      | Ok (Jsonl.Msgs { count; bytes = b; _ }) ->
          msgs := !msgs + count;
          bytes := !bytes + b
      | Ok (Jsonl.Metric _) -> incr metrics
      | Ok _ -> ()
      | Error e -> Alcotest.failf "unparsable line %S: %s" l e)
    lines;
  let sent_bytes = threads * List.fold_left ( + ) 0 (List.init per_thread (fun k -> k mod 7)) in
  checki "every event written" (2 * threads * per_thread) !evs;
  checki "events counted" (2 * threads * per_thread) (Recorder.event_count r);
  checki "msgs lines count every message" (threads * per_thread) !msgs;
  checki "msgs lines carry every byte" sent_bytes !bytes;
  checkb "snapshots written" true (!metrics > 0);
  checki "every grant counted" (threads * per_thread) (Recorder.completed r)

(* {1 JSONL round-trip} *)

let test_jsonl_roundtrip () =
  let path = Filename.temp_file "dcs_obs_test" ".jsonl" in
  let r = Recorder.create ~events:true ~path ~meta:[ ("nodes", "3"); ("driver", "test") ] () in
  populate r;
  let counters = [ (Msg_class.Request, 2); (Msg_class.Token_transfer, 1) ] in
  Recorder.close r ~time:15.0 ~counters;
  let shard =
    match Merge.load_shard path with
    | Ok s -> s
    | Error e -> Alcotest.failf "load_shard: %s" e
  in
  Sys.remove path;
  let m = shard.Merge.meta in
  Alcotest.check
    Alcotest.(option string)
    "schema first" (Some Jsonl.schema) (List.assoc_opt "schema" m);
  Alcotest.check Alcotest.(option string) "meta kept" (Some "3") (List.assoc_opt "nodes" m);
  let parsed = shard.Merge.events in
  let original = Recorder.events r in
  checki "event count survives" (List.length original) (List.length parsed);
  List.iter2
    (fun (a : Event.t) (b : Event.t) ->
      checkb "event round-trips" true
        (a.lock = b.lock && a.node = b.node && a.scope = b.scope
        && abs_float (a.time -. b.time) < 1e-6
        && a.kind = b.kind))
    original parsed;
  let span_set evs =
    List.sort_uniq compare
      (List.filter_map
         (fun (e : Event.t) ->
           match e.Event.scope with
           | Event.Node -> None
           | Event.Span { requester; seq } -> Some (e.lock, requester, seq))
         evs)
  in
  checkb "identical span set" true (span_set original = span_set parsed);
  (match shard.Merge.counters with
  | None -> Alcotest.fail "counters line missing"
  | Some cs ->
      checki "counters request" 2 (List.assoc Msg_class.Request cs);
      checki "counters token" 1 (List.assoc Msg_class.Token_transfer cs));
  checki "one msgs line per class" (List.length Msg_class.all) (List.length shard.Merge.msgs);
  checki "gauge samples survive" 2 (List.length shard.Merge.gauges);
  let totals = Merge.metric_totals [ shard ] in
  List.iter
    (fun (name, n) ->
      checkf ("metric " ^ name) n (Option.value ~default:nan (List.assoc_opt name totals)))
    [ ("grants.R", 1.0); ("grants.IW", 1.0); ("grants.W", 0.0); ("grants.upgrades", 1.0) ]

let test_jsonl_rejects_garbage () =
  checkb "bad json" true (Result.is_error (Jsonl.parse_line "{\"k\":"));
  checkb "unknown kind" true (Result.is_error (Jsonl.parse_line "{\"k\":\"nope\"}"));
  checkb "trailing junk" true (Result.is_error (Jsonl.parse_line "{\"k\":\"meta\"} extra"))

(* Robustness: every corrupt file shape must come back as [Error _] from
   [Merge.load_shard] — never an exception — with the offending line
   number. A bad final line is a truncated shard instead, so the broken
   records below are followed by a good one. *)
let with_file lines f =
  let path = Filename.temp_file "dcs_obs_robust" ".jsonl" in
  let oc = open_out path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let meta_line = Printf.sprintf "{\"k\":\"meta\",\"schema\":\"%s\",\"nodes\":\"2\"}" Jsonl.schema
let ev_line =
  "{\"k\":\"ev\",\"t\":1.5,\"lock\":0,\"node\":1,\"scope\":\"span\",\"req\":1,\"seq\":0,\
   \"ev\":\"queued\",\"mode\":\"\",\"arg\":0,\"set\":\"\"}"

let read_error lines =
  with_file lines (fun path ->
      match Merge.load_shard path with
      | Ok _ -> Alcotest.fail "expected Error"
      | Error msg -> msg
      | exception e -> Alcotest.failf "raised %s instead of Error" (Printexc.to_string e))

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_jsonl_robust_malformed_line () =
  let msg = read_error [ meta_line; ev_line; "{\"k\":\"ev\",\"t\":oops}"; ev_line ] in
  checkb "names line 3" true (contains msg "line 3")

let test_jsonl_robust_unknown_schema () =
  let msg = read_error [ "{\"k\":\"meta\",\"schema\":\"dcs-obs/99\"}"; ev_line ] in
  checkb "mentions schema" true (contains msg "schema mismatch");
  let msg = read_error [ "{\"k\":\"meta\",\"nodes\":\"2\"}" ] in
  checkb "missing schema rejected" true (contains msg "schema mismatch")

let test_jsonl_robust_partial_trailing () =
  (* A crash mid-write leaves a partial last record: dropped, the lines
     before it kept, and the shard flagged truncated. *)
  let partial = String.sub ev_line 0 (String.length ev_line / 2) in
  with_file [ meta_line; ev_line; partial ] (fun path ->
      match Merge.load_shard path with
      | Error e -> Alcotest.failf "partial trailing record must load: %s" e
      | Ok s ->
          checkb "flagged truncated" true s.Merge.truncated;
          checki "complete line kept" 1 (List.length s.Merge.events))

let test_jsonl_robust_field_errors () =
  (* Structurally valid JSON, semantically broken records. *)
  List.iter
    (fun broken ->
      let msg = read_error [ meta_line; broken; ev_line ] in
      checkb ("line 2 error for " ^ broken) true (contains msg "line 2"))
    [
      "{\"k\":\"ev\",\"t\":1.0}" (* missing fields *);
      "{\"k\":\"ev\",\"t\":1.0,\"lock\":0,\"node\":1,\"req\":1,\"seq\":0,\"ev\":\"warped\",\
       \"mode\":\"\",\"arg\":0,\"set\":\"\"}" (* unknown event kind *);
      "{\"k\":\"ev\",\"t\":1.0,\"lock\":0,\"node\":1,\"req\":1,\"seq\":0,\"ev\":\"released\",\
       \"mode\":\"Q\",\"arg\":0,\"set\":\"\"}" (* unknown mode *);
      "{\"k\":\"msgs\",\"cls\":\"carrier-pigeon\",\"count\":1,\"bytes\":2}" (* unknown class *);
      "{\"k\":\"gauge\",\"t\":1.0,\"name\":\"q\",\"value\":\"high\"}" (* wrong type *);
      "{\"k\":\"ev\",\"t\":1.0,\"lock\":1.5,\"node\":1,\"scope\":\"node\",\"ev\":\"frozen\",\
       \"mode\":\"\",\"arg\":0,\"set\":\"R\"}" (* non-integral integer field *);
      "{\"k\":\"ev\",\"t\":1.0,\"lock\":0,\"node\":1e300,\"scope\":\"node\",\"ev\":\"frozen\",\
       \"mode\":\"\",\"arg\":0,\"set\":\"R\"}" (* integer field out of range *);
      "{\"k\":\"ev\",\"t\":1.0,\"lock\":0,\"node\":1,\"req\":1,\"seq\":0,\"ev\":\"queued\",\
       \"mode\":\"\",\"arg\":0,\"set\":\"\"}" (* no scope field *);
    ]

let test_jsonl_robust_not_meta_first () =
  let msg = read_error [ ev_line ] in
  checkb "wants meta first" true (contains msg "meta");
  match Merge.load_shard "/nonexistent/dcs-obs-test.jsonl" with
  | Ok _ -> Alcotest.fail "expected Error for missing file"
  | Error _ -> ()
  | exception e -> Alcotest.failf "raised %s for missing file" (Printexc.to_string e)

(* {1 Node events} *)

let test_jsonl_v2_node_event () =
  (* v2 writes an explicit scope discriminator: node lines say so and
     carry no req/seq; span lines carry both. *)
  let path = Filename.temp_file "dcs_obs_v2" ".jsonl" in
  let r = Recorder.create ~path () in
  node_ev r ~time:1.0 ~node:3 (Event.Frozen (Mode_set.of_list [ Mode.R ]));
  ev r ~time:2.0 ~node:3 ~requester:1 ~seq:0 (Event.Requested { mode = Mode.R; priority = 0 });
  Recorder.close r ~time:2.0;
  let raw =
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic; Sys.remove path) @@ fun () ->
    let rec go acc = match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file -> List.rev acc
    in
    go []
  in
  let frozen_line = List.find (fun l -> contains l "frozen") raw in
  checkb "node line says scope:node" true (contains frozen_line "\"scope\":\"node\"");
  checkb "node line has no req field" false (contains frozen_line "\"req\":");
  let req_line = List.find (fun l -> contains l "requested") raw in
  checkb "span line says scope:span" true (contains req_line "\"scope\":\"span\"");
  checkb "span line keeps req" true (contains req_line "\"req\":1");
  (* And both round-trip through the parser. *)
  List.iter
    (fun l ->
      match Jsonl.parse_line l with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "v2 line rejected: %s (%s)" e l)
    raw

(* {1 Hostile bytes}

   The telemetry decode path must answer [Ok] or [Error] on any input,
   and the emitters and parser must agree on every event. *)

let gen_event =
  Q.Gen.(
    let* time = map (fun us -> float_of_int us /. 1000.0) (int_bound 1_000_000_000) in
    let* lock = int_range (-5) 100 in
    let* node = int_range (-5) 100 in
    let* requester = int_bound 100 in
    let* seq = int_bound 10_000 in
    let* n = int_bound 1000 in
    let* mode = Testkit.gen_mode in
    let* cls = oneofl Msg_class.all in
    let* set = map Mode_set.of_list (list_size (int_bound 5) Testkit.gen_mode) in
    let span = Event.Span { requester; seq } in
    let* scope, kind =
      oneofl
        [
          (span, Event.Requested { mode; priority = n });
          (span, Forwarded { dst = n });
          (span, Queued);
          (span, Granted_local { mode; hops = n });
          (span, Granted_token { mode; hops = n });
          (span, Upgraded);
          (span, Released { mode });
          (span, Sent { cls; dst = n });
          (span, Received { cls; src = n });
          (Event.Node, Frozen set);
          (Event.Node, Unfrozen set);
        ]
    in
    return { Event.time; lock; node; scope; kind })

(* Render through an emitter into a string (the emitters write to
   channels). *)
let emitted write =
  let path = Filename.temp_file "dcs_obs_emit" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  write oc;
  close_out oc;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  String.split_on_char '\n' s |> List.filter (( <> ) "")

let prop_event_roundtrip =
  Q.Test.make ~count:300 ~name:"event round-trip" gen_event (fun e ->
      match emitted (fun oc -> Jsonl.output_event oc e) with
      | [ line ] -> Jsonl.parse_line line = Ok (Jsonl.Ev e)
      | _ -> false)

let gen_emitted_line =
  Q.Gen.(
    let* e = gen_event in
    let* name = string_size ~gen:printable (int_bound 12) in
    let* value = float in
    let* n = int_bound 1_000_000 in
    let* k = int_bound 5 in
    let cs = List.map (fun c -> (c, n)) Msg_class.all in
    let* i = int_bound 1000 in
    let lines =
      emitted (fun oc ->
          match k with
          | 0 -> Jsonl.output_meta oc [ (name, name); ("node", string_of_int n) ]
          | 1 -> Jsonl.output_event oc e
          | 2 -> Jsonl.output_gauge oc ~time:e.time ~name ~value
          | 3 -> Jsonl.output_metric oc ~time:e.time ~name ~mkind:`Counter ~value
          | 4 -> Jsonl.output_msgs oc ~counts:cs ~bytes:cs
          | _ -> Jsonl.output_counters oc cs)
    in
    return (List.nth lines (i mod List.length lines)))

let never_raises s = match Jsonl.parse_line s with Ok _ | Error _ -> true | exception _ -> false

let prop_arbitrary_bytes =
  Q.Test.make ~count:1000 ~name:"arbitrary bytes never raise"
    Q.Gen.(string_size ~gen:char (int_bound 200))
    never_raises

let prop_prefixes_and_mutations =
  Q.Test.make ~count:300 ~name:"prefixes and byte mutations never raise"
    Q.Gen.(triple gen_emitted_line nat char)
    (fun (line, pos, c) ->
      let n = String.length line in
      let mutated = Bytes.of_string line in
      Bytes.set mutated (pos mod n) c;
      never_raises (Bytes.to_string mutated)
      && List.for_all (fun k -> never_raises (String.sub line 0 k)) (List.init n Fun.id))

(* {1 Metrics registry} *)

let test_metrics_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter m "net.frames" in
  checkb "find-or-create returns the same handle" true (c == Metrics.counter m "net.frames");
  Metrics.incr c;
  Metrics.add c 4;
  checki "counter accumulates" 5 (Metrics.value c);
  Alcotest.check Alcotest.string "counter name" "net.frames" (Metrics.counter_name c);
  let g = Metrics.gauge m "net.depth" in
  Metrics.set g 7.5;
  checkf "gauge holds last value" 7.5 (Metrics.gauge_value g);
  Metrics.set g 2.0;
  checkf "gauge overwrites" 2.0 (Metrics.gauge_value g);
  let h = Metrics.histogram m "lat" in
  List.iter (Metrics.observe h) [ 1.0; 1.0; 1.0; 100.0 ];
  checkb "histogram p50 near the bulk" true (Metrics.quantile h 0.5 < 10.0);
  checkb "histogram p99 near the tail" true (Metrics.quantile h 0.99 > 50.0);
  let snap = Metrics.snapshot m in
  let names = List.map (fun (n, _, _) -> n) snap in
  checkb "snapshot sorted by name" true (List.sort compare names = names);
  checkb "histogram expands to count row" true (List.mem "lat.count" names);
  let find name = List.find (fun (n, _, _) -> n = name) snap in
  (match find "net.frames" with
  | _, `Counter, v -> checkf "counter row" 5.0 v
  | _ -> Alcotest.fail "net.frames not a counter row");
  match find "lat.count" with
  | _, `Counter, v -> checkf "histogram count row" 4.0 v
  | _ -> Alcotest.fail "lat.count not a counter row"

let test_clock_sources () =
  let w = Clock.wall () in
  let a = w () in
  let b = w () in
  checkb "wall clock non-decreasing" true (b >= a);
  checkb "wall clock is epoch ms" true (a > 1.0e12)

(* {1 Multi-shard merge} *)

let in_temp_dir f =
  let dir = Filename.temp_file "dcs_obs_merge" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* Three shards, one process each, with clocks skewed +50 ms (node 1) and
   -50 ms (node 2) against node 0. Two spans cross shard boundaries on
   request/token edges with symmetric 2 ms true delays, so the causal
   aligner can recover the skews exactly. All times in true ms; each
   shard stamps [true + skew]. *)
let write_skewed_shards dir =
  let skews = [| 0.0; 50.0; -50.0 |] in
  let recorders =
    Array.init 3 (fun i ->
        Recorder.create
          ~path:(Filename.concat dir (Printf.sprintf "node-%d.jsonl" i))
          ~meta:[ ("node", string_of_int i); ("nodes", "3") ]
          ())
  in
  let evt i t ~lock scope kind =
    Recorder.record recorders.(i) ~time:(t +. skews.(i)) ~lock ~node:i scope kind
  in
  let span1 = Event.Span { requester = 1; seq = 0 } in
  let span2 = Event.Span { requester = 2; seq = 0 } in
  (* Span 1: node 1 requests lock 0, node 0 ships the token back.
     Span 2 overlaps it in true time: node 2 requests lock 1 via node 1.
     Each shard's events are recorded in its own local-time order. *)
  evt 1 1000.0 ~lock:0 span1 (Event.Requested { mode = Mode.R; priority = 0 });
  evt 1 1001.0 ~lock:0 span1 (Event.Sent { cls = Msg_class.Request; dst = 0 });
  evt 0 1003.0 ~lock:0 span1 (Event.Received { cls = Msg_class.Request; src = 1 });
  evt 0 1004.0 ~lock:0 span1 (Event.Sent { cls = Msg_class.Token_transfer; dst = 1 });
  evt 1 1005.0 ~lock:1 span2 (Event.Received { cls = Msg_class.Request; src = 2 });
  evt 1 1006.0 ~lock:1 span2 (Event.Sent { cls = Msg_class.Token_transfer; dst = 2 });
  evt 1 1006.0 ~lock:0 span1 (Event.Received { cls = Msg_class.Token_transfer; src = 0 });
  evt 1 1007.0 ~lock:0 span1 (Event.Granted_token { mode = Mode.R; hops = 1 });
  evt 2 1002.0 ~lock:1 span2 (Event.Requested { mode = Mode.W; priority = 0 });
  evt 2 1003.0 ~lock:1 span2 (Event.Sent { cls = Msg_class.Request; dst = 1 });
  evt 2 1008.0 ~lock:1 span2 (Event.Received { cls = Msg_class.Token_transfer; src = 1 });
  evt 2 1009.0 ~lock:1 span2 (Event.Granted_token { mode = Mode.W; hops = 1 });
  Array.iteri (fun i r -> Recorder.close r ~time:(1010.0 +. skews.(i))) recorders;
  Array.to_list (Array.init 3 (fun i -> Filename.concat dir (Printf.sprintf "node-%d.jsonl" i)))

let test_merge_aligns_skewed_clocks () =
  in_temp_dir @@ fun dir ->
  let paths = write_skewed_shards dir in
  let shards, warnings =
    match Merge.load paths with
    | Ok x -> x
    | Error e -> Alcotest.failf "load: %s" e
  in
  checki "no warnings" 0 (List.length warnings);
  let offsets = Merge.align shards in
  let off n = Option.value ~default:nan (List.assoc_opt n offsets) in
  checkf "node 0 pinned" 0.0 (off 0);
  checkf "node 1 skew recovered" 50.0 (off 1);
  checkf "node 2 skew recovered" (-50.0) (off 2);
  let events = Merge.merged_events ~offsets shards in
  let ts = List.map (fun (e : Event.t) -> e.time) events in
  checkb "corrected times are sorted" true (List.sort compare ts = ts);
  let breakdowns, incomplete = Merge.critical_paths events in
  checki "both spans complete" 2 (List.length breakdowns);
  checki "nothing open" 0 incomplete;
  List.iter
    (fun (b : Merge.breakdown) ->
      checkb "span kind is token" true (b.Merge.b_kind = `Token);
      checkf "corrected span latency is the true 7 ms" 7.0 (b.Merge.b_finish -. b.Merge.b_start);
      (* 2 ms request hop (net) + 2 ms token hop (token) + 3 ms of local
         processing gaps; the buckets must sum to the whole wait. *)
      checkf "net bucket" 2.0 b.Merge.b_net_ms;
      checkf "token bucket" 2.0 b.Merge.b_token_ms;
      checkf "local bucket" 3.0 b.Merge.b_local_ms;
      checkf "buckets sum to total" 7.0 (Merge.total_wait b))
    breakdowns

let test_merge_truncated_shard () =
  in_temp_dir @@ fun dir ->
  let paths = write_skewed_shards dir in
  (* Chop the last shard mid-line, as a killed process would. *)
  let victim = List.nth paths 2 in
  let ic = open_in victim in
  let n = in_channel_length ic in
  let data = really_input_string ic n in
  close_in ic;
  let oc = open_out victim in
  output_string oc (String.sub data 0 (n - 7));
  close_out oc;
  let shards, warnings =
    match Merge.load paths with
    | Ok x -> x
    | Error e -> Alcotest.failf "truncated shard must load: %s" e
  in
  checki "one warning" 1 (List.length warnings);
  checkb "warning names the file" true (contains (List.hd warnings) victim);
  checkb "victim flagged truncated" true
    (List.exists (fun (s : Merge.shard) -> s.Merge.path = victim && s.truncated) shards);
  (* The surviving prefix still merges and still yields span 1. *)
  let breakdowns, _ = Merge.critical_paths (Merge.merged_events shards) in
  checkb "intact span survives" true
    (List.exists (fun (b : Merge.breakdown) -> b.Merge.b_requester = 1) breakdowns)

let test_merge_rejects_non_integer_node () =
  List.iter
    (fun node ->
      let meta = Printf.sprintf "{\"k\":\"meta\",\"schema\":\"%s\",\"node\":%s}" Jsonl.schema node in
      let msg = read_error [ meta; ev_line ] in
      checkb ("names the node field for " ^ node) true (contains msg "\"node\""))
    [ "\"n1\""; "\"\""; "1.5" ]

let test_merge_classifies_queue_and_freeze () =
  (* Single node, no clock games: request queued at t=1, node frozen over
     [2,5], granted at t=8. The 7 ms out of Queued must split 3 ms freeze
     / 4 ms queue, with the 1 ms before Queued charged to local. *)
  let span = Event.Span { requester = 0; seq = 0 } in
  let e time scope kind = { Event.time; lock = 0; node = 0; scope; kind } in
  let events =
    [
      e 0.0 span (Event.Requested { mode = Mode.R; priority = 0 });
      e 1.0 span Event.Queued;
      e 2.0 Event.Node (Event.Frozen (Mode_set.of_list [ Mode.R ]));
      e 5.0 Event.Node (Event.Unfrozen (Mode_set.of_list [ Mode.R ]));
      e 8.0 span (Event.Granted_local { mode = Mode.R; hops = 0 });
    ]
  in
  let breakdowns, incomplete = Merge.critical_paths events in
  checki "one span" 1 (List.length breakdowns);
  checki "none open" 0 incomplete;
  let b = List.hd breakdowns in
  checkf "local" 1.0 b.Merge.b_local_ms;
  checkf "queue" 4.0 b.Merge.b_queue_ms;
  checkf "freeze" 3.0 b.Merge.b_freeze_ms;
  checkf "no net" 0.0 b.Merge.b_net_ms;
  checkf "total" 8.0 (Merge.total_wait b)

(* {1 End-to-end: recorder counts match the transport Counters} *)

let test_traced_run_crosschecks () =
  let module Experiment = Dcs_runtime.Experiment in
  let recorder = Recorder.create () in
  let workload =
    { Dcs_workload.Airline.default_config with Dcs_workload.Airline.ops_per_node = 8 }
  in
  let result =
    Dcs_runtime.Figures.traced_cell ~workload ~recorder
      ~driver:Experiment.Hierarchical ~nodes:8 ()
  in
  checkb "spans completed" true (Recorder.completed recorder > 0);
  checki "all spans closed" (Recorder.requested recorder) (Recorder.completed recorder);
  List.iter
    (fun (cls, n) ->
      checki
        (Printf.sprintf "class %s matches transport" (Msg_class.to_string cls))
        n
        (List.assoc cls (Recorder.msg_counts recorder)))
    result.Experiment.messages;
  (* Naimi spans close too (exclusive locks recorded as mode W). *)
  let nrec = Recorder.create () in
  let nres =
    Dcs_runtime.Figures.traced_cell ~workload ~recorder:nrec
      ~driver:Experiment.Naimi_pure ~nodes:8 ()
  in
  checkb "naimi spans completed" true (Recorder.completed nrec > 0);
  List.iter
    (fun (cls, n) ->
      checki
        (Printf.sprintf "naimi class %s matches" (Msg_class.to_string cls))
        n
        (List.assoc cls (Recorder.msg_counts nrec)))
    nres.Experiment.messages

let () =
  Alcotest.run "dcs_obs"
    [
      ( "counters",
        [
          Alcotest.test_case "diff" `Quick test_counters_diff;
          Alcotest.test_case "pp ordering" `Quick test_counters_pp_ordering;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "accounting" `Quick test_recorder_accounting;
          Alcotest.test_case "metrics-only" `Quick test_recorder_metrics_only;
          Alcotest.test_case "threads share one file" `Quick test_recorder_threads_share_one_file;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_jsonl_rejects_garbage;
          Alcotest.test_case "malformed line" `Quick test_jsonl_robust_malformed_line;
          Alcotest.test_case "unknown schema" `Quick test_jsonl_robust_unknown_schema;
          Alcotest.test_case "partial trailing record" `Quick test_jsonl_robust_partial_trailing;
          Alcotest.test_case "field errors" `Quick test_jsonl_robust_field_errors;
          Alcotest.test_case "meta first + missing file" `Quick test_jsonl_robust_not_meta_first;
          Alcotest.test_case "v2 node events" `Quick test_jsonl_v2_node_event;
          QCheck_alcotest.to_alcotest prop_event_roundtrip;
          QCheck_alcotest.to_alcotest prop_arbitrary_bytes;
          QCheck_alcotest.to_alcotest prop_prefixes_and_mutations;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "clock sources" `Quick test_clock_sources;
        ] );
      ( "merge",
        [
          Alcotest.test_case "aligns skewed clocks" `Quick test_merge_aligns_skewed_clocks;
          Alcotest.test_case "truncated shard warns" `Quick test_merge_truncated_shard;
          Alcotest.test_case "queue/freeze classification" `Quick
            test_merge_classifies_queue_and_freeze;
          Alcotest.test_case "grant paths and freeze episodes" `Quick
            test_merge_grant_paths_and_freezes;
          Alcotest.test_case "rejects non-integer node" `Quick test_merge_rejects_non_integer_node;
        ] );
      ( "end-to-end",
        [ Alcotest.test_case "recorder vs counters" `Quick test_traced_run_crosschecks ] );
    ]
