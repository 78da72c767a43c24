(* The benchmark's workloads and metrics: names, units and what each
   measures. BENCHMARK.json at the repository root declares the same
   names; the smoke test checks that the two agree. *)

let workloads = [ "airline-64"; "hotlock-64" ]

(* Seen by a user of the lock service; measured untraced. *)
let end_to_end =
  [
    ("req_per_s", "1/s");
    ("cpu_us_per_req", "us");
    ("msgs_per_req", "msg/req");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

(* One layer each. Counts come from untraced repetitions; span times,
   and the ratios built on them, from traced ones. *)
let per_layer =
  [
    ("hlock.handle_us_per_msg", "us");
    ("hlock.client_call_us", "us");
    ("hlock.local_grant_ratio", "ratio");
    ("net.msgs_per_req.request", "msg/req");
    ("net.msgs_per_req.copy_grant", "msg/req");
    ("net.msgs_per_req.token_transfer", "msg/req");
    ("net.msgs_per_req.release", "msg/req");
    ("net.msgs_per_req.freeze", "msg/req");
    ("net.send_us_per_msg", "us");
    ("engine.events_per_req", "events/req");
    ("engine.self_us_per_event", "us");
    ("gc.minor_words_per_req", "words/req");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("trace_overhead", "ratio");
  ]
