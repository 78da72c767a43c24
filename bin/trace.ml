(* dcs-trace: capture and analyze request-lifecycle telemetry.

     dcs-trace record  -o FILE       run one instrumented experiment, write JSONL
     dcs-trace analyze FILE...       merge shards, align clocks, critical paths
     dcs-trace top FILE...           live per-node view tailing shard files

   [record] re-runs a figure-sweep cell (same seed derivation as the fig5-7
   grids) with a Dcs_obs.Recorder attached; [analyze] works from the JSONL
   alone, so traces can be captured on one machine and studied on another.
   Given several files (one dcs-obs/2 shard per cluster process), [analyze]
   merges them onto one causally-aligned timeline first. *)

open Cmdliner
module Mode = Dcs_modes.Mode
module Msg_class = Dcs_proto.Msg_class
module Experiment = Dcs_runtime.Experiment
module Figures = Dcs_runtime.Figures
module Event = Dcs_obs.Event
module Recorder = Dcs_obs.Recorder
module Jsonl = Dcs_obs.Jsonl
module Merge = Dcs_obs.Merge
module Sample = Dcs_stats.Sample
module Table = Dcs_stats.Table

(* {1 record} *)

let record_cmd =
  let driver_arg =
    let driver_conv =
      Arg.enum
        [
          ("hierarchical", Experiment.Hierarchical);
          ("naimi-same-work", Experiment.Naimi_same_work);
          ("naimi-pure", Experiment.Naimi_pure);
        ]
    in
    Arg.(value & opt driver_conv Experiment.Hierarchical & info [ "driver" ] ~docv:"DRIVER"
           ~doc:"One of hierarchical, naimi-same-work, naimi-pure.")
  in
  let nodes_arg = Arg.(value & opt int 16 & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size.") in
  let entries_arg =
    Arg.(value & opt int 10 & info [ "entries" ] ~docv:"K" ~doc:"Table size (entry locks).")
  in
  let ops_arg =
    Arg.(value & opt int 20 & info [ "ops" ] ~docv:"OPS" ~doc:"Operations per node.")
  in
  let seed_arg =
    Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED"
           ~doc:"Base sweep seed; the cell seed is derived from it as in the figure sweeps.")
  in
  let out_arg =
    Arg.(value & opt string "trace.jsonl" & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output JSONL file.")
  in
  let run driver nodes entries ops seed out =
    let recorder =
      Recorder.create ~path:out
        ~meta:
          [
            ("driver", Experiment.driver_to_string driver);
            ("nodes", string_of_int nodes);
            ("entries", string_of_int entries);
            ("ops_per_node", string_of_int ops);
            ("seed", Int64.to_string seed);
          ]
        ()
    in
    let workload =
      { Dcs_workload.Airline.default_config with Dcs_workload.Airline.entries; ops_per_node = ops }
    in
    let r = Figures.traced_cell ~workload ~seed ~recorder ~driver ~nodes () in
    Recorder.close recorder ~time:r.Experiment.sim_duration_ms ~counters:r.Experiment.messages;
    Printf.printf "wrote %s: %d events, %d spans (%d completed), %d messages, %.1f s simulated\n"
      out (Recorder.event_count recorder) (Recorder.requested recorder)
      (Recorder.completed recorder) r.Experiment.total_messages
      (r.Experiment.sim_duration_ms /. 1000.)
  in
  Cmd.v
    (Cmd.info "record" ~doc:"Run one instrumented experiment and write its telemetry as JSONL.")
    Term.(const run $ driver_arg $ nodes_arg $ entries_arg $ ops_arg $ seed_arg $ out_arg)

(* {1 analyze} *)

let pp_span_id (b : Merge.breakdown) =
  Printf.sprintf "lock%d n%d#%d" b.Merge.b_lock b.b_requester b.b_seq

let kind_label = function
  | `Local -> "local grant"
  | `Token -> "token transfer"
  | `Upgrade -> "upgrade"

let analyze files slowest check =
  let shards, warnings =
    match Merge.load files with
    | Error msg ->
        Printf.eprintf "dcs-trace: %s\n" msg;
        exit 2
    | Ok (shards, warnings) -> (shards, warnings)
  in
  List.iter (fun w -> Printf.eprintf "dcs-trace: warning: %s\n" w) warnings;
  List.iter
    (fun (s : Merge.shard) ->
      Printf.printf "shard %s: %s%s\n" s.Merge.path
        (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) s.meta))
        (if s.truncated then "  [truncated]" else ""))
    shards;
  let multi = List.length (List.filter (fun (s : Merge.shard) -> s.Merge.node >= 0) shards) > 1 in
  let offsets = if multi then Merge.align shards else [] in
  if List.exists (fun (_, o) -> o <> 0.0) offsets then begin
    Printf.printf "\nClock alignment (send/receive causality; corrected = local - offset)\n";
    List.iter (fun (node, off) -> Printf.printf "  node %d  offset %+.3f ms\n" node off) offsets
  end;
  let events = Merge.merged_events ~offsets shards in
  let breakdowns, still_open = Merge.critical_paths events in
  let nodes =
    List.find_map
      (fun (s : Merge.shard) ->
        match List.assoc_opt "nodes" s.Merge.meta with
        | Some v -> int_of_string_opt v
        | None -> None)
      shards
  in
  Printf.printf "\n%d events across %d shard(s), %d completed acquisitions, %d spans still open\n\n"
    (List.length events) (List.length shards) (List.length breakdowns) still_open;

  (* Per-mode latency, exact percentiles from the span wall clocks. *)
  let latency (b : Merge.breakdown) = b.Merge.b_finish -. b.b_start in
  let mode_rows =
    List.filter_map
      (fun m ->
        let ls =
          List.filter_map
            (fun b -> if Mode.equal b.Merge.b_mode m then Some (latency b) else None)
            breakdowns
        in
        if ls = [] then None
        else begin
          let s = Sample.create () in
          List.iter (Sample.add s) ls;
          Some
            [
              Mode.to_string m;
              string_of_int (Sample.count s);
              Printf.sprintf "%.1f" (Sample.mean s);
              Printf.sprintf "%.1f" (Sample.percentile s 50.0);
              Printf.sprintf "%.1f" (Sample.percentile s 95.0);
              Printf.sprintf "%.1f" (Sample.percentile s 99.0);
            ]
        end)
      Mode.all
  in
  print_string "Acquisition latency by mode (ms)\n";
  print_string (Table.render ~header:[ "mode"; "n"; "mean"; "p50"; "p95"; "p99" ] mode_rows);

  (* Grant-path economics: Rule 3.1 locality and the token-path length. *)
  let local = List.filter (fun b -> b.Merge.b_kind = `Local) breakdowns in
  let token = List.filter (fun b -> b.Merge.b_kind = `Token) breakdowns in
  let upgrades = List.filter (fun b -> b.Merge.b_kind = `Upgrade) breakdowns in
  let message_free = List.filter (fun b -> b.Merge.b_hops = 0) local in
  let grants = List.length local + List.length token in
  Printf.printf "\nGrant paths\n";
  Printf.printf "  local grants (Rules 2, 3, 3.1)   %6d  (%d message-free)\n" (List.length local)
    (List.length message_free);
  Printf.printf "  token transfers (Rule 3.2)       %6d\n" (List.length token);
  Printf.printf "  upgrades completed (Rule 7)      %6d\n" (List.length upgrades);
  if grants > 0 then
    Printf.printf "  local-grant ratio                %6.1f%%\n"
      (100.0 *. float_of_int (List.length local) /. float_of_int grants);
  let hop_dist which =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (b : Merge.breakdown) ->
        Hashtbl.replace tbl b.Merge.b_hops
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl b.Merge.b_hops)))
      which;
    Hashtbl.fold (fun h n acc -> (h, n) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let mean_hops which =
    if which = [] then 0.0
    else
      float_of_int (List.fold_left (fun s (b : Merge.breakdown) -> s + b.Merge.b_hops) 0 which)
      /. float_of_int (List.length which)
  in
  let hops_rows =
    let dl = hop_dist local and dt = hop_dist token in
    let all_h = List.sort_uniq compare (List.map fst dl @ List.map fst dt) in
    List.map
      (fun h ->
        [
          string_of_int h;
          string_of_int (Option.value ~default:0 (List.assoc_opt h dl));
          string_of_int (Option.value ~default:0 (List.assoc_opt h dt));
        ])
      all_h
  in
  if hops_rows <> [] then begin
    Printf.printf "\nRequest-path hops (relays before grant)\n";
    print_string (Table.render ~header:[ "hops"; "local"; "token" ] hops_rows)
  end;
  (match nodes with
  | Some n when token <> [] && n > 1 ->
      let log2n = log (float_of_int n) /. log 2.0 in
      Printf.printf "  mean token-path hops %.2f vs log2(%d) = %.2f  (O(log n) check: ratio %.2f)\n"
        (mean_hops token) n log2n
        (mean_hops token /. log2n)
  | _ -> ());

  (* Critical-path decomposition: where each grant kind's wait went. *)
  if breakdowns <> [] then begin
    Printf.printf "\nCritical-path decomposition (mean ms per bucket)\n";
    let rows =
      List.filter_map
        (fun (kind, which) ->
          if which = [] then None
          else begin
            let n = float_of_int (List.length which) in
            let mean f = List.fold_left (fun acc b -> acc +. f b) 0.0 which /. n in
            Some
              [
                kind_label kind;
                string_of_int (List.length which);
                Printf.sprintf "%.2f" (mean (fun b -> b.Merge.b_local_ms));
                Printf.sprintf "%.2f" (mean (fun b -> b.Merge.b_queue_ms));
                Printf.sprintf "%.2f" (mean (fun b -> b.Merge.b_freeze_ms));
                Printf.sprintf "%.2f" (mean (fun b -> b.Merge.b_net_ms));
                Printf.sprintf "%.2f" (mean (fun b -> b.Merge.b_token_ms));
                Printf.sprintf "%.2f" (mean Merge.total_wait);
              ]
          end)
        [ (`Local, local); (`Token, token); (`Upgrade, upgrades) ]
    in
    print_string
      (Table.render
         ~header:[ "grant"; "n"; "local"; "queue"; "freeze"; "net"; "token"; "total" ]
         rows)
  end;

  (* Message accounting: per-shard msgs summed vs the transports' Counters.
     The exact crosscheck covers the five protocol classes; Ack/Retransmit
     exist only below the recorder's hook (the reliable shim), so they are
     reported but never compared. *)
  let shim_class cls = cls = Msg_class.Ack || cls = Msg_class.Retransmit in
  let msgs = Merge.summed_msgs shards in
  let counters = Merge.summed_counters shards in
  let have_msgs = List.exists (fun (_, (c, _)) -> c > 0) msgs || counters <> None in
  let counters_match = ref true in
  if have_msgs then begin
    Printf.printf "\nMessages by class (shards vs transport counters)\n";
    let rows =
      List.map
        (fun (cls, (count, bytes)) ->
          let mismatch n = if n <> count && not (shim_class cls) then counters_match := false in
          let net =
            match counters with
            | None -> "-"
            | Some cs -> (
                match List.assoc_opt cls cs with
                | Some n ->
                    mismatch n;
                    string_of_int n
                | None ->
                    mismatch 0;
                    "0")
          in
          [ Msg_class.to_string cls; string_of_int count; string_of_int bytes; net ])
        msgs
    in
    print_string (Table.render ~header:[ "class"; "count"; "bytes"; "counters" ] rows);
    if counters <> None then
      Printf.printf "  shards vs counters: %s (protocol classes; ack/retx are shim-only)\n"
        (if !counters_match then "exact match" else "MISMATCH")
  end;

  (* Grant-mix cross-check: merged spans vs the grants.* metric counters
     each runner and recorder keeps independently of the event stream. *)
  let metric_totals = Merge.metric_totals shards in
  let grants_match = ref true in
  let has_prefix p (n, _) = String.starts_with ~prefix:p n in
  let have_grant_metrics = List.exists (has_prefix "grants.") metric_totals in
  if have_grant_metrics then begin
    Printf.printf "\nGrant mix (merged spans vs grants.* metrics)\n";
    let rows =
      List.filter_map
        (fun m ->
          let spans =
            List.length
              (List.filter
                 (fun (b : Merge.breakdown) ->
                   Mode.equal b.Merge.b_mode m && b.b_kind <> `Upgrade)
                 breakdowns)
          in
          let metric =
            int_of_float
              (Option.value ~default:0.0
                 (List.assoc_opt ("grants." ^ Mode.to_string m) metric_totals))
          in
          if spans = 0 && metric = 0 then None
          else begin
            if spans <> metric then grants_match := false;
            Some [ Mode.to_string m; string_of_int spans; string_of_int metric ]
          end)
        Mode.all
    in
    print_string (Table.render ~header:[ "mode"; "spans"; "metrics" ] rows);
    Printf.printf "  spans vs metrics: %s\n" (if !grants_match then "exact match" else "MISMATCH")
  end;
  let dropped =
    int_of_float (Option.value ~default:0.0 (List.assoc_opt "net.dropped_frames" metric_totals))
  in
  if List.exists (has_prefix "net.") metric_totals then begin
    Printf.printf "\nTransport metrics (summed across shards, final snapshot)\n";
    List.iter
      (fun name ->
        match List.assoc_opt name metric_totals with
        | Some v -> Printf.printf "  %-26s %10.0f\n" name v
        | None -> ())
      [
        "net.frames_sent";
        "net.bytes_sent";
        "net.batches";
        "net.partial_requeues";
        "net.connects";
        "net.reconnects";
        "net.connect_retries";
        "net.dropped_frames";
        "net.decode_errors";
        "net.frames_received";
        "net.bytes_received";
      ]
  end;

  (* Shard balance: the sharded lock-namespace service labels its
     instruments {shard=N} (Metrics.labelled), one registry per shard
     process; tabulating them shard-by-shard shows how evenly buckets and
     traffic are spread. *)
  let shard_rows =
    List.filter_map
      (fun (n, v) ->
        match Dcs_obs.Metrics.shard_label n with
        | Some (base, shard) -> Some (shard, base, v)
        | None -> None)
      metric_totals
  in
  if shard_rows <> [] then begin
    Printf.printf "\nShard balance (metrics labelled {shard=N})\n";
    let ids = List.sort_uniq compare (List.map (fun (s, _, _) -> s) shard_rows) in
    let bases = List.sort_uniq compare (List.map (fun (_, b, _) -> b) shard_rows) in
    let rows =
      List.map
        (fun id ->
          string_of_int id
          :: List.map
               (fun base ->
                 match List.find_opt (fun (s, b, _) -> s = id && b = base) shard_rows with
                 | Some (_, _, v) -> Printf.sprintf "%.0f" v
                 | None -> "-")
               bases)
        ids
    in
    print_string (Table.render ~header:("shard" :: bases) rows)
  end;

  (* Gauges (sim traces). *)
  let gauges = List.concat_map (fun (s : Merge.shard) -> s.Merge.gauges) shards in
  if gauges <> [] then begin
    Printf.printf "\nGauges\n";
    let names = List.sort_uniq compare (List.map (fun (_, n, _) -> n) gauges) in
    let rows =
      List.map
        (fun name ->
          let vs = List.filter_map (fun (_, n, v) -> if n = name then Some v else None) gauges in
          let n = List.length vs in
          let sum = List.fold_left ( +. ) 0.0 vs in
          let mn = List.fold_left Float.min infinity vs in
          let mx = List.fold_left Float.max neg_infinity vs in
          [
            name;
            string_of_int n;
            Printf.sprintf "%.2f" (sum /. float_of_int n);
            Printf.sprintf "%.0f" mn;
            Printf.sprintf "%.0f" mx;
          ])
        names
    in
    print_string (Table.render ~header:[ "gauge"; "samples"; "mean"; "min"; "max" ] rows)
  end;

  (* Freeze episodes. *)
  let durations, open_freezes =
    Hashtbl.fold
      (fun _ ivs acc ->
        List.fold_left
          (fun (ds, n) (t0, t1) -> if t1 = infinity then (ds, n + 1) else ((t1 -. t0) :: ds, n))
          acc ivs)
      (Merge.freeze_episodes events) ([], 0)
  in
  if durations <> [] || open_freezes > 0 then begin
    let n = List.length durations in
    let sum = List.fold_left ( +. ) 0.0 durations in
    let mx = List.fold_left Float.max 0.0 durations in
    Printf.printf "\nFreeze episodes (Rule 6): %d closed" n;
    if n > 0 then Printf.printf ", mean %.1f ms, max %.1f ms" (sum /. float_of_int n) mx;
    if open_freezes > 0 then Printf.printf ", %d still open" open_freezes;
    print_newline ()
  end;

  (* Slowest requests with their decomposed timelines. *)
  let by_latency = List.sort (fun a b -> compare (latency b) (latency a)) breakdowns in
  let rec take k = function [] -> [] | x :: tl -> if k = 0 then [] else x :: take (k - 1) tl in
  let slow = take slowest by_latency in
  if slow <> [] then begin
    Printf.printf "\nSlowest %d requests\n" (List.length slow);
    List.iter
      (fun (b : Merge.breakdown) ->
        Printf.printf
          "  %s %s: %.1f ms (%d hops, %s; local %.1f / queue %.1f / freeze %.1f / net %.1f / \
           token %.1f)\n"
          (pp_span_id b) (Mode.to_string b.Merge.b_mode) (latency b) b.b_hops
          (kind_label b.b_kind) b.b_local_ms b.b_queue_ms b.b_freeze_ms b.b_net_ms b.b_token_ms;
        List.iter
          (fun (e : Event.t) ->
            Printf.printf "    +%8.1f ms  n%-3d %s\n" (e.time -. b.Merge.b_start) e.node
              (Event.kind_name e.kind))
          b.b_events)
      slow
  end;

  if check then begin
    let failures = ref [] in
    if breakdowns = [] then failures := "no completed spans" :: !failures;
    if counters = None then failures := "no counters line" :: !failures
    else if not !counters_match then
      failures := "shard message counts do not match transport counters" :: !failures;
    if breakdowns <> [] && not have_grant_metrics then
      failures := "no grants.* metrics" :: !failures
    else if not !grants_match then
      failures := "merged span grant mix does not match grants.* metrics" :: !failures;
    if dropped > 0 then
      failures := Printf.sprintf "%d frame(s) dropped at shutdown" dropped :: !failures;
    match !failures with
    | [] ->
        Printf.printf "\ncheck: OK (%d spans, counters match, grant mix matches)\n"
          (List.length breakdowns)
    | fs ->
        Printf.printf "\ncheck: FAILED (%s)\n" (String.concat "; " (List.rev fs));
        exit 1
  end

let files_arg =
  Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE" ~doc:"JSONL trace/shard file(s).")

let analyze_cmd =
  let slowest_arg =
    Arg.(value & opt int 5 & info [ "slowest" ] ~docv:"K"
           ~doc:"Show the K slowest requests with full timelines.")
  in
  let check_flag =
    Arg.(value & flag & info [ "check" ]
           ~doc:"Exit nonzero unless the merged trace has completed spans, the shards' message \
                 counts exactly match the embedded transport counters, the grants.* metrics \
                 are present and match the merged grant mix, and no frames were dropped.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Analyze one or more JSONL shards: merge, align clocks causally, per-mode latency \
             percentiles, per-span critical-path decomposition, grant-path breakdown, message \
             and metric crosschecks, slowest requests.")
    Term.(const analyze $ files_arg $ slowest_arg $ check_flag)

(* {1 top} *)

(* Tail state for one shard file. Bytes already consumed stay consumed;
   [pending] holds a trailing partial line until its newline arrives. *)
type tail = {
  t_path : string;
  mutable t_offset : int;
  mutable t_pending : string;
  mutable t_node : int;
  mutable t_requested : int;
  mutable t_grants : int;
  mutable t_local : int;
  mutable t_mf : int;
  mutable t_grants_prev : int;  (* at the previous render *)
  t_metrics : (string, float) Hashtbl.t;  (* latest snapshot values *)
}

let tail_read st =
  match open_in_bin st.t_path with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let len = in_channel_length ic in
      if len <= st.t_offset then []
      else begin
        seek_in ic st.t_offset;
        let chunk = really_input_string ic (len - st.t_offset) in
        st.t_offset <- len;
        let data = st.t_pending ^ chunk in
        let parts = String.split_on_char '\n' data in
        let rec split = function
          | [] -> []
          | [ last ] ->
              st.t_pending <- last;
              []
          | x :: tl -> x :: split tl
        in
        split parts
      end

let tail_ingest st lines =
  List.iter
    (fun raw ->
      if raw <> "" then
        match Jsonl.parse_line raw with
        | Error _ -> ()
        | Ok (Jsonl.Meta meta) -> (
            match List.assoc_opt "node" meta with
            | Some v -> st.t_node <- Option.value ~default:(-1) (int_of_string_opt v)
            | None -> ())
        | Ok (Jsonl.Ev e) -> (
            match e.Event.kind with
            | Event.Requested _ -> st.t_requested <- st.t_requested + 1
            | Event.Granted_local { hops; _ } ->
                st.t_grants <- st.t_grants + 1;
                st.t_local <- st.t_local + 1;
                if hops = 0 then st.t_mf <- st.t_mf + 1
            | Event.Granted_token _ -> st.t_grants <- st.t_grants + 1
            | _ -> ())
        | Ok (Jsonl.Metric { name; value; _ }) -> Hashtbl.replace st.t_metrics name value
        | Ok _ -> ())
    lines

let render_top tails ~interval ~clear =
  if clear then print_string "\027[2J\027[H";
  let rows =
    List.map
      (fun st ->
        let rate = float_of_int (st.t_grants - st.t_grants_prev) /. interval in
        st.t_grants_prev <- st.t_grants;
        let metric name = Hashtbl.find_opt st.t_metrics name in
        let fmt_i name =
          match metric name with Some v -> Printf.sprintf "%.0f" v | None -> "-"
        in
        let pct part whole =
          if whole = 0 then "-" else Printf.sprintf "%.0f%%" (100.0 *. float_of_int part /. float_of_int whole)
        in
        [
          (if st.t_node >= 0 then string_of_int st.t_node else "?");
          Printf.sprintf "%.1f" rate;
          string_of_int st.t_requested;
          string_of_int st.t_grants;
          pct st.t_local st.t_grants;
          pct st.t_mf st.t_grants;
          fmt_i "net.outbound_queue_depth";
          fmt_i "net.dropped_frames";
          fmt_i "net.reconnects";
          (match metric "net.backoff_ms" with Some v -> Printf.sprintf "%.0f" v | None -> "-");
        ])
      tails
  in
  print_string
    (Table.render
       ~header:
         [ "node"; "grants/s"; "reqs"; "grants"; "local"; "msg-free"; "queue"; "drops"; "reconn"; "backoff" ]
       rows);
  flush stdout

let top files interval iterations no_clear =
  let tails =
    List.map
      (fun path ->
        {
          t_path = path;
          t_offset = 0;
          t_pending = "";
          t_node = -1;
          t_requested = 0;
          t_grants = 0;
          t_local = 0;
          t_mf = 0;
          t_grants_prev = 0;
          t_metrics = Hashtbl.create 16;
        })
      files
  in
  let rec loop i =
    if iterations = 0 || i < iterations then begin
      List.iter (fun st -> tail_ingest st (tail_read st)) tails;
      render_top tails ~interval ~clear:(not no_clear);
      if iterations = 0 || i + 1 < iterations then Unix.sleepf interval;
      loop (i + 1)
    end
  in
  loop 0

let top_cmd =
  let interval_arg =
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"S" ~doc:"Refresh period in seconds.")
  in
  let iterations_arg =
    Arg.(value & opt int 0 & info [ "iterations" ] ~docv:"N"
           ~doc:"Stop after N refreshes (0 = run until interrupted).")
  in
  let no_clear_flag =
    Arg.(value & flag & info [ "no-clear" ]
           ~doc:"Append refreshes instead of clearing the screen (for logs and tests).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Tail live dcs-obs/2 shard files and render per-node throughput, queue depth and \
             grant mix every refresh.")
    Term.(const top $ files_arg $ interval_arg $ iterations_arg $ no_clear_flag)

let () =
  let doc = "Request-lifecycle trace capture and analysis for the DCS protocols." in
  let info = Cmd.info "dcs-trace" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ record_cmd; analyze_cmd; top_cmd ]))
