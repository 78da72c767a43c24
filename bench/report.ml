(* Machine-readable performance report.

     dune exec bench/report.exe -- [-o FILE] [--before FILE] [--label S]
                                   [--quota S] [--smoke] [--baseline FILE]
                                   [--gate-tolerance R] [--no-gate]
                                   [--gate-drift-correction]

   Measures the shared microbenchmark suite (suite.ml: ns/run and
   minor-heap words/run), aggregate simulated-cluster throughput
   (requests per wall-clock second at several node counts, each with its
   messages per request and wall-clock µs per message) and the
   figure-sweep wall clocks (quick node list, sequential and parallel),
   checks that the parallel sweep reproduces the sequential one exactly,
   and writes everything as one JSON object. With [--before FILE] the
   (JSON) contents of FILE are embedded verbatim under "before", so a
   report generated at one commit can be carried forward for
   side-by-side comparison — BENCH_baseline.json at the repo root is
   exactly such a report. [--smoke] shrinks the run to a seconds-long CI
   check (tiny quota, one 16-node sweep row fanned over 2 domains) and
   is what the @bench-smoke alias runs.

   [--baseline FILE] is the perf regression gate: after writing the
   report, compare each microbench against FILE's microbench_ns_per_run
   section and exit 1 if any grew more than --gate-tolerance (default
   0.15 = +15%). [--gate-drift-correction] divides every ratio by the
   suite-wide median ratio first, cancelling uniform machine drift on a
   noisy shared host (the @bench-smoke alias uses it — this container
   drifts +/-25% run-to-run). The same flag also gates allocation against
   FILE's microbench_minor_words_per_run section, with fixed bounds and
   no drift correction: a row that allocated 0 words/run may read at most
   0.5, any other row may grow 10%. Escape hatches when a regression is
   understood and accepted: pass --no-gate, or set BENCH_NO_GATE=1 (for
   one-off runs of the @bench-smoke alias, whose command line is
   fixed). *)

let now () = Unix.gettimeofday ()

(* {1 Minimal JSON emission} *)

let buf_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_kv b ~last key value =
  Buffer.add_string b "    \"";
  buf_escape b key;
  Buffer.add_string b "\": ";
  Buffer.add_string b value;
  if not last then Buffer.add_char b ',';
  Buffer.add_char b '\n'

let obj_of_assoc ~render kvs =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\n";
  let n = List.length kvs in
  List.iteri (fun i (k, v) -> add_kv b ~last:(i = n - 1) k (render v)) kvs;
  Buffer.add_string b "  }";
  Buffer.contents b

let fl v = Printf.sprintf "%.6f" v

(* {1 Measurements} *)

let time_it f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

type sweep_timing = { name : string; seq_s : float; par_s : float }

let sweep_timings ~jobs ~nodes () =
  let figs =
    [
      ("fig5", fun ~jobs () -> ignore (Dcs_runtime.Figures.fig5 ~nodes ~jobs ()));
      ("fig6", fun ~jobs () -> ignore (Dcs_runtime.Figures.fig6 ~nodes ~jobs ()));
      ("fig7", fun ~jobs () -> ignore (Dcs_runtime.Figures.fig7 ~nodes ~jobs ()));
    ]
  in
  List.map
    (fun (name, run) ->
      let (), seq_s = time_it (fun () -> run ~jobs:1 ()) in
      let (), par_s = time_it (fun () -> run ~jobs ()) in
      { name; seq_s; par_s })
    figs

(* The determinism gate: the same grid at jobs 1 and [jobs] must produce
   structurally identical series (every stat of every cell). *)
let parallel_matches ~jobs ~nodes () =
  let seq = Dcs_runtime.Figures.fig5 ~nodes ~jobs:1 () |> fst in
  let par = Dcs_runtime.Figures.fig5 ~nodes ~jobs () |> fst in
  seq = par

let read_file file =
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  contents

let () =
  let out = ref None
  and before = ref None
  and label = ref "current"
  and quota = ref 0.25
  and smoke = ref false
  and baseline = ref None
  and gate_tolerance = ref 0.15
  and gate_drift = ref false
  and no_gate = ref false in
  let soak = ref false in
  let soak_scale = ref 1.0 in
  let rec parse = function
    | [] -> ()
    | "--soak" :: rest -> soak := true; parse rest
    | "--soak-scale" :: s :: rest -> soak_scale := float_of_string s; parse rest
    | "-o" :: f :: rest -> out := Some f; parse rest
    | "--before" :: f :: rest -> before := Some f; parse rest
    | "--label" :: s :: rest -> label := s; parse rest
    | "--quota" :: s :: rest -> quota := float_of_string s; parse rest
    | "--smoke" :: rest -> smoke := true; parse rest
    | "--baseline" :: f :: rest -> baseline := Some f; parse rest
    | "--gate-tolerance" :: s :: rest -> gate_tolerance := float_of_string s; parse rest
    | "--gate-drift-correction" :: rest -> gate_drift := true; parse rest
    | "--no-gate" :: rest -> no_gate := true; parse rest
    | a :: _ -> Printf.eprintf "unknown argument %S\n" a; exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !soak then begin
    (* The sharded-service capstone: 64 nodes per set, a 1M-lock-set
       namespace, Zipf-skewed multi-million-request traffic, at 1/2/4
       shards. --soak-scale R shrinks the round count for quick looks.
       Prints a table and exits; results are recorded in EXPERIMENTS.md
       ("Sharding"). *)
    let rounds = max 1 (int_of_float (250.0 *. !soak_scale)) in
    let rows = Suite.soak ~rounds () in
    Printf.printf "shards | grants | wall s | req/s | digest | bursts per shard\n";
    Printf.printf "-------+--------+--------+-------+--------+-----------------\n";
    List.iter
      (fun (r : Suite.soak_row) ->
        Printf.printf "%6d | %6d | %6.1f | %5.0f | %Lx | %s\n" r.Suite.soak_shards
          r.Suite.soak_grants r.Suite.soak_wall_s r.Suite.soak_req_per_s r.Suite.soak_digest
          (String.concat " " (List.map string_of_int r.Suite.soak_balance)))
      rows;
    (match rows with
    | first :: rest when List.exists (fun (r : Suite.soak_row) -> r.Suite.soak_digest <> first.Suite.soak_digest) rest ->
        prerr_endline "FAIL: digest varies with shard count";
        exit 1
    | _ -> ());
    exit 0
  end;
  let smoke = !smoke || Sys.getenv_opt "BENCH_QUICK" <> None in
  let no_gate = !no_gate || Sys.getenv_opt "BENCH_NO_GATE" <> None in
  let cores = Domain.recommended_domain_count () in
  let jobs = if smoke then 2 else max 2 cores in
  let nodes = if smoke then [ 16 ] else Dcs_runtime.Figures.quick_nodes in
  (* Smoke caps the quota rather than zeroing it: at 0.05s the OLS fit on
     sub-microsecond benches swings tens of percent run-to-run, which is
     exactly the noise a regression gate must not trip on. *)
  let quota = if smoke then min !quota 0.2 else !quota in
  let micro = Suite.run ~quota () in
  let throughput_nodes = [ 8; 16; 32; 64 ] in
  let throughput_rounds = if smoke then 20 else 200 in
  (* Each node-count row carries its messages per request and wall-clock
     µs per message beside req/s: flat µs/msg across n pins the claim that
     per-message cost does not grow with the cluster. *)
  let throughput =
    List.concat_map
      (fun n ->
        let r = Suite.throughput ~nodes:n ~rounds:throughput_rounds () in
        [
          (Printf.sprintf "nodes%d_req_per_s" n, r.Suite.req_per_s);
          (Printf.sprintf "nodes%d_msgs_per_req" n, r.Suite.msgs_per_req);
          (Printf.sprintf "nodes%d_us_per_msg" n, r.Suite.us_per_msg);
        ])
      throughput_nodes
  in
  (* Sharded-service rows ride the same aggregate section (not gated):
     req/s through the full shard round loop at 1, 2 and 4 shards. *)
  let shard_rounds = if smoke then 4 else 40 in
  let shard_throughput =
    List.map
      (fun s ->
        (Printf.sprintf "shards%d_req_per_s" s, Suite.shard_throughput ~shards:s ~rounds:shard_rounds ()))
      [ 1; 2; 4 ]
  in
  let sweeps = sweep_timings ~jobs ~nodes () in
  let matches = parallel_matches ~jobs ~nodes () in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  add_kv b ~last:false "schema" "\"dcs-bench-report/1\"";
  add_kv b ~last:false "label" (let bb = Buffer.create 32 in Buffer.add_char bb '"'; buf_escape bb !label; Buffer.add_char bb '"'; Buffer.contents bb);
  add_kv b ~last:false "cores" (string_of_int cores);
  add_kv b ~last:false "jobs" (string_of_int jobs);
  add_kv b ~last:false "smoke" (string_of_bool smoke);
  add_kv b ~last:false "sweep_nodes" ("[" ^ String.concat ", " (List.map string_of_int nodes) ^ "]");
  add_kv b ~last:false "parallel_matches_sequential" (string_of_bool matches);
  add_kv b ~last:false "microbench_ns_per_run"
    (obj_of_assoc ~render:fl (List.map (fun r -> (r.Suite.name, r.Suite.ns)) micro));
  add_kv b ~last:false "microbench_minor_words_per_run"
    (obj_of_assoc ~render:fl (List.map (fun r -> (r.Suite.name, r.Suite.minor_words)) micro));
  add_kv b ~last:false "aggregate_requests_per_sec"
    (obj_of_assoc ~render:fl (throughput @ shard_throughput));
  let sweep_kvs =
    List.concat_map
      (fun s -> [ (s.name ^ "_jobs1_s", s.seq_s); (Printf.sprintf "%s_jobs%d_s" s.name jobs, s.par_s) ])
      sweeps
  in
  let last = !before = None in
  add_kv b ~last "sweep_wall_clock_s" (obj_of_assoc ~render:fl sweep_kvs);
  (match !before with
  | None -> ()
  | Some file -> add_kv b ~last:true "before" (String.trim (read_file file)));
  Buffer.add_string b "}\n";
  let json = Buffer.contents b in
  (match !out with
  | None -> print_string json
  | Some f ->
      let oc = open_out f in
      output_string oc json;
      close_out oc;
      Printf.eprintf "wrote %s\n" f);
  if not matches then begin
    Printf.eprintf "FAIL: parallel sweep diverged from sequential\n";
    exit 1
  end;
  match !baseline with
  | None -> ()
  | Some _ when no_gate -> Printf.eprintf "perf gate: skipped (--no-gate / BENCH_NO_GATE)\n"
  | Some file ->
      let baseline = read_file file in
      let before_micro = Gate.microbench_of_json baseline in
      let after_micro = List.map (fun r -> (r.Suite.name, r.Suite.ns)) micro in
      let corrected = if !gate_drift then " (drift-corrected)" else "" in
      let time_ok =
        match
          Gate.regressions ~drift_correction:!gate_drift ~tolerance:!gate_tolerance
            ~before:before_micro ~after:after_micro ()
        with
        | [] ->
            Printf.eprintf "perf gate: ok (%d benches within %+.0f%%%s of %s)\n"
              (List.length after_micro) (!gate_tolerance *. 100.0) corrected file;
            true
        | regs ->
            Printf.eprintf "FAIL: %d microbench(es) regressed more than %.0f%%%s vs %s:\n"
              (List.length regs) (!gate_tolerance *. 100.0) corrected file;
            List.iter (fun v -> Format.eprintf "  %a@." Gate.pp_verdict v) regs;
            false
      in
      let alloc_ok =
        match
          Gate.allocation_regressions ~before:(Gate.minor_words_of_json baseline)
            ~after:(List.map (fun r -> (r.Suite.name, r.Suite.minor_words)) micro)
        with
        | [] ->
            Printf.eprintf
              "allocation gate: ok (0 rows <= %.1f words/run, others within %+.0f%% of %s)\n"
              Gate.zero_slack (Gate.alloc_tolerance *. 100.0) file;
            true
        | regs ->
            Printf.eprintf "FAIL: %d microbench(es) allocate more than %s allows:\n"
              (List.length regs) file;
            List.iter (fun v -> Format.eprintf "  %a@." Gate.pp_alloc_verdict v) regs;
            false
      in
      if not (time_ok && alloc_ok) then begin
        Printf.eprintf "(rerun with --no-gate or BENCH_NO_GATE=1 to accept)\n";
        exit 1
      end
