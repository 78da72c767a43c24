(* The end-to-end benchmark: two workloads over the lock service's public
   entry points, each repetition in a fresh process, with correctness
   checks on every run and a traced mode for per-layer costs.

     e2e.exe [--seed N] [--traced] [-o FILE]
         every workload, [report_reps] repetitions each; prints every
         metric with its unit, and with -o writes the report as JSON
     e2e.exe --workload W --seed N --seconds S --trace 0|1
         one workload for about S seconds; the last line of output is a
         JSON summary of the end-to-end (0) or per-layer (1) metrics
     e2e.exe --smoke [--manifest BENCHMARK.json]
         every workload at 1/50 scale, correctness checks only

   README.md in this directory describes the workloads and metrics. *)

let cores = Domain.recommended_domain_count ()

(* {1 One repetition} *)

let run_workload name r ~traced ~seed ~scale =
  match name with
  | "airline-64" ->
      Sim_load.airline r ~traced ~seed ~scale;
      if not traced then Sim_load.airline_crosscheck r ~seed
  | "hotlock-64" -> Sim_load.hotlock r ~traced ~seed ~scale
  | _ -> invalid_arg ("unknown workload " ^ name)

let repetition name ~traced ~seed ~scale =
  let r = Measure.rep () in
  (try run_workload name r ~traced ~seed ~scale
   with e -> Measure.problem r "%s raised %s" name (Printexc.to_string e));
  Measure.metric r "peak_rss_mb" (Measure.peak_rss_mb ());
  r

(* A child process reports its repetition one fact per line. *)
let print_rep (r : Measure.rep) =
  Printf.printf "attempted %d\nfailed %d\nbasis %.17g\nfingerprint %s\n" r.attempted r.failed r.basis
    r.fingerprint;
  List.iter
    (fun p -> Printf.printf "problem %s\n" (String.map (function '\n' -> ' ' | c -> c) p))
    (List.rev r.problems);
  List.iter (fun (k, v) -> Printf.printf "metric %s %.17g\n" k v) (List.rev r.metrics)

let parse_rep lines =
  let r = Measure.rep () in
  List.iter
    (fun line ->
      match String.index_opt line ' ' with
      | None -> ()
      | Some i -> (
          let rest = String.sub line (i + 1) (String.length line - i - 1) in
          match String.sub line 0 i with
          | "attempted" -> r.attempted <- int_of_string rest
          | "failed" -> r.failed <- int_of_string rest
          | "basis" -> r.basis <- float_of_string rest
          | "fingerprint" -> r.fingerprint <- rest
          | "problem" -> r.problems <- rest :: r.problems
          | "metric" -> (
              match String.split_on_char ' ' rest with
              | [ k; v ] -> Measure.metric r k (float_of_string v)
              | _ -> ())
          | _ -> ()))
    lines;
  r

(* Run one repetition in a fresh process, killed by SIGALRM after
   [limit] seconds. *)
let spawn ?(scale = 1.0) name ~traced ~seed ~limit =
  let args =
    [
      Sys.executable_name; "--child"; name; "--seed"; Int64.to_string seed; "--limit"; string_of_int limit;
      "--scale"; Printf.sprintf "%h" scale;
    ]
    @ if traced then [ "--traced" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let r = parse_rep (In_channel.input_lines ic) in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> Measure.problem r "%s repetition exited with code %d" name c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> Measure.problem r "%s repetition killed by signal %d" name s);
  r

(* Repetition [i] draws its inputs from its own seed, derived from the
   run's, so a run samples several inputs instead of re-measuring one:
   hotlock-64's throughput varies by about 14% from one seed to the next,
   and only sampling more seeds per run narrows that. *)
let rep_seed seed i = if i = 0 then seed else Dcs_netkit.Parallel.cell_seed ~base:seed ~salt:i

(* Seconds one untraced repetition takes on the reference host (2 cores,
   shared). Contract mode plans as many repetitions as fit in --seconds,
   so on that host the count, and with it every deterministic median,
   depends only on the arguments. *)
let rep_seconds = function "airline-64" -> 5.0 | _ -> 2.8

(* {1 Aggregation} *)

let median l =
  let a = Measure.sorted_of_list l in
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let values reps name = List.filter_map (fun (r : Measure.rep) -> List.assoc_opt name r.metrics) reps

type summary = {
  untraced : Measure.rep list;
  traced : Measure.rep list;  (* the i-th ran the i-th untraced one's seed *)
  attempted : int;
  failed : int;
  problems : string list;
}

let summarize ~untraced ~traced =
  let all = untraced @ traced in
  let sum f = List.fold_left (fun a r -> a + f r) 0 all in
  (* Tracing only observes: a traced repetition must reach exactly the
     outcome of the untraced one with its seed. *)
  let disagree =
    List.filteri (fun i (t : Measure.rep) ->
        match List.nth_opt untraced i with
        | Some u -> u.Measure.fingerprint <> t.fingerprint
        | None -> false)
      traced
  in
  {
    untraced;
    traced;
    attempted = sum (fun r -> r.Measure.attempted);
    failed = sum (fun r -> r.Measure.failed);
    problems =
      List.concat_map (fun (r : Measure.rep) -> List.rev r.problems) all
      @ List.map (fun (t : Measure.rep) -> "traced and untraced outcomes differ: " ^ t.fingerprint) disagree;
  }

let trace_overhead s =
  let basis reps = median (List.map (fun (r : Measure.rep) -> r.Measure.basis) reps) in
  Measure.ratio (basis s.traced) (basis s.untraced) -. 1.0

(* Untraced repetitions report every count; span times come only from
   traced ones. *)
let reps_for s name = if values s.untraced name <> [] then s.untraced else s.traced

(* A metric's value: the median over the repetitions that measure it. *)
let value s name =
  if name = "trace_overhead" then if s.traced = [] then None else Some (trace_overhead s)
  else match values (reps_for s name) name with [] -> None | vs -> Some (median vs)

(* {1 Output} *)

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
let json_string s = Printf.sprintf "%S" s
let json_obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* Shown beside the catalogue's metrics, not compared across runs. *)
let informational = [ ("latency_p99_ms", "ms"); ("latency_samples", "count") ]

let print_table name s metrics =
  Printf.printf "%s: %d requests attempted, %d failed, %d problem(s)\n" name s.attempted s.failed
    (List.length s.problems);
  List.iter (fun p -> Printf.printf "  problem: %s\n" p) s.problems;
  let line (m, unit) =
    match (value s m, values (reps_for s m) m) with
    | None, _ -> Printf.printf "  %-34s %14s %s\n" m "n/a" unit
    | Some v, (_ :: _ :: _ as vs) ->
        Printf.printf "  %-34s %14.6g %-12s median of %d, range %.6g .. %.6g\n" m v unit (List.length vs)
          (List.fold_left Float.min infinity vs)
          (List.fold_left Float.max neg_infinity vs)
    | Some v, _ -> Printf.printf "  %-34s %14.6g %s\n" m v unit
  in
  List.iter line metrics;
  List.iter (fun (m, u) -> if values s.untraced m <> [] then line (m, u)) informational;
  flush stdout

(* {1 Contract mode: one workload for about [seconds]} *)

let contract ~workload ~seed ~seconds ~trace =
  let t0 = Measure.now () in
  let elapsed () = Measure.now () -. t0 in
  let left () = 170.0 -. elapsed () in
  let seconds = float_of_int seconds in
  (* Up to [n] repetitions. After the first [least], stop once another
     one, at the pace so far, would end past [seconds]: a host slowed by
     its neighbours then gets fewer repetitions, not a longer run. *)
  let run ~least n f =
    let rec go i acc =
      let pace = if i = 0 then 0.0 else elapsed () /. float_of_int i in
      if i >= n || (i >= least && elapsed () +. pace > seconds) || (i > 0 && left () < 30.0) then
        List.rev acc
      else go (i + 1) (f i :: acc)
    in
    go 0 []
  in
  let spawn_rep i ~traced =
    spawn workload ~traced ~seed:(rep_seed seed i) ~limit:(max 5 (int_of_float (left ())))
  in
  let s =
    if trace then
      let pairs =
        run ~least:1 (max 1 (int_of_float (seconds /. (2.0 *. rep_seconds workload)))) (fun i ->
            let u = spawn_rep i ~traced:false in
            (u, spawn_rep i ~traced:true))
      in
      summarize ~untraced:(List.map fst pairs) ~traced:(List.map snd pairs)
    else
      let n = max 3 (int_of_float (seconds /. rep_seconds workload)) in
      summarize ~untraced:(run ~least:3 n (fun i -> spawn_rep i ~traced:false)) ~traced:[]
  in
  let metrics = if trace then Catalogue.per_layer else Catalogue.end_to_end in
  print_table workload s metrics;
  let missing = List.filter (fun (m, _) -> value s m = None) metrics in
  List.iter (fun (m, _) -> Printf.printf "problem: %s was not measured\n" m) missing;
  let field (m, unit) =
    (m, json_obj [ ("value", json_float (Option.value (value s m) ~default:0.0)); ("unit", json_string unit) ])
  in
  print_endline
    (json_obj
       [
         ("correct", string_of_bool (s.problems = [] && missing = [] && s.attempted > 0));
         ("attempted", string_of_int (max 1 s.attempted));
         ("failed", string_of_int s.failed);
         ("metrics", json_obj (List.map field metrics));
       ])

(* {1 Report mode: every workload, fixed repetitions} *)

let report_reps = 3

let report ~seed ~traced ~out =
  let reps = report_reps in
  let results =
    List.map
      (fun w ->
        let spawn_rep i ~traced = spawn w ~traced ~seed:(rep_seed seed i) ~limit:600 in
        let s = summarize ~untraced:(List.init reps (fun i -> spawn_rep i ~traced:false)) ~traced:[] in
        print_table w s Catalogue.end_to_end;
        let t =
          if traced then begin
            let u = spawn_rep 0 ~traced:false in
            let t = summarize ~untraced:[ u ] ~traced:[ spawn_rep 0 ~traced:true ] in
            print_table (w ^ " (traced)") t Catalogue.per_layer;
            Some t
          end
          else None
        in
        (w, s, t))
      Catalogue.workloads
  in
  let clean s = s.problems = [] && s.failed = 0 in
  let ok = List.for_all (fun (_, s, t) -> clean s && Option.fold ~none:true ~some:clean t) results in
  (match out with
  | None -> ()
  | Some file ->
      let stat (m, unit) vs =
        ( m,
          json_obj
            [
              ("unit", json_string unit);
              ("median", json_float (median vs));
              ("min", json_float (List.fold_left Float.min infinity vs));
              ("max", json_float (List.fold_left Float.max neg_infinity vs));
              ("samples", string_of_int (List.length vs));
            ] )
      in
      let workload (w, s, t) =
        let metrics =
          List.filter_map
            (fun (m, unit) -> match values s.untraced m with [] -> None | vs -> Some (stat (m, unit) vs))
            (Catalogue.end_to_end @ informational)
        in
        let traced =
          match t with
          | None -> []
          | Some t ->
              let per_layer =
                List.filter_map
                  (fun (m, unit) ->
                    Option.map
                      (fun v -> (m, json_obj [ ("value", json_float v); ("unit", json_string unit) ]))
                      (value t m))
                  Catalogue.per_layer
              in
              [
                ( "traced",
                  json_obj
                    [
                      ("trace_overhead", json_float (trace_overhead t));
                      ("problems", "[" ^ String.concat ", " (List.map json_string t.problems) ^ "]");
                      ("per_layer", json_obj per_layer);
                    ] );
              ]
        in
        ( w,
          json_obj
            ([
               ("attempted", string_of_int s.attempted);
               ("failed", string_of_int s.failed);
               ("problems", "[" ^ String.concat ", " (List.map json_string s.problems) ^ "]");
               ("metrics", json_obj metrics);
             ]
            @ traced) )
      in
      Out_channel.with_open_bin file (fun oc ->
          output_string oc
            (json_obj
               [
                 ("schema", json_string "dcs-bench-e2e/1");
                 ("seed", Int64.to_string seed);
                 ("cores", string_of_int cores);
                 ("repetitions", string_of_int reps);
                 ("workloads", json_obj (List.map workload results));
               ]);
          output_char oc '\n'));
  if not ok then exit 1

(* {1 Smoke mode} *)

(* Every ["name": "..."] value in a JSON text. *)
let manifest_names text =
  let key = "\"name\"" in
  let n = String.length text and kl = String.length key in
  let rec scan i acc =
    match String.index_from_opt text i '"' with
    | None -> List.rev acc
    | Some j when j + kl <= n && String.sub text j kl = key -> (
        let k = ref (j + kl) in
        while !k < n && String.contains " \t\n:" text.[!k] do
          incr k
        done;
        match String.index_from_opt text (!k + 1) '"' with
        | Some e when text.[!k] = '"' -> scan (e + 1) (String.sub text (!k + 1) (e - !k - 1) :: acc)
        | _ -> scan !k acc)
    | Some j -> scan (j + 1) acc
  in
  scan 0 []

let smoke ~manifest =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  Option.iter
    (fun file ->
      let declared = List.sort compare (manifest_names (In_channel.with_open_bin file In_channel.input_all)) in
      let ours =
        List.sort compare
          (Catalogue.workloads @ List.map fst Catalogue.end_to_end @ List.map fst Catalogue.per_layer)
      in
      if declared <> ours then fail "%s does not declare exactly the benchmark's workloads and metrics" file)
    manifest;
  List.iter
    (fun w ->
      let rep traced = spawn ~scale:0.02 w ~traced ~seed:42L ~limit:60 in
      let u = rep false in
      let s = summarize ~untraced:[ u ] ~traced:[ rep true ] in
      List.iter (fail "%s: %s" w) s.problems;
      if s.failed > 0 then fail "%s: %d of %d requests failed" w s.failed s.attempted;
      List.iter (fun (m, _) -> if value s m = None then fail "%s: %s not measured" w m) Catalogue.end_to_end;
      Printf.printf "%s: %d requests, %d failed, %d problem(s)\n%!" w s.attempted s.failed
        (List.length s.problems))
    Catalogue.workloads;
  match List.rev !failures with
  | [] -> print_endline "bench-e2e smoke: ok"
  | fs ->
      List.iter prerr_endline fs;
      exit 1

(* {1 Command line} *)

let () =
  let workload = ref "" and seed = ref 42L and seconds = ref 10 and trace = ref 0 in
  let traced = ref false and out = ref None in
  let smoke_mode = ref false and manifest = ref None in
  let child = ref "" and limit = ref 0 and scale = ref 1.0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W  run one workload (contract mode)");
      ("--seed", Arg.String (fun s -> seed := Int64.of_string s), "N  workload seed (default 42)");
      ("--seconds", Arg.Set_int seconds, "S  how long contract mode measures (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  contract mode: end-to-end (0) or per-layer (1) metrics");
      ("--traced", Arg.Set traced, " report mode: add a traced pass per workload (with --child: trace it)");
      ("-o", Arg.String (fun f -> out := Some f), "FILE  report mode: write the JSON report here");
      ("--smoke", Arg.Set smoke_mode, " every workload at 1/50 scale, correctness checks only");
      ("--manifest", Arg.String (fun f -> manifest := Some f), "FILE  smoke: check BENCHMARK.json agrees");
      ("--child", Arg.Set_string child, "W  (internal) run one repetition and print it");
      ("--limit", Arg.Set_int limit, "S  (internal) kill the repetition after S seconds");
      ("--scale", Arg.Set_float scale, "F  (internal) workload size factor (default 1)");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "e2e.exe [options]";
  let known w =
    if not (List.mem w Catalogue.workloads) then begin
      Printf.eprintf "unknown workload %s (one of %s)\n" w (String.concat ", " Catalogue.workloads);
      exit 2
    end
  in
  if !child <> "" then begin
    known !child;
    if !limit > 0 then ignore (Unix.alarm !limit);
    print_rep (repetition !child ~traced:!traced ~seed:!seed ~scale:!scale)
  end
  else if !smoke_mode then smoke ~manifest:!manifest
  else if !workload <> "" then begin
    known !workload;
    contract ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  end
  else report ~seed:!seed ~traced:!traced ~out:!out
