(* dcs-fuzz: protocol fuzzing against the runtime and trace oracles.

     dcs-fuzz run     --seeds N ...      fuzz N seed-deterministic schedules
     dcs-fuzz replay  FILE...            replay corpus files, check expectations
     dcs-fuzz shrink  --seed S ...       minimize a failing case to a repro file

   Each case is a generated workload script driven through the simulated
   cluster under perturbed delivery orders (and optionally a fault plan or a
   seeded protocol mutation), with per-step safety oracles on and the
   observable grant/upgrade/release trace checked by
   Dcs_check.Oracle.conformance afterwards. [shrink] delta-debugs a failing case and writes a replayable
   corpus file. *)

open Cmdliner
module Fuzz = Dcs_check.Fuzz
module Script = Dcs_workload.Script
module Shrink = Dcs_check.Shrink
module Corpus = Dcs_check.Corpus

let mutation_conv =
  Arg.conv
    ( (fun s ->
        match Fuzz.mutation_of_string s with
        | Some m -> Ok m
        | None -> Error (`Msg (Printf.sprintf "unknown mutation %S (weak-freeze|ignore-frozen)" s))),
      fun ppf m -> Format.pp_print_string ppf (Fuzz.mutation_to_string m) )

let plan_arg =
  Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"PLAN"
         ~doc:(Printf.sprintf "Fault plan, one of %s."
                 (String.concat ", " Dcs_fault.Plan.names)))

let mutation_arg =
  Arg.(value & opt (some mutation_conv) None & info [ "mutation" ] ~docv:"MUT"
         ~doc:"Seeded protocol mutation (weak-freeze or ignore-frozen), for \
               checking that the checker still catches planted bugs.")

let nodes_arg = Arg.(value & opt int 32 & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size.")
let locks_arg = Arg.(value & opt int 1 & info [ "locks" ] ~docv:"L" ~doc:"Lock count.")
let ops_arg = Arg.(value & opt int 120 & info [ "ops" ] ~docv:"OPS" ~doc:"Operations per case.")

let zipf_arg =
  Arg.(value & opt float 0.0 & info [ "zipf" ] ~docv:"THETA"
         ~doc:"Zipfian lock-choice skew in [0,1): 0 is uniform; 0.99 (the YCSB default) \
               concentrates conflict on a few hot locks.")

let check_zipf zipf =
  if zipf < 0.0 || zipf >= 1.0 then begin
    Printf.eprintf "dcs-fuzz: --zipf must be in [0, 1)\n";
    exit 2
  end

let check_plan plan =
  match plan with
  | Some p when not (List.mem p Dcs_fault.Plan.names) ->
      Printf.eprintf "dcs-fuzz: unknown plan %S (have: %s)\n" p
        (String.concat ", " Dcs_fault.Plan.names);
      exit 2
  | _ -> ()

(* {1 run} *)

let run_cmd =
  let seeds_arg =
    Arg.(value & opt int 500 & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeds to fuzz.")
  in
  let seed0_arg =
    Arg.(value & opt int64 0L & info [ "seed0" ] ~docv:"S" ~doc:"First seed (inclusive).")
  in
  let max_fails_arg =
    Arg.(value & opt int 5 & info [ "max-fails" ] ~docv:"K"
           ~doc:"Stop after K failing cases (0 = never stop early).")
  in
  let verbose_flag =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print a line per case, not just failures.")
  in
  let run seeds seed0 nodes locks ops zipf plan mutation max_fails verbose =
    check_plan plan;
    check_zipf zipf;
    let fails = ref 0 and run_count = ref 0 and max_hops = ref 0 and sweeps = ref 0 in
    let classes = ref [] in
    let t0 = Unix.gettimeofday () in
    (try
       for i = 0 to seeds - 1 do
         let seed = Int64.add seed0 (Int64.of_int i) in
         let case = Fuzz.case ?plan ?mutation ~zipf ~seed ~nodes ~locks ~ops () in
         let v = Fuzz.run case in
         incr run_count;
         max_hops := max !max_hops v.Fuzz.max_hops;
         sweeps := !sweeps + v.Fuzz.sweep_restarts;
         match Fuzz.failure_class v with
         | Some c ->
           incr fails;
           classes := c :: !classes;
           Format.printf "%a@." Fuzz.pp_verdict v;
           if max_fails > 0 && !fails >= max_fails then raise Exit
         | None -> if verbose then Format.printf "%a@." Fuzz.pp_verdict v
       done
     with Exit -> ());
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf "fuzzed %d case(s) in %.1f s: %d failing (%s); max relay hops %d, %d sweep restarts\n"
      !run_count dt !fails
      (String.concat ", "
         (List.map
            (fun c ->
              Printf.sprintf "%s %d" (Fuzz.failure_class_name c)
                (List.length (List.filter (( = ) c) !classes)))
            Fuzz.failure_classes))
      !max_hops !sweeps;
    if !fails > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Fuzz seed-deterministic schedules through the distributed protocol, checking \
             safety invariants on every step and oracle conformance on the trace.")
    Term.(const run $ seeds_arg $ seed0_arg $ nodes_arg $ locks_arg $ ops_arg $ zipf_arg
          $ plan_arg $ mutation_arg $ max_fails_arg $ verbose_flag)

(* {1 replay} *)

let replay_cmd =
  let files_arg =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE" ~doc:"Corpus files to replay.")
  in
  let replay files =
    let bad = ref 0 in
    List.iter
      (fun path ->
        match Corpus.read ~path with
        | Error msg ->
            incr bad;
            Printf.printf "%-40s ERROR %s\n%!" path msg
        | Ok entry -> (
            match Corpus.check entry with
            | Ok v ->
                Printf.printf "%-40s ok (%s, %d ops, digest %016Lx)\n%!" path
                  (match entry.Corpus.expect with Corpus.Pass -> "pass" | Corpus.Fail -> "fail")
                  (List.length entry.Corpus.case.Fuzz.script.Script.ops)
                  v.Fuzz.digest
            | Error (msg, v) ->
                incr bad;
                Printf.printf "%-40s MISMATCH %s\n%!" path msg;
                Format.printf "%a@." Fuzz.pp_verdict v))
      files;
    if !bad > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Replay corpus files and verify each case still produces its recorded verdict.")
    Term.(const replay $ files_arg)

(* {1 shrink} *)

let shrink_cmd =
  let seed_arg =
    Arg.(value & opt int64 0L & info [ "seed" ] ~docv:"S" ~doc:"Seed of the failing case.")
  in
  let from_arg =
    Arg.(value & opt (some string) None & info [ "from" ] ~docv:"FILE"
           ~doc:"Shrink the case in an existing corpus file instead of a generated one.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the minimized repro here (default: print to stdout).")
  in
  let budget_arg =
    Arg.(value & opt int Shrink.default_budget & info [ "budget" ] ~docv:"RUNS"
           ~doc:"Max fuzz runs spent shrinking.")
  in
  let shrink seed nodes locks ops zipf plan mutation from out budget =
    check_plan plan;
    check_zipf zipf;
    let case =
      match from with
      | Some path -> (
          match Corpus.read ~path with
          | Ok e -> e.Corpus.case
          | Error msg ->
              Printf.eprintf "dcs-fuzz: %s: %s\n" path msg;
              exit 2)
      | None -> Fuzz.case ?plan ?mutation ~zipf ~seed ~nodes ~locks ~ops ()
    in
    let v = Fuzz.run case in
    if not (Fuzz.failed v) then begin
      Printf.eprintf "dcs-fuzz: case passes; nothing to shrink\n";
      Format.eprintf "%a@." Fuzz.pp_verdict v;
      exit 2
    end;
    Printf.printf "shrinking %d ops (budget %d runs)...\n%!"
      (List.length case.Fuzz.script.Script.ops) budget;
    let small = Shrink.shrink ~budget ~log:(Printf.printf "  %s\n%!") case in
    let v' = Fuzz.run small in
    Format.printf "minimized to %d op(s):@.%a@." (List.length small.Fuzz.script.Script.ops)
      Fuzz.pp_verdict v';
    let entry = { Corpus.case = small; expect = Corpus.Fail } in
    match out with
    | Some path ->
        Corpus.write ~path entry;
        Printf.printf "wrote %s\n" path
    | None -> print_string (Corpus.to_string entry)
  in
  Cmd.v
    (Cmd.info "shrink"
       ~doc:"Delta-debug a failing case down to a minimal replayable repro.")
    Term.(const shrink $ seed_arg $ nodes_arg $ locks_arg $ ops_arg $ zipf_arg $ plan_arg
          $ mutation_arg $ from_arg $ out_arg $ budget_arg)

let () =
  let doc = "Protocol fuzzer with runtime safety and trace-conformance oracles." in
  let info = Cmd.info "dcs-fuzz" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ run_cmd; replay_cmd; shrink_cmd ]))
