(* Exhaustive small-configuration model checking: every message
   interleaving of these scenarios must be safe and live. The scenarios are
   chosen around the historical bug classes (crossing requests, mutual
   absorption, upgrade deadlock, writer vs readers). *)

module M = Dcs_mcheck.Mcheck
module Script = Dcs_workload.Script
module Fuzz = Dcs_check.Fuzz
module Corpus = Dcs_check.Corpus
open Dcs_modes

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Scenarios are ordinary client scripts. Ops are spaced 10 ms apart with
   10 ms holds so the same script replays under the fuzzer; the checker
   ignores both times. *)
let script ~nodes ops =
  {
    Script.nodes;
    locks = 1;
    ops =
      List.mapi
        (fun i (node, mode, kind) ->
          let at = 10.0 *. float_of_int i in
          { Script.at; node; lock = 0; mode; priority = 0; hold = 10.0; kind })
        ops;
  }

let acquire node mode = (node, mode, Script.Acquire)
let upgrade node = (node, Mode.U, Script.Acquire_upgrade)

(* [states]/[terminals] pin the explored graph: a change to how scripts
   are issued or clients react to grants moves them. *)
let run_scenario ?config ?max_states ~name ~states ~terminals s =
  let r = M.explore ?config ?max_states s in
  Alcotest.check (Alcotest.list Alcotest.string) (name ^ ": no violations") [] r.M.violations;
  checkb (name ^ ": explored fully") false r.M.truncated;
  checki (name ^ ": states") states r.M.states;
  checki (name ^ ": terminals") terminals r.M.terminals

let test_two_writers () =
  run_scenario ~name:"two writers" ~states:3 ~terminals:1
    (script ~nodes:2 [ acquire 0 Mode.W; acquire 1 Mode.W ])

let test_crossing_writers () =
  run_scenario ~name:"crossing writers (3 nodes)" ~states:13 ~terminals:2
    (script ~nodes:3 [ acquire 1 Mode.W; acquire 2 Mode.W ])

let test_mutual_iw () =
  (* The mutual-absorption deadlock class. *)
  run_scenario ~name:"crossing IW" ~states:13 ~terminals:2
    (script ~nodes:3 [ acquire 1 Mode.IW; acquire 2 Mode.IW ])

let test_readers_and_writer () =
  run_scenario ~name:"reader reader writer" ~states:13 ~terminals:2
    (script ~nodes:3 [ acquire 1 Mode.R; acquire 2 Mode.R; acquire 0 Mode.W ])

let test_intents_and_read () =
  run_scenario ~name:"IR IW R" ~states:13 ~terminals:2
    (script ~nodes:3 [ acquire 1 Mode.IR; acquire 2 Mode.IW; acquire 0 Mode.R ])

(* The upgrade-deadlock class (Rule 7 vs queued requests). *)
let upgrade_vs_reader = script ~nodes:3 [ upgrade 1; acquire 2 Mode.IR ]

let test_upgrade_vs_readers () =
  run_scenario ~name:"upgrade vs reader" ~states:15 ~terminals:2 upgrade_vs_reader

let test_two_upgrades () =
  run_scenario ~name:"two upgrades" ~states:13 ~terminals:2
    (script ~nodes:3 [ upgrade 1; upgrade 2 ])

let test_no_caching_config () =
  run_scenario
    ~config:{ Dcs_hlock.Node.default_config with Dcs_hlock.Node.caching = false }
    ~name:"no caching, crossing writers" ~states:13 ~terminals:2
    (script ~nodes:3 [ acquire 1 Mode.W; acquire 2 Mode.W ])

let test_u_and_w () =
  run_scenario ~name:"U vs W" ~states:13 ~terminals:2
    (script ~nodes:3 [ acquire 1 Mode.U; acquire 2 Mode.W ])

let test_w_freeze () =
  (* Rule 6 / Table 2(b): a W request must freeze R everywhere before it is
     served; the trailing R exercises both the freeze propagation and the
     un-freeze on release in every interleaving. *)
  run_scenario ~name:"W freeze vs readers" ~states:273 ~terminals:20
    (script ~nodes:4 [ acquire 1 Mode.R; acquire 2 Mode.W; acquire 3 Mode.R ])

let test_release_suppression () =
  (* Rule 5.2: n1's IR release is subsumed by its retained R (owned mode
     unchanged, no weakening report due); the W from n2 then depends on the
     eventual R release being reported despite the earlier suppression. *)
  run_scenario ~name:"release suppression" ~states:13 ~terminals:2
    (script ~nodes:3 [ acquire 1 Mode.R; acquire 1 Mode.IR; acquire 2 Mode.W ])

let test_same_node_fifo () =
  (* Two identical local requests must be granted in issue order in every
     interleaving (the terminal-state grant-order check). *)
  run_scenario ~name:"same-node FIFO" ~states:13 ~terminals:2
    (script ~nodes:3 [ acquire 1 Mode.R; acquire 1 Mode.R; acquire 2 Mode.W ])

let test_three_writers_deep () =
  run_scenario ~max_states:30_000 ~name:"three crossing writers (bounded)" ~states:227
    ~terminals:20
    (script ~nodes:4 [ acquire 1 Mode.W; acquire 2 Mode.W; acquire 3 Mode.W ])

let test_mixed_deep () =
  run_scenario ~max_states:30_000 ~name:"IW, upgrade, R (bounded)" ~states:427 ~terminals:32
    (script ~nodes:4 [ acquire 1 Mode.IW; upgrade 2; acquire 3 Mode.R ])

(* {1 Script validation} *)

let test_rejects_invalid_scripts () =
  let rejected s =
    try
      ignore (M.explore s);
      false
    with Invalid_argument _ -> true
  in
  checkb "node out of range" true (rejected (script ~nodes:2 [ acquire 2 Mode.W ]));
  checkb "two locks" true
    (rejected { (script ~nodes:2 [ acquire 1 Mode.W ]) with Script.locks = 2 })

(* {1 One format across tools}

   A model-checker scenario is a fuzz case's script: round-tripped through
   the corpus format it replays under the randomized-schedule driver. *)

let test_scenario_replays_as_fuzz_case () =
  let case =
    { Fuzz.seed = 5L; script = upgrade_vs_reader; plan = None; mutation = None }
  in
  match Corpus.of_string (Corpus.to_string { Corpus.case; expect = Corpus.Pass }) with
  | Error e -> Alcotest.fail e
  | Ok entry -> (
      checkb "script survives the corpus format" true
        (entry.Corpus.case.Fuzz.script = upgrade_vs_reader);
      match Corpus.check entry with
      | Ok v -> checki "upgrades" 1 v.Fuzz.upgrades
      | Error (msg, _) -> Alcotest.fail msg)

let () =
  Alcotest.run "dcs_mcheck"
    [
      ( "scenarios",
        [
          Alcotest.test_case "two writers" `Quick test_two_writers;
          Alcotest.test_case "crossing writers" `Slow test_crossing_writers;
          Alcotest.test_case "crossing IW" `Slow test_mutual_iw;
          Alcotest.test_case "readers and writer" `Slow test_readers_and_writer;
          Alcotest.test_case "intents and read" `Slow test_intents_and_read;
          Alcotest.test_case "upgrade vs readers" `Slow test_upgrade_vs_readers;
          Alcotest.test_case "two upgrades" `Slow test_two_upgrades;
          Alcotest.test_case "no caching" `Slow test_no_caching_config;
          Alcotest.test_case "U vs W" `Slow test_u_and_w;
          Alcotest.test_case "W freeze vs readers" `Slow test_w_freeze;
          Alcotest.test_case "release suppression" `Slow test_release_suppression;
          Alcotest.test_case "same-node FIFO" `Slow test_same_node_fifo;
          Alcotest.test_case "three writers (bounded)" `Slow test_three_writers_deep;
          Alcotest.test_case "mixed deep (bounded)" `Slow test_mixed_deep;
        ] );
      ( "scripts",
        [
          Alcotest.test_case "invalid scripts rejected" `Quick test_rejects_invalid_scripts;
          Alcotest.test_case "scenario replays as fuzz case" `Quick
            test_scenario_replays_as_fuzz_case;
        ] );
    ]
