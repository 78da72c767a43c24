(* Exhaustive small-configuration model checking: every message
   interleaving of these scenarios must be safe and live. The scenarios are
   chosen around the historical bug classes (crossing requests, mutual
   absorption, upgrade deadlock, writer vs readers). *)

module M = Dcs_check.Mcheck
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
  run_scenario ~name:"upgrade vs reader" ~states:18 ~terminals:2 upgrade_vs_reader

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
  run_scenario ~name:"W freeze vs readers" ~states:99 ~terminals:6
    (script ~nodes:4 [ acquire 1 Mode.R; acquire 2 Mode.W; acquire 3 Mode.R ])

let test_release_suppression () =
  (* Rule 5.2: n1's IR release is subsumed by its retained R (owned mode
     unchanged, no weakening report due); the W from n2 then depends on the
     eventual R release being reported despite the earlier suppression. *)
  run_scenario ~name:"release suppression" ~states:14 ~terminals:2
    (script ~nodes:3 [ acquire 1 Mode.R; acquire 1 Mode.IR; acquire 2 Mode.W ])

let test_same_node_fifo () =
  (* Two identical local requests must be granted in issue order in every
     interleaving (the terminal-state grant-order check). *)
  run_scenario ~name:"same-node FIFO" ~states:14 ~terminals:2
    (script ~nodes:3 [ acquire 1 Mode.R; acquire 1 Mode.R; acquire 2 Mode.W ])

let test_three_writers_deep () =
  run_scenario ~max_states:30_000 ~name:"three crossing writers (bounded)" ~states:227
    ~terminals:20
    (script ~nodes:4 [ acquire 1 Mode.W; acquire 2 Mode.W; acquire 3 Mode.W ])

let test_mixed_deep () =
  run_scenario ~max_states:30_000 ~name:"IW, upgrade, R (bounded)" ~states:102 ~terminals:6
    (script ~nodes:4 [ acquire 1 Mode.IW; upgrade 2; acquire 3 Mode.R ])

(* {1 Exhaustive small scope}

   Every 3-node, one-lock, priority-0 script of 2 and 3 ops over the 18 op
   atoms (each node x IR, R, U, IW, W, upgrade-U). The failing set is
   pinned exactly, so a fix or a new failure shows as a diff; none
   fails. *)

let atoms =
  List.concat_map
    (fun node ->
      [ acquire node Mode.IR; acquire node Mode.R; acquire node Mode.U; acquire node Mode.IW;
        acquire node Mode.W; upgrade node ])
    [ 0; 1; 2 ]

let atom_name (node, mode, kind) =
  Printf.sprintf "n%d:%s%s" node (Mode.to_string mode)
    (match kind with Script.Acquire_upgrade -> "^" | Script.Acquire -> "")

let small_scope_failures : string list = []

let test_small_scope_sweep () =
  let pairs = List.concat_map (fun a -> List.map (fun b -> [ a; b ]) atoms) atoms in
  let scripts = pairs @ List.concat_map (fun p -> List.map (fun c -> p @ [ c ]) atoms) pairs in
  let states = ref 0 and failing = ref [] and grant_order = ref true in
  List.iter
    (fun ops ->
      let r = M.explore (script ~nodes:3 ops) in
      checkb "explored fully" false r.M.truncated;
      states := !states + r.M.states;
      if r.M.violations <> [] then begin
        failing := String.concat " " (List.map atom_name ops) :: !failing;
        grant_order :=
          !grant_order
          && List.for_all (fun v -> String.starts_with ~prefix:"grant order" v) r.M.violations
      end)
    scripts;
  checki "scripts" 6156 (List.length scripts);
  checki "states" 69432 !states;
  Alcotest.check (Alcotest.list Alcotest.string) "failing scripts" small_scope_failures
    (List.rev !failing);
  checkb "every failure is a grant-order break" true !grant_order

(* {1 The violation path}

   Under the planted weak-freeze bug, n1's R waits behind two IW holders
   that never yield it the lock: a terminal state with a request that was
   never granted. *)

let test_reports_never_granted () =
  let r =
    M.explore
      ~config:{ Dcs_hlock.Node.default_config with mutation = Some Dcs_hlock.Node.Weak_freeze }
      (script ~nodes:3 [ acquire 0 Mode.IW; acquire 1 Mode.R; acquire 2 Mode.IW ])
  in
  let has sub v =
    let n = String.length sub in
    let rec go i = i + n <= String.length v && (String.sub v i n = sub || go (i + 1)) in
    go 0
  in
  checkb "a violation names a never-granted request" true
    (List.exists (has "node 1 seq 0: never granted") r.M.violations)

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
          Alcotest.test_case "every 2-3 op script on 3 nodes" `Slow test_small_scope_sweep;
          Alcotest.test_case "weak-freeze reports never granted" `Quick
            test_reports_never_granted;
        ] );
      ( "scripts",
        [
          Alcotest.test_case "invalid scripts rejected" `Quick test_rejects_invalid_scripts;
          Alcotest.test_case "scenario replays as fuzz case" `Quick
            test_scenario_replays_as_fuzz_case;
        ] );
    ]
