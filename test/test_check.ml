(* Fuzzer-infrastructure tests: the trace-conformance checker on
   hand-built event traces, determinism of [Fuzz.run], corpus round-trips,
   and the end-to-end promise that a seeded protocol mutation is caught
   and shrinks to a tiny repro. *)

open Dcs_modes
module Script = Dcs_workload.Script
module Oracle = Dcs_check.Oracle
module Fuzz = Dcs_check.Fuzz
module Corpus = Dcs_check.Corpus
module Shrink = Dcs_check.Shrink
module Event = Dcs_obs.Event

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* {1 Trace conformance} *)

let ev ?(node = 0) ?(req = 0) ?(seq = 0) time kind =
  { Event.time; lock = 0; node; scope = Event.Span { requester = req; seq }; kind }

let span ?(req = 0) ?(seq = 0) ?(t0 = 0.0) mode =
  [
    ev ~req ~seq t0 (Event.Requested { mode; priority = 0 });
    ev ~req ~seq (t0 +. 1.0) (Event.Granted_local { mode; hops = 0 });
    ev ~req ~seq (t0 +. 2.0) (Event.Released { mode });
  ]

let conformance ?require_complete events =
  let events = List.sort (fun a b -> compare a.Event.time b.Event.time) events in
  Oracle.conformance ?require_complete ~events ()

let test_conf_clean_trace () =
  let r = conformance (span ~req:1 Mode.R @ span ~req:2 ~t0:10.0 Mode.W) in
  Alcotest.check (Alcotest.list Alcotest.string) "no violations" [] r.Oracle.violations;
  checki "spans" 2 r.Oracle.spans;
  checki "grants" 2 r.Oracle.grants;
  checki "releases" 2 r.Oracle.releases

let test_conf_incompatible_grants () =
  (* Two W grants open at once: the hard safety violation. *)
  let r =
    conformance
      [
        ev ~req:1 0.0 (Event.Requested { mode = Mode.W; priority = 0 });
        ev ~req:2 0.5 (Event.Requested { mode = Mode.W; priority = 0 });
        ev ~req:1 1.0 (Event.Granted_local { mode = Mode.W; hops = 0 });
        ev ~req:2 1.5 (Event.Granted_token { mode = Mode.W; hops = 1 });
        ev ~req:1 2.0 (Event.Released { mode = Mode.W });
        ev ~req:2 2.5 (Event.Released { mode = Mode.W });
      ]
  in
  checkb "incompatible grants rejected" false (r.Oracle.violations = [])

let test_conf_unrequested_grant () =
  let r =
    conformance
      [
        ev ~req:1 0.0 (Event.Granted_local { mode = Mode.R; hops = 0 });
        ev ~req:1 1.0 (Event.Released { mode = Mode.R });
      ]
  in
  checkb "grant without request rejected" false (r.Oracle.violations = [])

let test_conf_upgrade_atomicity () =
  (* An Upgraded firing while another span still holds a grant breaks
     Rule 7's exclusivity. *)
  let r =
    conformance
      [
        ev ~req:1 0.0 (Event.Requested { mode = Mode.U; priority = 0 });
        ev ~req:1 1.0 (Event.Granted_local { mode = Mode.U; hops = 0 });
        ev ~req:2 2.0 (Event.Requested { mode = Mode.R; priority = 0 });
        ev ~req:2 3.0 (Event.Granted_local { mode = Mode.R; hops = 0 });
        ev ~req:1 4.0 (Event.Requested { mode = Mode.W; priority = 0 });
        ev ~req:1 5.0 Event.Upgraded;
        ev ~req:2 6.0 (Event.Released { mode = Mode.R });
        ev ~req:1 7.0 (Event.Released { mode = Mode.W });
      ]
  in
  checkb "non-exclusive upgrade rejected" false (r.Oracle.violations = [])

let test_conf_liveness_toggle () =
  let events = [ ev ~req:1 0.0 (Event.Requested { mode = Mode.R; priority = 0 }) ] in
  let strict = conformance events in
  checki "ungranted counted" 1 strict.Oracle.ungranted;
  checkb "strict flags it" false (strict.Oracle.violations = []);
  let lax = conformance ~require_complete:false events in
  Alcotest.check (Alcotest.list Alcotest.string) "lax accepts prefix traces" []
    lax.Oracle.violations

(* {1 Fuzz driver} *)

let test_script_deterministic () =
  let a = Script.generate ~seed:17L ~nodes:8 ~locks:2 ~ops:40 () in
  let b = Script.generate ~seed:17L ~nodes:8 ~locks:2 ~ops:40 () in
  checkb "same seed, same script" true (a = b);
  checkb "valid" true (Result.is_ok (Script.validate a));
  let c = Script.generate ~seed:18L ~nodes:8 ~locks:2 ~ops:40 () in
  checkb "different seed, different script" false (a = c)

(* Golden values: the relative checks around them (same seed, same
   digest) cannot see a drifting RNG draw order or driver call order. *)
let test_script_golden () =
  let s = Script.generate ~seed:17L ~nodes:8 ~locks:2 ~ops:3 () in
  Alcotest.check
    Alcotest.(list string)
    "op lines"
    [
      "op at=20.916 node=2 lock=1 mode=R prio=0 hold=3.802 kind=acquire";
      "op at=21.872 node=2 lock=0 mode=IW prio=0 hold=18.513 kind=acquire";
      "op at=37.672 node=2 lock=1 mode=R prio=0 hold=0.569 kind=acquire";
    ]
    (List.map Script.op_to_line s.Script.ops)

(* Corpus files are hand-edited: a NaN or infinite time must not pass
   validation (a NaN [at] would also switch off the sort check for every
   later op). *)
let test_script_rejects_non_finite () =
  let script lines =
    let op l = match Script.op_of_line l with Ok o -> o | Error e -> Alcotest.fail e in
    { Script.nodes = 2; locks = 1; ops = List.map op lines }
  in
  let later = "op at=5.000 node=1 lock=0 mode=R prio=0 hold=1.000 kind=acquire" in
  List.iter
    (fun first ->
      checkb first true (Result.is_error (Script.validate (script [ first; later ]))))
    [
      "op at=nan node=0 lock=0 mode=W prio=0 hold=inf kind=acquire";
      "op at=nan node=0 lock=0 mode=W prio=0 hold=1.000 kind=acquire";
      "op at=1.000 node=0 lock=0 mode=W prio=0 hold=inf kind=acquire";
      "op at=1.000 node=0 lock=0 mode=W prio=0 hold=nan kind=acquire";
      "op at=-1.000 node=0 lock=0 mode=W prio=0 hold=1.000 kind=acquire";
    ];
  checkb "finite script valid" true
    (Result.is_ok
       (Script.validate
          (script [ "op at=1.000 node=0 lock=0 mode=W prio=0 hold=0.000 kind=acquire"; later ])))

let test_fuzz_golden () =
  let v = Fuzz.run (Fuzz.case ~seed:11L ~nodes:8 ~locks:1 ~ops:40 ()) in
  checkb "passes" false (Fuzz.failed v);
  Alcotest.check Alcotest.string "digest" "a17ad24eb446cf04"
    (Printf.sprintf "%016Lx" v.Fuzz.digest);
  checki "messages" 104 v.Fuzz.messages;
  checki "grants" 40 v.Fuzz.grants;
  checki "upgrades" 3 v.Fuzz.upgrades;
  checki "releases" 40 v.Fuzz.releases;
  checki "engine events" 189 v.Fuzz.engine_events

(* The run summary's classes, read off the violation wording that
   [Fuzz.run] and [Oracle.conformance] produce: each failing case counts
   once, in its gravest class. *)
let test_failure_classes () =
  let v = Fuzz.run (Fuzz.case ~seed:11L ~nodes:8 ~locks:1 ~ops:40 ()) in
  checkb "a pass has no class" true (Fuzz.failure_class v = None);
  let cls violations = Fuzz.failure_class { v with Fuzz.violations } in
  let expect name c violations =
    checkb name true (cls violations = Some c)
  in
  expect "runtime safety" Fuzz.Safety [ "safety: lock 0: incompatible retained modes n5:R vs n3:IW" ];
  expect "incompatible grants" Fuzz.Safety
    [ "oracle: lock 0: incompatible concurrent grants: node 1 seq 2 W with node 0 seq 1 R" ];
  expect "Rule 7" Fuzz.Safety
    [ "oracle: lock 0 node 2 seq 1: upgrade completed while node 0 seq 4 still holds R (Rule 7 \
       atomicity)" ];
  expect "never granted" Fuzz.Never_granted
    [ "oracle: lock 0 node 1 seq 1: never granted (waiting for R at end of trace)" ];
  expect "stalled" Fuzz.Never_granted
    [ "liveness: 2/3 grants, 0/0 upgrades, 2/3 releases completed by horizon 13695 ms" ];
  expect "event limit" Fuzz.Never_granted [ "engine event limit hit (livelock?)" ];
  expect "overtake" Fuzz.Overtake
    [ "oracle: lock 0 node 17 seq 0: overtaken 101 times by incompatible grants (bound 100) — \
       Rule 6 freezing is not containing newcomers" ];
  expect "quiescence" Fuzz.Other
    [ "quiescence: lock 0: n1 claims accounting parent n0, which has no record" ];
  expect "gravest wins" Fuzz.Never_granted
    [ "oracle: lock 0 node 17 seq 0: overtaken 101 times by incompatible grants (bound 100)";
      "oracle: lock 0 node 1 seq 1: never granted (waiting for R at end of trace)" ];
  let planted =
    Fuzz.run (Fuzz.case ~mutation:Dcs_hlock.Node.Weak_freeze ~seed:8L ~nodes:4 ~locks:1 ~ops:8 ())
  in
  checkb "weak-freeze plant leaves a request waiting" true
    (Fuzz.failure_class planted = Some Fuzz.Never_granted)

let test_fuzz_deterministic () =
  let case = Fuzz.case ~seed:11L ~nodes:8 ~locks:1 ~ops:40 () in
  let v1 = Fuzz.run case and v2 = Fuzz.run case in
  checkb "unmutated protocol passes" false (Fuzz.failed v1);
  checkb "same digest" true (Int64.equal v1.Fuzz.digest v2.Fuzz.digest);
  checkb "same verdict" true (v1.Fuzz.violations = v2.Fuzz.violations);
  checki "same messages" v1.Fuzz.messages v2.Fuzz.messages

let test_fuzz_with_faults () =
  let case = Fuzz.case ~plan:"heal-partition" ~seed:11L ~nodes:8 ~locks:1 ~ops:40 () in
  checkb "clean under fault plan" false (Fuzz.failed (Fuzz.run case))

(* Mutation sensitivity over a fixed sweep (seeds 0-199, 8 nodes, 120
   ops), not one seed: a routing change moves which interleavings a
   single seed draws, while the share of caught plants measures the
   checker. Weak-freeze was caught in 164 of 200 seeds before intention
   relays stopped re-pointing the routing tree and in 157 after. *)
let caught_in_sweep mutation =
  let caught = ref 0 in
  for seed = 0 to 199 do
    let case = Fuzz.case ~mutation ~seed:(Int64.of_int seed) ~nodes:8 ~locks:1 ~ops:120 () in
    if Fuzz.failed (Fuzz.run case) then incr caught
  done;
  !caught

let test_mutation_weak_freeze_caught () =
  let n = caught_in_sweep Dcs_hlock.Node.Weak_freeze in
  checkb (Printf.sprintf "weak-freeze caught in %d of 200 seeds (>= 150)" n) true (n >= 150)

let test_mutation_ignore_frozen_caught () =
  checki "ignore-frozen caught in all 200 seeds" 200
    (caught_in_sweep Dcs_hlock.Node.Ignore_frozen)

let test_shrink_minimizes () =
  let case =
    Fuzz.case ~mutation:Dcs_hlock.Node.Weak_freeze ~seed:8L ~nodes:4 ~locks:1 ~ops:8 ()
  in
  checkb "case fails before shrinking" true (Fuzz.failed (Fuzz.run case));
  let small = Shrink.shrink ~budget:300 case in
  checkb "shrunk case still fails" true (Fuzz.failed (Fuzz.run small));
  let n = List.length small.Fuzz.script.Script.ops in
  checkb (Printf.sprintf "minimal repro has %d ops (<= 5)" n) true (n <= 5);
  checkb "fault plan dropped" true (small.Fuzz.plan = None);
  checki "collapsed to one lock" 1 small.Fuzz.script.Script.locks

(* {1 Corpus round-trip} *)

let test_corpus_roundtrip () =
  let case = Fuzz.case ~plan:"lossy-dup" ~seed:7L ~nodes:6 ~locks:2 ~ops:12 () in
  let entry = { Corpus.case; expect = Corpus.Pass } in
  let s = Corpus.to_string entry in
  (match Corpus.of_string s with
  | Error e -> Alcotest.fail e
  | Ok back ->
      (* Serialization is the identity on its own output (op times are
         already at the format's ms precision after one round-trip). *)
      Alcotest.check Alcotest.string "fixpoint" s (Corpus.to_string back);
      checkb "same shape" true
        (back.Corpus.case.Fuzz.seed = case.Fuzz.seed
        && back.Corpus.case.Fuzz.plan = case.Fuzz.plan
        && List.length back.Corpus.case.Fuzz.script.Script.ops
           = List.length case.Fuzz.script.Script.ops));
  (match Corpus.of_string "dcs-fuzz/9\nexpect pass\nseed 1\nnodes 2\nlocks 1\n" with
  | Ok _ -> Alcotest.fail "unknown corpus version accepted"
  | Error e -> checkb "version named in error" true (String.length e > 0));
  match Corpus.of_string (s ^ "op garbage\n") with
  | Ok _ -> Alcotest.fail "malformed op line accepted"
  | Error _ -> ()

let () =
  Alcotest.run "dcs_check"
    [
      ( "conformance",
        [
          Alcotest.test_case "clean trace" `Quick test_conf_clean_trace;
          Alcotest.test_case "incompatible grants" `Quick test_conf_incompatible_grants;
          Alcotest.test_case "unrequested grant" `Quick test_conf_unrequested_grant;
          Alcotest.test_case "upgrade atomicity" `Quick test_conf_upgrade_atomicity;
          Alcotest.test_case "liveness toggle" `Quick test_conf_liveness_toggle;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "script deterministic" `Quick test_script_deterministic;
          Alcotest.test_case "script golden" `Quick test_script_golden;
          Alcotest.test_case "non-finite times rejected" `Quick test_script_rejects_non_finite;
          Alcotest.test_case "run deterministic" `Quick test_fuzz_deterministic;
          Alcotest.test_case "failure classes" `Quick test_failure_classes;
          Alcotest.test_case "run golden" `Quick test_fuzz_golden;
          Alcotest.test_case "clean under faults" `Quick test_fuzz_with_faults;
          Alcotest.test_case "weak-freeze caught" `Quick test_mutation_weak_freeze_caught;
          Alcotest.test_case "ignore-frozen caught" `Quick test_mutation_ignore_frozen_caught;
          Alcotest.test_case "shrink minimizes" `Slow test_shrink_minimizes;
        ] );
      ("corpus", [ Alcotest.test_case "roundtrip" `Quick test_corpus_roundtrip ]);
    ]
