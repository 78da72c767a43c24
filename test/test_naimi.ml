(* Unit tests for the Naimi–Trehel–Arnold baseline. *)

module N = Dcs_naimi.Naimi
module SN = Testkit.Sync_naimi

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let test_root_enters_immediately () =
  let c = SN.create 3 in
  SN.request c 0;
  checkb "root in CS without messages" true (N.in_cs (SN.node c 0));
  checki "no messages" 0 c.SN.sent;
  N.release (SN.node c 0);
  checkb "left CS" false (N.in_cs (SN.node c 0))

let test_token_travels () =
  let c = SN.create 3 in
  SN.request c 1;
  SN.settle c;
  checkb "n1 in CS" true (N.in_cs (SN.node c 1));
  checkb "n1 has token" true (N.has_token (SN.node c 1));
  checkb "n0 lost token" false (N.has_token (SN.node c 0));
  (* Path reversal: n0 now points at n1. *)
  Alcotest.check Alcotest.(option int) "n0 father reversed" (Some 1) (N.father (SN.node c 0));
  N.release (SN.node c 1)

let test_fifo_queue () =
  let c = SN.create 4 in
  SN.request c 1;
  SN.settle c;
  (* n2 and n3 queue behind n1 in request order. *)
  SN.request c 2;
  SN.settle c;
  SN.request c 3;
  SN.settle c;
  Alcotest.check Alcotest.(list int) "only n1 in CS" [ 1 ] (SN.in_cs c);
  N.release (SN.node c 1);
  SN.settle c;
  Alcotest.check Alcotest.(list int) "then n2" [ 2 ] (SN.in_cs c);
  N.release (SN.node c 2);
  SN.settle c;
  Alcotest.check Alcotest.(list int) "then n3" [ 3 ] (SN.in_cs c);
  N.release (SN.node c 3);
  Alcotest.check Alcotest.(list int) "acquisition order" [ 1; 2; 3 ] c.SN.acquired

let test_reentrancy_rejected () =
  let c = SN.create 2 in
  SN.request c 0;
  checkb "double request raises" true
    (try
       SN.request c 0;
       false
     with Invalid_argument _ -> true);
  N.release (SN.node c 0);
  checkb "release when idle raises" true
    (try
       N.release (SN.node c 0);
       false
     with Invalid_argument _ -> true)

let test_mutual_exclusion_stress () =
  let nodes = 8 in
  let c = SN.create nodes in
  let rng = Dcs_sim.Rng.create ~seed:77L in
  let requesting = Array.make nodes false in
  let completed = ref 0 in
  for _ = 1 to 600 do
    let n = Dcs_sim.Rng.int rng ~bound:nodes in
    let e = SN.node c n in
    if N.in_cs e then begin
      N.release e;
      requesting.(n) <- false;
      incr completed
    end
    else if not (requesting.(n) || N.in_cs e) then begin
      SN.request c n;
      requesting.(n) <- true
    end;
    SN.settle c;
    if List.length (SN.in_cs c) > 1 then Alcotest.fail "mutual exclusion violated"
  done;
  (* Drain all remaining holders/waiters. *)
  let rec drain guard =
    if guard > 10_000 then Alcotest.fail "drain did not converge";
    match SN.in_cs c with
    | [] -> ()
    | holders ->
        List.iter (fun n -> N.release (SN.node c n); requesting.(n) <- false) holders;
        SN.settle c;
        drain (guard + 1)
  in
  drain 0;
  checkb "work happened" true (!completed > 40)

let test_message_complexity_reasonable () =
  (* Sequential round-robin: amortized messages per CS must stay small
     (path reversal keeps chains short). *)
  let nodes = 32 in
  let c = SN.create nodes in
  let total_cs = 200 in
  let rng = Dcs_sim.Rng.create ~seed:5L in
  for _ = 1 to total_cs do
    let n = Dcs_sim.Rng.int rng ~bound:nodes in
    let e = SN.node c n in
    if not (N.in_cs e) then begin
      SN.request c n;
      SN.settle c;
      N.release e;
      SN.settle c
    end
  done;
  let per_cs = float_of_int c.SN.sent /. float_of_int total_cs in
  checkb (Printf.sprintf "%.2f msgs/cs < 6" per_cs) true (per_cs < 6.0)

(* {1 Client continuations} *)

(* The root holding an idle token acquires inside [request], as its last
   step: the continuation runs once, before [request] returns. *)
let test_root_continuation_runs_once () =
  let c = SN.create 3 in
  let runs = ref 0 in
  N.request (SN.node c 0) ~on_acquired:(fun () -> incr runs);
  checki "ran inside request" 1 !runs;
  checki "no messages" 0 c.SN.sent;
  N.release (SN.node c 0);
  SN.settle c;
  checki "never again" 1 !runs

(* A remote acquisition runs the continuation inside the delivery of the
   token. *)
let test_token_delivery_runs_continuation () =
  let c = SN.create 3 in
  let runs = ref 0 in
  N.request (SN.node c 2) ~on_acquired:(fun () -> incr runs);
  checki "not run by request" 0 !runs;
  let rec step () =
    match c.SN.wire with
    | [] -> Alcotest.fail "network drained before the continuation ran"
    | (src, dst, msg) :: rest ->
        c.SN.wire <- rest;
        N.handle_msg (SN.node c dst) ~src msg;
        if !runs = 0 then step () else (dst, msg)
  in
  let dst, msg = step () in
  checki "ran at the requester" 2 dst;
  checkb "inside the delivery of the token" true (msg = N.Token);
  SN.settle c;
  checki "once" 1 !runs

let () =
  Alcotest.run "dcs_naimi"
    [
      ( "naimi",
        [
          Alcotest.test_case "root enters immediately" `Quick test_root_enters_immediately;
          Alcotest.test_case "token travels with reversal" `Quick test_token_travels;
          Alcotest.test_case "fifo queue" `Quick test_fifo_queue;
          Alcotest.test_case "reentrancy rejected" `Quick test_reentrancy_rejected;
          Alcotest.test_case "mutual exclusion stress" `Slow test_mutual_exclusion_stress;
          Alcotest.test_case "message complexity" `Slow test_message_complexity_reasonable;
        ] );
      ( "continuations",
        [
          Alcotest.test_case "root acquisition runs once" `Quick test_root_continuation_runs_once;
          Alcotest.test_case "token delivery runs it" `Quick test_token_delivery_runs_continuation;
        ] );
    ]
