(* Unit tests for the hierarchical-locking protocol engine, scripted over a
   synchronous FIFO network (Testkit.Sync_cluster). These encode the
   observable behaviours of the paper's rules and figures, plus regression
   tests for every repair documented in DESIGN.md §2. *)

open Dcs_modes
module Node = Dcs_hlock.Node
module Msg = Dcs_hlock.Msg
module SC = Testkit.Sync_cluster

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let no_cache_config = { Node.default_config with Node.caching = false }

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* {1 Basics} *)

let test_token_self_grants () =
  let c = SC.create 1 in
  let s1 = SC.acquire c ~node:0 ~mode:Mode.IR in
  let s2 = SC.acquire c ~node:0 ~mode:Mode.R in
  checki "no messages for local grants" 0 (SC.messages_sent c);
  SC.check_safety c;
  SC.release c ~node:0 ~seq:s1;
  SC.release c ~node:0 ~seq:s2

let test_incompatible_local_queues () =
  let c = SC.create 1 in
  let s1 = SC.acquire c ~node:0 ~mode:Mode.R in
  (* W conflicts with our own R: queued until release. *)
  let s2 = SC.request c ~node:0 ~mode:Mode.W in
  SC.settle c;
  checkb "W not yet granted" false (SC.granted c ~node:0 ~seq:s2);
  SC.release c ~node:0 ~seq:s1;
  SC.settle c;
  checkb "W granted after release" true (SC.granted c ~node:0 ~seq:s2)

let test_remote_grant_and_transfer () =
  let c = SC.create 3 in
  (* IW from node 1: served by token transfer (bottom < IW). *)
  let s1 = SC.acquire c ~node:1 ~mode:Mode.IW in
  checki "token moved to n1" 1 (SC.token_holder c);
  (* IR from node 2 is copy-granted by the new token node. *)
  let _s2 = SC.acquire c ~node:2 ~mode:Mode.IR in
  checki "token stays at n1" 1 (SC.token_holder c);
  SC.check_safety c;
  checkb "n2 is in n1's copyset" true
    (List.mem_assoc 2 (Node.children (SC.node c 1)));
  SC.release c ~node:1 ~seq:s1

(* Reads never take the token (DESIGN.md §2, repair 14): an idle token
   copy-grants a remote R out of its empty owned mode, one request and
   one grant, and records the reader as its child. *)
let test_idle_token_copy_grants_read () =
  let c = SC.create 3 in
  let s = SC.acquire c ~node:1 ~mode:Mode.R in
  checki "token stays at n0" 0 (SC.token_holder c);
  Alcotest.(check (list (pair int Testkit.mode))) "n1 is n0's R child" [ (1, Mode.R) ]
    (Node.children (SC.node c 0));
  checki "one request and one grant" 2 (SC.messages_sent c);
  SC.check_safety c;
  SC.release c ~node:1 ~seq:s

let test_concurrent_readers () =
  let c = SC.create ~config:no_cache_config 5 in
  let seqs = List.init 4 (fun i -> (i + 1, SC.request c ~node:(i + 1) ~mode:Mode.R)) in
  SC.settle c;
  List.iter (fun (node, seq) -> checkb "reader granted" true (SC.granted c ~node ~seq)) seqs;
  (* All four hold R concurrently. *)
  checki "held count" 4
    (List.length (List.concat_map (fun i -> Node.held (SC.node c i)) [ 1; 2; 3; 4 ]));
  SC.check_safety c

let test_writer_excludes_readers () =
  let c = SC.create ~config:no_cache_config 3 in
  let r = SC.acquire c ~node:1 ~mode:Mode.R in
  let w = SC.request c ~node:2 ~mode:Mode.W in
  SC.settle c;
  checkb "W waits" false (SC.granted c ~node:2 ~seq:w);
  SC.check_safety c;
  SC.release c ~node:1 ~seq:r;
  SC.settle c;
  checkb "W granted after reader left" true (SC.granted c ~node:2 ~seq:w);
  checki "writer holds token" 2 (SC.token_holder c)

(* {1 Paper Figure 2: release suppression and local queues} *)

let test_release_suppression_rule_5_2 () =
  (* B holds IR and grants IR to C (C becomes B's child). When B's client
     releases, B still owns IR through C: no release message travels
     (Rule 5.2). B takes the token with a W, holds IR at the token and
     serves C's IR out of it; D's IW then takes the token on, leaving B a
     non-token child of D that still holds IR and records C. *)
  let c = SC.create ~config:no_cache_config 4 in
  let b = 1 and cc = 2 and d = 3 in
  SC.release c ~node:b ~seq:(SC.acquire c ~node:b ~mode:Mode.W);
  SC.settle c;
  let sb = SC.acquire c ~node:b ~mode:Mode.IR in
  let sc_ = SC.acquire c ~node:cc ~mode:Mode.IR in
  checkb "C is B's child" true (List.mem_assoc cc (Node.children (SC.node c b)));
  ignore (SC.acquire c ~node:d ~mode:Mode.IW);
  checki "token moved to D" d (SC.token_holder c);
  checkb "C is still B's child" true (List.mem_assoc cc (Node.children (SC.node c b)));
  checkb "C still holds IR" true (SC.granted c ~node:cc ~seq:sc_);
  let releases_before = SC.sent_of_class c Dcs_proto.Msg_class.Release in
  SC.release c ~node:b ~seq:sb;
  SC.settle c;
  let releases_after = SC.sent_of_class c Dcs_proto.Msg_class.Release in
  checki "no release message (still owns IR via C)" releases_before releases_after;
  Alcotest.check Testkit.mode "B still owns IR" Mode.IR (Option.get (Node.owned (SC.node c b)))

(* {1 Paper Figure 3: freezing prevents starvation} *)

let test_freezing_blocks_compatible_newcomers () =
  let c = SC.create ~config:no_cache_config 4 in
  (* Node 1 takes IW (transfer); node 2 takes IW as its child. *)
  let s1 = SC.acquire c ~node:1 ~mode:Mode.IW in
  let s2 = SC.acquire c ~node:2 ~mode:Mode.IW in
  (* Node 3 asks for R: incompatible with IW, queued at the token; IW is
     frozen (Table 2b row IW/R). *)
  let s3 = SC.request c ~node:3 ~mode:Mode.R in
  SC.settle c;
  checkb "R waits" false (SC.granted c ~node:3 ~seq:s3);
  checkb "IW frozen at token" true (Mode_set.mem Mode.IW (Node.frozen (SC.node c 1)));
  (* A new IW request must now be refused everywhere (frozen), even though
     it is compatible with the current holders. *)
  let s0 = SC.request c ~node:0 ~mode:Mode.IW in
  SC.settle c;
  checkb "new IW does not overtake" false (SC.granted c ~node:0 ~seq:s0);
  (* Releases drain; R is served first (FIFO), then the frozen IW. *)
  SC.release c ~node:1 ~seq:s1;
  SC.release c ~node:2 ~seq:s2;
  SC.settle c;
  checkb "R finally granted" true (SC.granted c ~node:3 ~seq:s3);
  SC.check_safety c;
  SC.release c ~node:3 ~seq:s3;
  SC.settle c;
  checkb "queued IW eventually granted" true (SC.granted c ~node:0 ~seq:s0)

let test_no_freezing_ablation_allows_overtaking () =
  let config = { Node.default_config with Node.freezing = false; caching = false } in
  let c = SC.create ~config 4 in
  let s1 = SC.acquire c ~node:1 ~mode:Mode.IW in
  let s3 = SC.request c ~node:3 ~mode:Mode.R in
  SC.settle c;
  checkb "R waits" false (SC.granted c ~node:3 ~seq:s3);
  (* Without Rule 6, a compatible IW newcomer overtakes the queued R. *)
  let s0 = SC.request c ~node:0 ~mode:Mode.IW in
  SC.settle c;
  checkb "IW overtakes (unfair!)" true (SC.granted c ~node:0 ~seq:s0);
  SC.release c ~node:1 ~seq:s1;
  SC.release c ~node:0 ~seq:s0;
  SC.settle c;
  checkb "R eventually served" true (SC.granted c ~node:3 ~seq:s3)

(* {1 Rule 7: upgrades} *)

let test_upgrade_immediate_when_alone () =
  let c = SC.create 2 in
  let s = SC.acquire c ~node:1 ~mode:Mode.U in
  checki "U holder is token" 1 (SC.token_holder c);
  SC.upgrade c ~node:1 ~seq:s;
  SC.settle c;
  checkb "upgrade completed" true (SC.upgraded c ~node:1 ~seq:s);
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Testkit.mode))
    "now holds W"
    [ (s, Mode.W) ]
    (Node.held (SC.node c 1))

let test_upgrade_waits_for_readers () =
  let c = SC.create ~config:no_cache_config 3 in
  let u = SC.acquire c ~node:1 ~mode:Mode.U in
  let r = SC.acquire c ~node:2 ~mode:Mode.IR in
  SC.upgrade c ~node:1 ~seq:u;
  SC.settle c;
  checkb "upgrade blocked by IR holder" false (SC.upgraded c ~node:1 ~seq:u);
  SC.check_safety c;
  SC.release c ~node:2 ~seq:r;
  SC.settle c;
  checkb "upgrade completes after release" true (SC.upgraded c ~node:1 ~seq:u)

(* Regression (DESIGN.md repair 4): an upgrade must outrank queued U/W
   requests or the system deadlocks. *)
let test_upgrade_outranks_queued_requests () =
  let c = SC.create ~config:no_cache_config 3 in
  let u = SC.acquire c ~node:1 ~mode:Mode.U in
  (* Another U queues at the token (U/U conflict). *)
  let u2 = SC.request c ~node:2 ~mode:Mode.U in
  SC.settle c;
  checkb "second U waits" false (SC.granted c ~node:2 ~seq:u2);
  (* Now upgrade: must not deadlock behind the queued U. *)
  SC.upgrade c ~node:1 ~seq:u;
  SC.settle c;
  checkb "upgrade wins" true (SC.upgraded c ~node:1 ~seq:u);
  SC.release c ~node:1 ~seq:u;
  SC.settle c;
  checkb "queued U served after" true (SC.granted c ~node:2 ~seq:u2)

let test_upgrade_invalid_args () =
  let c = SC.create 2 in
  let r = SC.acquire c ~node:0 ~mode:Mode.R in
  checkb "upgrade of R raises" true
    (try
       SC.upgrade c ~node:0 ~seq:r;
       false
     with Invalid_argument _ -> true);
  checkb "upgrade of unheld raises" true
    (try
       SC.upgrade c ~node:0 ~seq:999;
       false
     with Invalid_argument _ -> true)

(* {1 Caching (DESIGN.md repair 1)} *)

let test_cached_reacquisition_is_free () =
  let c = SC.create 3 in
  (* Anchor the token at node 1 with a U hold (a transfer), then give node
     2 an R copy grant out of it so it is a plain (non-token) child. *)
  let anchor = SC.acquire c ~node:1 ~mode:Mode.U in
  let s = SC.acquire c ~node:2 ~mode:Mode.R in
  checki "token stays at n1" 1 (SC.token_holder c);
  SC.release c ~node:2 ~seq:s;
  SC.settle c;
  Alcotest.check (Alcotest.list Testkit.mode) "R cached" [ Mode.R ] (Node.cached (SC.node c 2));
  let before = SC.messages_sent c in
  let s2 = SC.acquire c ~node:2 ~mode:Mode.R in
  checki "no messages for cache hit" before (SC.messages_sent c);
  SC.release c ~node:2 ~seq:s2;
  SC.release c ~node:1 ~seq:anchor

let test_cache_revoked_by_conflict () =
  let c = SC.create 3 in
  let s = SC.acquire c ~node:1 ~mode:Mode.R in
  SC.release c ~node:1 ~seq:s;
  SC.settle c;
  (* A writer elsewhere must revoke node 1's cached R. *)
  let w = SC.request c ~node:2 ~mode:Mode.W in
  SC.settle c;
  checkb "W granted" true (SC.granted c ~node:2 ~seq:w);
  Alcotest.check (Alcotest.list Testkit.mode) "cache revoked" [] (Node.cached (SC.node c 1));
  SC.check_safety c

let test_no_caching_ablation () =
  let c = SC.create ~config:no_cache_config 3 in
  let anchor = SC.acquire c ~node:1 ~mode:Mode.R in
  let s = SC.acquire c ~node:2 ~mode:Mode.R in
  SC.release c ~node:2 ~seq:s;
  SC.settle c;
  Alcotest.check (Alcotest.list Testkit.mode) "nothing cached" [] (Node.cached (SC.node c 2));
  let before = SC.messages_sent c in
  let s2 = SC.acquire c ~node:2 ~mode:Mode.R in
  checkb "re-acquisition costs messages" true (SC.messages_sent c > before);
  SC.release c ~node:2 ~seq:s2;
  SC.release c ~node:1 ~seq:anchor

(* {1 Custody / absorption (DESIGN.md repair 10)} *)

let test_mutual_iw_requests_no_deadlock () =
  (* The historical mutual-absorption deadlock: two nodes request IW while
     routing through each other. With the ordered-absorption rule both must
     complete. *)
  let c = SC.create ~config:no_cache_config 4 in
  let a = SC.request c ~node:1 ~mode:Mode.IW in
  let b = SC.request c ~node:2 ~mode:Mode.IW in
  SC.settle c;
  checkb "first IW granted" true (SC.granted c ~node:1 ~seq:a);
  checkb "second IW granted" true (SC.granted c ~node:2 ~seq:b);
  SC.check_safety c

(* {1 Epochs: releases crossing grants} *)

let test_release_epoch_guard () =
  (* Scripted crossing: node 1 acquires IR from the token (which holds R
     itself so the grant is a copy, not a transfer), releases it, and is
     re-granted around the release. The epoch machinery must leave the
     record consistent. *)
  let c = SC.create ~config:no_cache_config 2 in
  let anchor = SC.acquire c ~node:0 ~mode:Mode.R in
  ignore anchor;
  let s1 = SC.acquire c ~node:1 ~mode:Mode.IR in
  (* Release: the Release{None} message is now on the wire. *)
  SC.release c ~node:1 ~seq:s1;
  (match c.SC.wire with
  | [ (1, 0, Msg.Release { new_owned = None; _ }) ] -> ()
  | _ -> Alcotest.fail "expected one Release{None} from node 1 to its parent");
  (* Before delivering it, node 1 requests IR again; with FIFO the request
     queues behind the release, so deliver both and then confirm state is
     consistent (record present, owned IR). *)
  let s2 = SC.request c ~node:1 ~mode:Mode.IR in
  SC.settle c;
  checkb "regranted" true (SC.granted c ~node:1 ~seq:s2);
  Alcotest.check Testkit.mode "record matches owned" Mode.IR
    (List.assoc 1 (Node.children (SC.node c 0)));
  SC.release c ~node:1 ~seq:s2;
  SC.settle c;
  Alcotest.check (Alcotest.option Testkit.mode) "fully released" None (Node.owned (SC.node c 1));
  checkb "node 0 saw the release" true (Node.children (SC.node c 0) = [])

(* Rule 1 (DESIGN.md §2, repair 13): no node copy-grants its own
   accounting parent. The shape of lost-child-record-2n.repro (fuzz seed
   267), driven through an IW transfer now that reads never take the
   token: the token reaches n1 for its IW with n0's U queued behind n1's
   own IR. n1 takes both, and its IW release hands the token straight on
   to n0, leaving n1 n0's child with IR. Then n0's IR, sent to n1 while
   the token was in flight, arrives. Granting it out of n1's IR would
   close a two-node accounting cycle. *)
let test_rule_1_no_grant_to_parent () =
  let c = SC.create 2 in
  let w0 = SC.request c ~node:0 ~mode:Mode.W in
  let iw1 = SC.request c ~node:1 ~mode:Mode.IW in
  ignore (SC.deliver c ~src:1 ~dst:0);
  let u0 = SC.request c ~node:0 ~mode:Mode.U in
  SC.release c ~node:0 ~seq:w0;
  checkb "n0 handed the token to n1" false (Node.is_token (SC.node c 0));
  let ir0 = SC.request c ~node:0 ~mode:Mode.IR in
  let ir1 = SC.request c ~node:1 ~mode:Mode.IR in
  ignore (SC.deliver c ~src:0 ~dst:1);
  checkb "n1 holds IR" true (SC.granted c ~node:1 ~seq:ir1);
  SC.release c ~node:1 ~seq:iw1;
  checkb "n1 handed the token on" false (Node.is_token (SC.node c 1));
  checkb "n1 is n0's child" true
    (contains ~sub:"acct=n0@" (Format.asprintf "%a" Node.pp_state (SC.node c 1)));
  ignore (SC.deliver c ~src:0 ~dst:1);
  checkb "n1 does not copy-grant n0, its accounting parent" false
    (List.exists (function 1, 0, Msg.Grant _ -> true | _ -> false) c.SC.wire);
  checkb "n1 records no child n0" true (Node.children (SC.node c 1) = []);
  SC.settle c;
  List.iter
    (fun (node, seq) ->
      checkb "granted" true (SC.granted c ~node ~seq);
      SC.release c ~node ~seq;
      SC.settle c)
    [ (0, u0); (0, ir0); (1, ir1) ];
  SC.check_safety c;
  Alcotest.(check (list string)) "quiescent" [] (Dcs_hlock.Invariant.quiescent ~lock:0 c.SC.nodes)

(* Rule C (DESIGN.md §2, extending repair 5): a late copy grant from the
   accounting parent never lowers [accounted_epoch]. The shape of 3-node
   fuzz seed 3743, delivery by delivery, through U transfers. n1 hands the
   token to n2 for its U and stays n2's child with R at epoch 4; n2 had
   copy-granted n1's R at epoch 3 on the way. When that grant lands, n1
   must keep epoch 4: its last Release at epoch 3 would be dropped at n2
   as stale, leaving n2's U->W upgrade waiting on a record nobody owns.
   n2's U passes n0 before n1's R does, so n0's routing parent, re-pointed
   at n2 by that U, takes n1's R to n2 rather than to the token. *)
let test_rule_c_late_grant_keeps_epoch () =
  let c = SC.create 3 in
  let deliver src dst = ignore (SC.deliver c ~src ~dst) in
  let u0 = SC.request c ~node:0 ~mode:Mode.U in
  SC.release c ~node:0 ~seq:u0;
  let r2 = SC.request c ~node:2 ~mode:Mode.R in
  let ir1 = SC.request c ~node:1 ~mode:Mode.IR in
  let u1 = SC.request c ~node:1 ~mode:Mode.U in
  let u2 = SC.request c ~node:2 ~mode:Mode.U in
  let r1 = SC.request c ~node:1 ~mode:Mode.R in
  (* n0 copy-grants IR and R, then hands the token to n1 for its U. *)
  deliver 1 0;
  deliver 2 0;
  deliver 1 0;
  deliver 0 2;
  SC.release c ~node:2 ~seq:r2;
  deliver 2 0;
  deliver 1 0;
  deliver 0 1;
  SC.release c ~node:1 ~seq:ir1;
  deliver 0 1;
  SC.release c ~node:1 ~seq:u1;
  (* n2's U reaches n1, which hands it the token; n1's R reaches n2,
     which copy-grants it at epoch 3 before the token arrives. *)
  deliver 0 1;
  deliver 0 2;
  deliver 1 2;
  SC.upgrade c ~node:2 ~seq:u2;
  (match SC.deliver c ~src:2 ~dst:1 with
  | Msg.Grant { epoch = 3; _ } -> ()
  | m -> Alcotest.failf "expected the epoch-3 grant, got %a" Msg.pp m);
  checkb "n1 keeps epoch 4" true
    (contains ~sub:"acct=n2@4" (Format.asprintf "%a" Node.pp_state (SC.node c 1)));
  SC.release c ~node:1 ~seq:r1;
  SC.settle c;
  checkb "n2's upgrade completes" true (SC.upgraded c ~node:2 ~seq:u2);
  SC.release c ~node:2 ~seq:u2;
  SC.settle c;
  SC.check_safety c;
  Alcotest.(check (list string)) "quiescent" [] (Dcs_hlock.Invariant.quiescent ~lock:0 c.SC.nodes)

(* {1 FIFO fairness across modes} *)

let test_fifo_write_then_reads () =
  let c = SC.create ~config:no_cache_config 5 in
  let r1 = SC.acquire c ~node:1 ~mode:Mode.R in
  (* Writer queues. *)
  let w = SC.request c ~node:2 ~mode:Mode.W in
  SC.settle c;
  (* Readers arriving after the writer must not overtake (R frozen). *)
  let r2 = SC.request c ~node:3 ~mode:Mode.R in
  let r3 = SC.request c ~node:4 ~mode:Mode.R in
  SC.settle c;
  checkb "late reader 1 waits" false (SC.granted c ~node:3 ~seq:r2);
  checkb "late reader 2 waits" false (SC.granted c ~node:4 ~seq:r3);
  SC.release c ~node:1 ~seq:r1;
  SC.settle c;
  checkb "writer served first" true (SC.granted c ~node:2 ~seq:w);
  SC.release c ~node:2 ~seq:w;
  SC.settle c;
  checkb "reader 1 after writer" true (SC.granted c ~node:3 ~seq:r2);
  checkb "reader 2 after writer" true (SC.granted c ~node:4 ~seq:r3);
  SC.check_safety c

(* {1 Priorities (prioritized-token extension, refs [11,12])} *)

let test_priority_service_order () =
  (* Priority ordering is exact within one queue: queue three local
     requests of different priorities at the token while it holds R. *)
  let c = SC.create ~config:no_cache_config 1 in
  let r = SC.acquire c ~node:0 ~mode:Mode.R in
  let w_low = SC.request c ~node:0 ~mode:Mode.W in
  let w_high = SC.request ~priority:5 c ~node:0 ~mode:Mode.W in
  let w_mid = SC.request ~priority:2 c ~node:0 ~mode:Mode.W in
  SC.settle c;
  checkb "all waiting" true
    (not (SC.granted c ~node:0 ~seq:w_low)
    && (not (SC.granted c ~node:0 ~seq:w_high))
    && not (SC.granted c ~node:0 ~seq:w_mid));
  SC.release c ~node:0 ~seq:r;
  SC.settle c;
  checkb "high first" true (SC.granted c ~node:0 ~seq:w_high);
  checkb "mid waits" false (SC.granted c ~node:0 ~seq:w_mid);
  SC.release c ~node:0 ~seq:w_high;
  SC.settle c;
  checkb "mid second" true (SC.granted c ~node:0 ~seq:w_mid);
  checkb "low waits" false (SC.granted c ~node:0 ~seq:w_low);
  SC.release c ~node:0 ~seq:w_mid;
  SC.settle c;
  checkb "low last" true (SC.granted c ~node:0 ~seq:w_low);
  SC.release c ~node:0 ~seq:w_low

let test_priority_across_nodes () =
  (* Distributed case: a later high-priority writer overtakes queued
     lower-priority ones wherever they share a queue; inversion is bounded
     by one custodian hold. Assert the high writer is granted no later
     than immediately after the first low release. *)
  let c = SC.create ~config:no_cache_config 5 in
  let r = SC.acquire c ~node:1 ~mode:Mode.R in
  let w1 = SC.request c ~node:2 ~mode:Mode.W in
  SC.settle c;
  let w2 = SC.request c ~node:4 ~mode:Mode.W in
  SC.settle c;
  let w_high = SC.request ~priority:5 c ~node:3 ~mode:Mode.W in
  SC.settle c;
  SC.release c ~node:1 ~seq:r;
  SC.settle c;
  (* One of the low writers may hold the token already (custody), but the
     high-priority writer must be served before the remaining low one. *)
  let first_low_granted =
    (SC.granted c ~node:2 ~seq:w1, SC.granted c ~node:4 ~seq:w2)
  in
  (match first_low_granted with
  | true, true -> Alcotest.fail "both low writers served before the high one"
  | _ -> ());
  (* Release whatever is held until the high one is granted; it must come
     before the second low writer. *)
  let release_granted () =
    List.iter
      (fun (node, seq) -> if SC.granted c ~node ~seq then (try SC.release c ~node ~seq with Invalid_argument _ -> ()))
      [ (2, w1); (4, w2) ];
    SC.settle c
  in
  release_granted ();
  checkb "high granted after at most one low hold" true (SC.granted c ~node:3 ~seq:w_high);
  checkb "one low writer still waiting" true
    ((not (SC.granted c ~node:2 ~seq:w1)) || not (SC.granted c ~node:4 ~seq:w2));
  SC.release c ~node:3 ~seq:w_high;
  SC.settle c;
  release_granted ();
  checkb "all eventually served" true
    (SC.granted c ~node:2 ~seq:w1 && SC.granted c ~node:4 ~seq:w2)

let test_priority_fifo_within_level () =
  let c = SC.create ~config:no_cache_config 4 in
  let r = SC.acquire c ~node:1 ~mode:Mode.R in
  let w1 = SC.request ~priority:3 c ~node:2 ~mode:Mode.W in
  SC.settle c;
  let w2 = SC.request ~priority:3 c ~node:3 ~mode:Mode.W in
  SC.settle c;
  SC.release c ~node:1 ~seq:r;
  SC.settle c;
  checkb "first same-priority writer wins" true (SC.granted c ~node:2 ~seq:w1);
  checkb "second waits" false (SC.granted c ~node:3 ~seq:w2);
  SC.release c ~node:2 ~seq:w1;
  SC.settle c;
  checkb "then the second" true (SC.granted c ~node:3 ~seq:w2);
  SC.release c ~node:3 ~seq:w2

let test_upgrade_outranks_priorities () =
  let c = SC.create ~config:no_cache_config 3 in
  let u = SC.acquire c ~node:1 ~mode:Mode.U in
  let w = SC.request ~priority:9 c ~node:2 ~mode:Mode.W in
  SC.settle c;
  SC.upgrade c ~node:1 ~seq:u;
  SC.settle c;
  checkb "upgrade beats priority-9 writer" true (SC.upgraded c ~node:1 ~seq:u);
  checkb "writer waits" false (SC.granted c ~node:2 ~seq:w);
  SC.release c ~node:1 ~seq:u;
  SC.settle c;
  checkb "writer after upgrade" true (SC.granted c ~node:2 ~seq:w)

let test_negative_priority_rejected () =
  let c = SC.create 2 in
  checkb "negative rejected" true
    (try
       ignore (SC.request ~priority:(-1) c ~node:0 ~mode:Mode.R);
       false
     with Invalid_argument _ -> true)

(* {1 Randomized stress on the synchronous network} *)

(* The owned mode recomputed by folding over the public views, independent
   of [Node]'s per-mode counts and masks: the strongest held or cached mode
   (highest mode index first), replaced by a child record only if that is
   strictly stronger; among child records of equal strength (U and IW) the
   higher index, IW, wins. *)
let reference_owned_of ~held ~cached ~children =
  let highest = function
    | [] -> None
    | ms -> Some (List.fold_left (fun a b -> if Mode.index b > Mode.index a then b else a) (List.hd ms) ms)
  in
  let own = highest (List.map snd held @ cached) in
  match (own, highest (List.map snd children)) with
  | Some o, Some k when Mode.strength k > Mode.strength o -> Some k
  | None, kid -> kid
  | own, _ -> own

let reference_owned n =
  reference_owned_of ~held:(Node.held n) ~cached:(Node.cached n) ~children:(Node.children n)

(* What upgrade entry [r] sees (Rule 7): the same fold with the
   requester's own U left out — its held grant [r.seq] when it is this
   node, or its U child record. *)
let reference_owned_for n (r : Msg.request) =
  let held =
    List.filter (fun (seq, _) -> not (r.Msg.requester = Node.id n && seq = r.Msg.seq)) (Node.held n)
  in
  let children = List.filter (fun kid -> kid <> (r.Msg.requester, Mode.U)) (Node.children n) in
  reference_owned_of ~held ~cached:(Node.cached n) ~children

let rec sorted_by_service_order = function
  | a :: (b :: _ as rest) -> Msg.service_order a b <= 0 && sorted_by_service_order rest
  | [ _ ] | [] -> true

(* The token's frozen set by its definition (Rule 6, Table 2b): the union,
   over the queue, of each entry's freeze set under the owned mode that
   entry sees — independent of [Node]'s per-mode queue counts. *)
let reference_frozen n =
  List.fold_left
    (fun acc (r : Msg.request) ->
      Mode_set.union acc (Compat.freeze_set ~owned:(Node.owned_for n r) r.Msg.mode))
    Mode_set.empty (Node.queue n)

(* Per-node bookkeeping invariants, checked after every delivered message:
   the counted owned mode matches the recomputation, and so does the masked
   one each queued upgrade sees; the O(1) copyset size matches the
   copyset, every queue stays sorted by the service order
   (what lets a token handoff merge two queues instead of re-sorting), and
   with freezing on the token's counted frozen set matches its
   definition. *)
let check_bookkeeping ~(config : Node.config) c n_nodes () =
  for i = 0 to n_nodes - 1 do
    let n = SC.node c i in
    let expected = reference_owned n in
    if Node.owned n <> expected then
      Alcotest.failf "n%d: counted owned %a, recomputed %a" i Node.pp_state n
        (Format.pp_print_option Mode.pp) expected;
    List.iter
      (fun (r : Msg.request) ->
        if r.Msg.upgrade then begin
          let expected = reference_owned_for n r in
          if Node.owned_for n r <> expected then
            Alcotest.failf "n%d: masked owned for %a, recomputed %a: %a" i Msg.pp_request r
              (Format.pp_print_option Mode.pp) expected Node.pp_state n
        end)
      (Node.queue n);
    if Node.copyset_size n <> List.length (Node.children n) then
      Alcotest.failf "n%d: copyset_size %d, children %d" i (Node.copyset_size n)
        (List.length (Node.children n));
    if not (sorted_by_service_order (Node.queue n)) then
      Alcotest.failf "n%d: queue out of service order" i;
    if config.Node.freezing && Node.is_token n then begin
      let expected = reference_frozen n in
      if not (Mode_set.equal (Node.frozen n) expected) then
        Alcotest.failf "n%d: counted frozen set, recomputed %a: %a" i Mode_set.pp expected
          Node.pp_state n
    end
  done

let stress ~config ~nodes ~ops ~seed () =
  let c = SC.create ~config nodes in
  SC.after_delivery c (check_bookkeeping ~config c nodes);
  let rng = Dcs_sim.Rng.create ~seed in
  let outstanding = ref [] in
  let issued = ref 0 and completed = ref 0 in
  for _ = 1 to ops do
    (* Randomly either issue a fresh request from an idle node or release a
       held ticket; settle after every step and check safety. *)
    let idle_nodes =
      List.filter
        (fun n -> not (List.exists (fun (n', _, _) -> n' = n) !outstanding))
        (List.init nodes (fun i -> i))
    in
    let can_issue = idle_nodes <> [] in
    let must_issue = !outstanding = [] in
    if must_issue || (can_issue && Dcs_sim.Rng.bool rng) then begin
      let node = Dcs_sim.Rng.pick rng idle_nodes in
      let mode = Dcs_sim.Rng.pick rng Mode.all in
      let seq = SC.request c ~node ~mode in
      incr issued;
      outstanding := (node, seq, mode) :: !outstanding
    end
    else begin
      let (node, seq, _) = Dcs_sim.Rng.pick rng !outstanding in
      if SC.granted c ~node ~seq then begin
        SC.release c ~node ~seq;
        incr completed;
        outstanding := List.filter (fun (n, s, _) -> not (n = node && s = seq)) !outstanding
      end
    end;
    SC.settle c;
    SC.check_safety c
  done;
  (* Drain: release everything granted; everything issued must eventually
     be granted and releasable. *)
  let rec drain guard =
    if guard > 10 * ops then Alcotest.fail "drain did not converge";
    match !outstanding with
    | [] -> ()
    | remaining ->
        List.iter
          (fun (node, seq, _) ->
            if SC.granted c ~node ~seq then begin
              SC.release c ~node ~seq;
              incr completed;
              outstanding := List.filter (fun (n, s, _) -> not (n = node && s = seq)) !outstanding
            end)
          remaining;
        SC.settle c;
        SC.check_safety c;
        drain (guard + 1)
  in
  drain 0;
  checki "all issued requests completed" !issued !completed;
  ignore (SC.token_holder c)

let test_stress_default = stress ~config:Node.default_config ~nodes:6 ~ops:400 ~seed:1L

let test_stress_no_cache = stress ~config:no_cache_config ~nodes:6 ~ops:400 ~seed:2L

let test_stress_no_freeze =
  stress
    ~config:{ Node.default_config with Node.freezing = false }
    ~nodes:5 ~ops:300 ~seed:3L

let test_stress_eager =
  stress
    ~config:{ Node.default_config with Node.eager_release = true }
    ~nodes:5 ~ops:300 ~seed:4L

let test_stress_larger = stress ~config:Node.default_config ~nodes:12 ~ops:600 ~seed:5L

(* {1 The custody watchdog} *)

let test_kick_recirculates_custody () =
  let c = SC.create ~config:no_cache_config 4 in
  (* Put node 2 in the vulnerable state: pending W with a remote request in
     custody. Node 1 camps on R so the Ws queue. *)
  let r = SC.acquire c ~node:1 ~mode:Mode.R in
  let w2 = SC.request c ~node:2 ~mode:Mode.W in
  SC.settle c;
  let w3 = SC.request c ~node:3 ~mode:Mode.W in
  SC.settle c;
  (* If node 2 absorbed node 3's W, two kicks re-circulate it (the first
     marks, the second flushes); the request must remain exactly-once. *)
  let custodian = SC.node c 2 in
  let had_custody = List.length (Node.queue custodian) > 0 in
  Node.kick custodian;
  Node.kick custodian;
  SC.settle c;
  if had_custody then
    checkb "custody flushed by second kick" true (Node.queue custodian = []);
  (* Idle nodes: kicking is a no-op. *)
  Node.kick (SC.node c 0);
  SC.settle c;
  (* Everything still completes exactly once. *)
  SC.release c ~node:1 ~seq:r;
  SC.settle c;
  let rec drain guard =
    if guard > 50 then Alcotest.fail "drain stalled";
    let done2 = SC.granted c ~node:2 ~seq:w2 and done3 = SC.granted c ~node:3 ~seq:w3 in
    if done2 && done3 then ()
    else begin
      if done2 then (try SC.release c ~node:2 ~seq:w2 with Invalid_argument _ -> ());
      if done3 then (try SC.release c ~node:3 ~seq:w3 with Invalid_argument _ -> ());
      SC.settle c;
      drain (guard + 1)
    end
  in
  drain 0;
  SC.check_safety c

(* {1 Defensive message handling} *)

let test_stale_messages_ignored () =
  let c = SC.create ~config:no_cache_config 3 in
  let token = SC.node c 0 in
  (* Release from a node that was never granted anything: ignored. *)
  Node.handle_msg token ~src:2 (Msg.Release { new_owned = Some Mode.R; epoch = 99 });
  Alcotest.check (Alcotest.option Testkit.mode) "no phantom record" None (Node.owned token);
  (* Freeze from a non-parent at a non-token node: granting restriction
     rejected (but caches may be dropped — none here). *)
  Node.handle_msg (SC.node c 1) ~src:2 (Msg.Freeze { frozen = Mode_set.full });
  Alcotest.check Testkit.mode_set "freeze from stranger ignored" Mode_set.empty
    (Node.frozen (SC.node c 1));
  (* A stale-epoch release must not clobber a fresh grant. *)
  let s = SC.acquire c ~node:1 ~mode:Mode.IR in
  let record_before = List.assoc_opt 1 (Node.children token) in
  Node.handle_msg token ~src:1 (Msg.Release { new_owned = None; epoch = 424242 });
  Alcotest.check (Alcotest.option Testkit.mode) "record survives stale release" record_before
    (List.assoc_opt 1 (Node.children token));
  SC.release c ~node:1 ~seq:s;
  SC.settle c

(* {1 Owned-mode bookkeeping} *)

(* A token node rebuilt from a snapshot whose copyset is [kids]
   ((child, mode, epoch) records), so tests can set up records the
   protocol itself would not produce. *)
let token_with_children kids =
  let snap = Node.export (SC.node (SC.create 3) 0) in
  Node.restore ~id:0 ~peers:3
    ~send:(fun ~dst:_ _ -> ())
    { snap with Node.s_children = kids }

let upgrade_req ~requester ~seq =
  { Msg.requester; seq; mode = Mode.W; upgrade = true; timestamp = 1; priority = 0; hops = 0;
    hint_stamp = 0; hint_owner = 0; path = [ requester ] }

(* U and IW are equally strong: between child records the higher mode
   index (IW) wins, whatever the insertion order. *)
let test_owned_tie_break () =
  let owned_of kids = Node.owned (token_with_children kids) in
  let o = Alcotest.option Testkit.mode in
  Alcotest.check o "U then IW" (Some Mode.IW) (owned_of [ (1, Mode.U, 1); (2, Mode.IW, 2) ]);
  Alcotest.check o "IW then U" (Some Mode.IW) (owned_of [ (1, Mode.IW, 1); (2, Mode.U, 2) ]);
  Alcotest.check o "W beats both" (Some Mode.W)
    (owned_of [ (1, Mode.U, 1); (2, Mode.IW, 2); (0, Mode.W, 3) ])

(* A held or cached mode beats an equal-strength child record: a U owned
   here outranks an IW record, though IW wins between records. *)
let test_owned_local_wins_ties () =
  let o = Alcotest.option Testkit.mode in
  let snap = Node.export (SC.node (SC.create 3) 0) in
  let cached =
    Node.restore ~id:0 ~peers:3
      ~send:(fun ~dst:_ _ -> ())
      { snap with Node.s_cached = Mode_set.singleton Mode.U; s_children = [ (1, Mode.IW, 1) ] }
  in
  Alcotest.check o "cached U, IW record" (Some Mode.U) (Node.owned cached);
  (* Held: take U beside an R record, then let that child report IW. *)
  let t = token_with_children [ (1, Mode.R, 5) ] in
  let seq = Node.request t ~mode:Mode.U ~on_granted:ignore in
  Node.handle_msg t ~src:1 (Msg.Release { new_owned = Some Mode.IW; epoch = 5 });
  let entries = Alcotest.(list (pair int Testkit.mode)) in
  Alcotest.check entries "held" [ (seq, Mode.U) ] (Node.held t);
  Alcotest.check entries "record" [ (1, Mode.IW) ] (Node.children t);
  Alcotest.check o "held U, IW record" (Some Mode.U) (Node.owned t)

(* Rule 7's mask: evaluating an upgrade, the token node discounts the
   requester's own U — as a child record here, and as a held grant when
   the requester is the token node itself. *)
let test_upgrade_masks_u () =
  let o = Alcotest.option Testkit.mode in
  let t = token_with_children [ (1, Mode.U, 1); (2, Mode.R, 2) ] in
  Alcotest.check o "unmasked" (Some Mode.U) (Node.owned t);
  Alcotest.check o "U child record masked" (Some Mode.R)
    (Node.owned_for t (upgrade_req ~requester:1 ~seq:0));
  Alcotest.check o "other requester: no mask" (Some Mode.U)
    (Node.owned_for t (upgrade_req ~requester:2 ~seq:0));
  Alcotest.check o "plain request: no mask" (Some Mode.U)
    (Node.owned_for t { (upgrade_req ~requester:1 ~seq:0) with Msg.upgrade = false });
  let c = SC.create ~config:no_cache_config 1 in
  let seq = SC.acquire c ~node:0 ~mode:Mode.U in
  let n = SC.node c 0 in
  Alcotest.check o "held U" (Some Mode.U) (Node.owned n);
  Alcotest.check o "held U masked" None (Node.owned_for n (upgrade_req ~requester:0 ~seq));
  Alcotest.check o "another seq is not masked" (Some Mode.U)
    (Node.owned_for n (upgrade_req ~requester:0 ~seq:(seq + 1)))

(* {1 QCheck: random operation scripts} *)

(* A script is a list of abstract steps interpreted against a synchronous
   cluster; the property is the global one: safety at every step, and
   every granted ticket eventually releasable with full completion. QCheck
   shrinks failing scripts to minimal counterexamples. *)
module Script = struct
  type step =
    | Req of { node : int; mode : Mode.t; priority : int }
    | Rel of int  (* release the i-th oldest currently-granted ticket *)
    | Upg of int  (* upgrade the i-th granted ticket if it is a U *)

  let gen ~nodes =
    QCheck2.Gen.(
      list_size (int_range 1 40)
        (oneof
           [
             (let* node = int_bound (nodes - 1) in
              let* mode = Testkit.gen_mode in
              let* priority = int_bound 3 in
              return (Req { node; mode; priority }));
             map (fun i -> Rel i) (int_bound 5);
             map (fun i -> Upg i) (int_bound 5);
           ]))

  (* [after c] is checked once every issued operation has completed. *)
  let run ?(after = fun _ -> true) ~config ~nodes script =
    let c = SC.create ~config nodes in
    SC.after_delivery c (check_bookkeeping ~config c nodes);
    let outstanding = ref [] in  (* (node, seq), oldest first *)
    let issued = ref 0 and completed = ref 0 in
    let apply = function
      | Req { node; mode; priority } ->
          (* One outstanding request per node keeps the client model sane. *)
          if not (List.exists (fun (n, _) -> n = node) !outstanding) then begin
            let seq = SC.request ~priority c ~node ~mode in
            incr issued;
            outstanding := !outstanding @ [ (node, seq) ]
          end
      | Rel i -> (
          match List.nth_opt !outstanding i with
          | Some (node, seq) when SC.granted c ~node ~seq ->
              SC.release c ~node ~seq;
              incr completed;
              outstanding := List.filter (fun p -> p <> (node, seq)) !outstanding
          | _ -> ())
      | Upg i -> (
          match List.nth_opt !outstanding i with
          | Some (node, seq)
            when SC.granted c ~node ~seq
                 && List.assoc_opt seq (Node.held (SC.node c node)) = Some Mode.U ->
              SC.upgrade c ~node ~seq
          | _ -> ())
    in
    List.iter
      (fun step ->
        apply step;
        SC.settle c;
        SC.check_safety c)
      script;
    (* Drain: release everything granted until all issued ops complete. *)
    let guard = ref 0 in
    while !outstanding <> [] do
      incr guard;
      if !guard > 5000 then Alcotest.fail "script drain did not converge";
      List.iter
        (fun (node, seq) ->
          if SC.granted c ~node ~seq then begin
            SC.release c ~node ~seq;
            incr completed;
            outstanding := List.filter (fun p -> p <> (node, seq)) !outstanding
          end)
        !outstanding;
      SC.settle c;
      SC.check_safety c
    done;
    !issued = !completed && SC.token_holder c >= 0 && after c
end

let prop_random_scripts =
  QCheck2.Test.make ~name:"random scripts are safe and live" ~count:300
    (Script.gen ~nodes:5)
    (fun script -> Script.run ~config:Node.default_config ~nodes:5 script)

let prop_random_scripts_no_cache =
  QCheck2.Test.make ~name:"random scripts are safe and live (no caching)" ~count:200
    (Script.gen ~nodes:4)
    (fun script -> Script.run ~config:no_cache_config ~nodes:4 script)

let prop_random_scripts_priorities =
  QCheck2.Test.make ~name:"random scripts are safe and live (8 nodes)" ~count:150
    (Script.gen ~nodes:8)
    (fun script -> Script.run ~config:Node.default_config ~nodes:8 script)

(* {1 Snapshots} *)

(* [export] → [restore] → [export] is the identity on a quiescent node,
   and the rebuilt node prints the same state. *)
let snapshot_roundtrips ?(config = Node.default_config) ~peers n =
  let s = Node.export n in
  let n' = Node.restore ~config ~id:(Node.id n) ~peers ~send:(fun ~dst:_ _ -> ()) s in
  let pp = Format.asprintf "%a" Node.pp_state in
  Node.export n' = s && pp n' = pp n

let prop_snapshot_roundtrip =
  QCheck2.Test.make ~name:"snapshots round-trip after random scripts" ~count:200
    (Script.gen ~nodes:5)
    (fun script ->
      Script.run ~config:Node.default_config ~nodes:5 script ~after:(fun c ->
          List.for_all (fun i -> snapshot_roundtrips ~peers:5 (SC.node c i)) (List.init 5 Fun.id)))

(* [handle_token] drops the sender's child record but not the frozen set
   last sent to it: a node can hold a sent-freeze entry for a node that
   is no longer its child, and its snapshot must carry it. *)
let test_stale_sent_freeze_roundtrips () =
  let snap =
    { (Node.export (SC.node (SC.create 3) 1)) with
      Node.s_children = [ (2, Mode.R, 1) ];
      s_sent_freeze = [ (2, Mode_set.singleton Mode.W) ];
      s_accounted_parent = Some 0;
      s_accounted_epoch = 1;
      s_last_reported = Some Mode.R }
  in
  let n = Node.restore ~id:1 ~peers:3 ~send:(fun ~dst:_ _ -> ()) snap in
  let serving =
    { Msg.requester = 1; seq = 0; mode = Mode.W; upgrade = false; timestamp = 1; priority = 0;
      hops = 1; hint_stamp = 1; hint_owner = 1; path = [ 1 ] }
  in
  Node.handle_msg n ~src:2
    (Msg.Token
       { serving; sender_owned = None; sender_epoch = 3; queue = []; frozen = Mode_set.empty });
  Node.release n ~seq:0;
  let s = Node.export n in
  checkb "token, no children" true (Node.is_token n && Node.children n = []);
  Alcotest.check
    Alcotest.(list (pair int Testkit.mode_set))
    "stale entry kept" [ (2, Mode_set.singleton Mode.W) ] s.Node.s_sent_freeze;
  checkb "round-trips" true (snapshot_roundtrips ~peers:3 n)

(* [pp_state] shows every snapshot field and every field of a queued
   request: snapshots that differ in one field each restore to nodes that
   print pairwise different lines. *)
let test_pp_state_shows_every_field () =
  let base = Node.export (SC.node (SC.create 3) 1) in
  let q =
    { Msg.requester = 1; seq = 0; mode = Mode.W; upgrade = false; timestamp = 1; priority = 0;
      hops = 1; hint_stamp = 1; hint_owner = 0; path = [ 1 ] }
  in
  let queued f = { base with Node.s_queue = [ f q ] } in
  let variants =
    [ base;
      { base with Node.s_token = true; s_parent = None };
      { base with Node.s_parent = Some 2 };
      { base with Node.s_parent_stamp = 5 };
      { base with Node.s_accounted_parent = Some 0 };
      { base with Node.s_accounted_epoch = 7 };
      { base with Node.s_last_reported = Some Mode.R };
      { base with Node.s_cached = Mode_set.singleton Mode.R };
      { base with Node.s_children = [ (2, Mode.R, 1) ] };
      { base with Node.s_children = [ (2, Mode.R, 2) ] };
      { base with Node.s_frozen = Mode_set.singleton Mode.W };
      { base with Node.s_sent_freeze = [ (2, Mode_set.singleton Mode.W) ] };
      { base with Node.s_tenure = 3 };
      { base with Node.s_hint = (4, 0) };
      { base with Node.s_hint = (0, 2) };
      { base with Node.s_last_granter = Some 2 };
      { base with Node.s_next_seq = 5 };
      { base with Node.s_clock = 9 };
      { base with Node.s_epoch_counter = 11 };
      queued Fun.id;
      queued (fun q -> { q with Msg.seq = 1 });
      queued (fun q -> { q with Msg.mode = Mode.R });
      queued (fun q -> { q with Msg.upgrade = true });
      queued (fun q -> { q with Msg.timestamp = 2 });
      queued (fun q -> { q with Msg.priority = 1 });
      queued (fun q -> { q with Msg.hops = 2 });
      queued (fun q -> { q with Msg.hint_stamp = 2 });
      queued (fun q -> { q with Msg.hint_owner = 2 });
      queued (fun q -> { q with Msg.path = [ 1; 0 ] }) ]
  in
  let lines =
    List.map
      (fun snap ->
        Format.asprintf "%a" Node.pp_state
          (Node.restore ~id:1 ~peers:3 ~send:(fun ~dst:_ _ -> ()) snap))
      variants
  in
  checki "pairwise different" (List.length lines) (List.length (List.sort_uniq compare lines))

(* A token node of 130 peers whose children sit on both sides of every
   62-id word boundary of a per-peer bit set (61 | 62, 123 | 124) and at
   the last id. Queued requests change the frozen set twice: an IW
   freezes R, which only the R children (61, 123) could grant; a W then
   freezes IR too, which every child could. Each change sends exactly
   the children that need a Freeze one, in ascending id, and the
   copyset survives an export/restore round trip. *)
let test_freeze_walk_word_boundaries () =
  let peers = 130 in
  let kids = [ (1, Mode.IR); (61, Mode.R); (62, Mode.IR); (123, Mode.R); (129, Mode.IR) ] in
  let sent = ref [] in
  let n =
    Node.restore ~id:0 ~peers
      ~send:(fun ~dst msg -> sent := (dst, msg) :: !sent)
      { Node.s_token = true; s_parent = None; s_parent_stamp = 0; s_accounted_parent = None;
        s_accounted_epoch = 0; s_last_reported = None; s_cached = Mode_set.empty;
        s_children = List.map (fun (c, m) -> (c, m, 1)) kids; s_queue = [];
        s_frozen = Mode_set.empty; s_sent_freeze = []; s_tenure = 1; s_hint = (1, 0);
        s_last_granter = None; s_next_seq = 0; s_clock = 0; s_epoch_counter = 1 }
  in
  let freezes_after requester mode =
    sent := [];
    Node.handle_msg n ~src:requester
      (Msg.Request
         { Msg.requester; seq = 0; mode; upgrade = false; timestamp = requester; priority = 0;
           hops = 1; hint_stamp = 1; hint_owner = 0; path = [ requester ] });
    List.rev_map
      (fun (dst, msg) ->
        match msg with
        | Msg.Freeze { frozen } -> (dst, Mode_set.to_list frozen)
        | _ -> Alcotest.fail "only Freeze messages expected")
      !sent
  in
  let freezes = Alcotest.(list (pair int (list Testkit.mode))) in
  Alcotest.check freezes "IW queued: the R children" [ (61, [ Mode.R ]); (123, [ Mode.R ]) ]
    (freezes_after 5 Mode.IW);
  Alcotest.check freezes "W queued: every child, IR added"
    [ (1, [ Mode.IR ]); (61, [ Mode.IR; Mode.R ]); (62, [ Mode.IR ]); (123, [ Mode.IR; Mode.R ]);
      (129, [ Mode.IR ]) ]
    (freezes_after 7 Mode.W);
  let children = Alcotest.(list (pair int Testkit.mode)) in
  Alcotest.check children "children in ascending id" kids (Node.children n);
  let n' = Node.restore ~id:0 ~peers ~send:(fun ~dst:_ _ -> ()) (Node.export n) in
  Alcotest.check children "children after export/restore" kids (Node.children n');
  checkb "snapshot round-trips" true (snapshot_roundtrips ~peers n)

(* [s] is refused with an [Invalid_argument] that names [what]. *)
let check_restore_refuses what s =
  checkb (what ^ " id refused") true
    (match Node.restore ~id:1 ~peers:3 ~send:(fun ~dst:_ _ -> ()) s with
    | _ -> false
    | exception Invalid_argument msg ->
        contains ~sub:"Hlock.Node.restore:" msg && contains ~sub:what msg)

(* Snapshot ids index per-peer arrays: an id outside [0, peers) — here in
   each id-carrying field in turn — is refused. *)
let test_restore_rejects_bad_ids () =
  let snap = Node.export (SC.node (SC.create 3) 1) in
  let corrupt =
    [ ("child", { snap with Node.s_children = [ (0, Mode.R, 1); (3, Mode.R, 2) ] });
      ("sent-freeze", { snap with Node.s_sent_freeze = [ (-1, Mode_set.singleton Mode.W) ] });
      ("parent", { snap with Node.s_parent = Some 7 });
      ("accounted-parent", { snap with Node.s_accounted_parent = Some 3 });
      ("last-granter", { snap with Node.s_last_granter = Some (-2) }) ]
  in
  List.iter (fun (what, s) -> check_restore_refuses what s) corrupt;
  ignore (Node.restore ~id:1 ~peers:3 ~send:(fun ~dst:_ _ -> ()) snap)

(* [create] refuses the ids [restore] refuses: a parent outside
   [0, peers) would be sent to. *)
let test_create_rejects_bad_ids () =
  let refuses what ~id ~is_token ~parent =
    checkb (what ^ " refused") true
      (match Node.create ~id ~peers:4 ~is_token ~parent ~send:(fun ~dst:_ _ -> ()) () with
      | _ -> false
      | exception Invalid_argument msg ->
          contains ~sub:"Hlock.Node.create:" msg && contains ~sub:what msg)
  in
  refuses "parent" ~id:1 ~is_token:false ~parent:(Some 9);
  refuses "parent" ~id:1 ~is_token:false ~parent:(Some (-2));
  refuses "id" ~id:4 ~is_token:true ~parent:None;
  refuses "token node with a parent" ~id:0 ~is_token:true ~parent:(Some 1);
  ignore (Node.create ~id:1 ~peers:4 ~is_token:false ~parent:(Some 3) ~send:(fun ~dst:_ _ -> ()) ())

(* The ids a snapshot carries beyond the per-peer arrays name relay
   targets: a handoff decoded off the wire must not smuggle one outside
   [0, peers) into the token hint or a queued request. One case per
   field; each corrupt snapshot differs from a valid one in that field
   alone. *)
let restore_refuses what corrupt () =
  let snap = Node.export (SC.node (SC.create 3) 1) in
  let queued =
    { Msg.requester = 2; seq = 0; mode = Mode.R; upgrade = false; timestamp = 1; priority = 0;
      hops = 1; hint_stamp = 0; hint_owner = 0; path = [ 2 ] }
  in
  ignore
    (Node.restore ~id:1 ~peers:3 ~send:(fun ~dst:_ _ -> ())
       { snap with Node.s_queue = [ queued ] });
  check_restore_refuses what (corrupt snap queued)

let restore_field_cases =
  [ ("hint-owner", fun (s : Node.snapshot) _ -> { s with Node.s_hint = (1, 3) });
    ("queued requester", fun s q -> { s with Node.s_queue = [ { q with Msg.requester = 9 } ] });
    ("queued hint-owner", fun s q -> { s with Node.s_queue = [ { q with Msg.hint_owner = 3 } ] });
    ("queued path", fun s q -> { s with Node.s_queue = [ { q with Msg.path = [ 2; -4 ] } ] }) ]

(* {1 Message classification} *)

let test_msg_classes () =
  let r = { Msg.requester = 1; seq = 0; mode = Mode.R; upgrade = false; timestamp = 1; priority = 0;
            hops = 0; hint_stamp = 0; hint_owner = 0; path = [ 1 ] } in
  Alcotest.check (Alcotest.testable Dcs_proto.Msg_class.pp Dcs_proto.Msg_class.equal)
    "request" Dcs_proto.Msg_class.Request
    (Msg.class_of (Msg.Request r));
  Alcotest.check (Alcotest.testable Dcs_proto.Msg_class.pp Dcs_proto.Msg_class.equal)
    "grant" Dcs_proto.Msg_class.Copy_grant
    (Msg.class_of
       (Msg.Grant { req = r; epoch = 1; recorded = Mode.R; frozen = Mode_set.empty }))

(* {1 The frozen set on a copy grant}

   A granter puts the frozen set it owes the grantee on the grant instead
   of sending a Freeze right behind it. For each branch of the grantee's
   grant handler, node 1 (4 peers, restored from [snap]) is delivered
   [Grant {frozen}] from n2 in one run, and [Grant {∅}] then
   [Freeze {frozen}] in the other; both must end in the same
   [Node.pp_state] line and have sent the same messages. Returns that
   line and the messages, and checks that the frozen set made a
   difference to at least one of them when [matters]. *)
let grant_freeze_equivalent ~snap ~mode ~recorded ~frozen ~matters =
  let req =
    { Msg.requester = 1; seq = 0; mode; upgrade = false; timestamp = 3; priority = 0; hops = 1;
      hint_stamp = 0; hint_owner = 0; path = [ 1 ] }
  in
  let grant frozen = Msg.Grant { req; epoch = 9; recorded; frozen } in
  let run msgs =
    let sent = ref [] in
    let n =
      Node.restore ~id:1 ~peers:4
        ~send:(fun ~dst msg -> sent := Format.asprintf "n%d %a" dst Msg.pp msg :: !sent)
        snap
    in
    List.iter (Node.handle_msg n ~src:2) msgs;
    (Format.asprintf "%a" Node.pp_state n, List.rev !sent)
  in
  let one = run [ grant frozen ] and two = run [ grant Mode_set.empty; Msg.Freeze { frozen } ] in
  Alcotest.check Alcotest.string "same state" (fst two) (fst one);
  Alcotest.check Alcotest.(list string) "same messages" (snd two) (snd one);
  checkb "the frozen set mattered" matters (run [ grant Mode_set.empty ] <> one);
  one

let fresh_snapshot () = Node.export (SC.node (SC.create 4) 1)

(* The token reached n1 while its request circulated: n1 cancels n2's
   record and serves itself; a token node ignores a Freeze. *)
let test_grant_freeze_token_race () =
  let snap =
    { (fresh_snapshot ()) with Node.s_token = true; s_parent = None;
      s_children = [ (3, Mode.IR, 1) ] }
  in
  let _, sent =
    grant_freeze_equivalent ~snap ~mode:Mode.IR ~recorded:Mode.IR
      ~frozen:(Mode_set.singleton Mode.IR) ~matters:false
  in
  Alcotest.check Alcotest.(list string) "cancels n2's record" [ "n2 Release new_owned=_ e9" ] sent

(* n2 is n1's child: n1 cancels n2's record and serves itself out of the
   child's; the Freeze, not from n1's accounting parent, only revokes
   n1's cached IR. *)
let test_grant_freeze_granter_is_child () =
  let snap =
    { (fresh_snapshot ()) with Node.s_accounted_parent = Some 0; s_accounted_epoch = 1;
      s_last_reported = Some Mode.R; s_cached = Mode_set.singleton Mode.IR;
      s_children = [ (2, Mode.R, 3) ] }
  in
  let _, sent =
    grant_freeze_equivalent ~snap ~mode:Mode.IR ~recorded:Mode.IR
      ~frozen:(Mode_set.singleton Mode.IR) ~matters:true
  in
  Alcotest.check Alcotest.(list string) "cancels n2's record" [ "n2 Release new_owned=_ e9" ] sent

(* n1 owns nothing and adopts n2 as its accounting parent: the frozen set
   becomes n1's own and goes on to n1's child n3. *)
let test_grant_freeze_adopt () =
  let snap = { (fresh_snapshot ()) with Node.s_children = [ (3, Mode.IR, 1) ] } in
  let line, sent =
    grant_freeze_equivalent ~snap ~mode:Mode.IR ~recorded:Mode.IR
      ~frozen:(Mode_set.singleton Mode.IR) ~matters:true
  in
  Alcotest.check Alcotest.(list string) "n3 frozen in turn" [ "n3 Freeze {IR}" ] sent;
  checkb "adopted n2" true (contains ~sub:"acct=n2@9" line)

(* n1 already owns R under n0 when n2's grant of its older IR request
   arrives: n1 keeps n0, cancels n2's record and serves the IR out of its
   R. The Freeze, not from n0, revokes the cached R, and the weakening
   goes to n0. *)
let test_grant_freeze_late_grant () =
  let snap =
    { (fresh_snapshot ()) with Node.s_accounted_parent = Some 0; s_accounted_epoch = 1;
      s_last_reported = Some Mode.R; s_cached = Mode_set.singleton Mode.R }
  in
  let line, sent =
    grant_freeze_equivalent ~snap ~mode:Mode.IR ~recorded:Mode.IR
      ~frozen:(Mode_set.singleton Mode.R) ~matters:true
  in
  Alcotest.check Alcotest.(list string) "cancels n2's record, reports to n0"
    [ "n2 Release new_owned=_ e9"; "n0 Release new_owned=IR e1" ] sent;
  checkb "kept n0" true (contains ~sub:"acct=n0@1" line)

(* One delivery sequence into node 1 of 4, restored from [snap]: the
   messages n1 sent, as printed, and its state line at the end. *)
let deliver_to_n1 ~snap msgs =
  let sent = ref [] in
  let n =
    Node.restore ~id:1 ~peers:4
      ~send:(fun ~dst msg -> sent := Format.asprintf "n%d %a" dst Msg.pp msg :: !sent)
      snap
  in
  List.iter (fun (src, msg) -> Node.handle_msg n ~src msg) msgs;
  (List.rev !sent, Format.asprintf "%a" Node.pp_state n, n)

let own_request mode =
  { Msg.requester = 1; seq = 0; mode; upgrade = false; timestamp = 3; priority = 0; hops = 1;
    hint_stamp = 0; hint_owner = 0; path = [ 1 ] }

(* A frozen late grant (4-node fuzz seed 1283; DESIGN.md §2, repair 13):
   n1 owns R under n0 (through its child n3) with IR and R frozen when
   n2's copy grant of its older IR request arrives, recorded as IR.
   Adopting n2 would move n1's R under n2's IR record and detach it from
   n0, which could then grant a conflicting mode. n1 cancels n2's record,
   keeps n0 and handles the request as if the grant had never come: IR
   is frozen, so n1 may not grant it and asks n0 again (Rule 6). *)
let test_rule_d_frozen_late_grant () =
  let snap =
    { (fresh_snapshot ()) with Node.s_accounted_parent = Some 0; s_accounted_epoch = 1;
      s_last_reported = Some Mode.R; s_children = [ (3, Mode.R, 2) ];
      s_frozen = Mode_set.of_list [ Mode.IR; Mode.R ]; s_epoch_counter = 2 }
  in
  let sent, line, n =
    deliver_to_n1 ~snap
      [ (2, Msg.Grant { req = own_request Mode.IR; epoch = 9; recorded = Mode.IR;
                        frozen = Mode_set.empty }) ]
  in
  Alcotest.check Alcotest.(list string) "cancels n2's record, asks n0 again"
    [ "n2 Release new_owned=_ e9"; "n0 Request {n1#0 IR @3}" ] sent;
  checkb "kept n0" true (contains ~sub:"acct=n0@1" line);
  checkb "the request is pending" true (contains ~sub:"pending={n1#0 IR" line);
  Alcotest.(check (list (pair int Testkit.mode))) "holds nothing" [] (Node.held n)

(* Rule E (DESIGN.md §2, extending repair 5): n1 copy-granted n2's R at
   epoch 9, and the token n2 had already sent arrives with sender epoch 7. n2 adopts the grant's epoch
   and releases under it, so n1's record keeps epoch 9 and at least its
   mode R; at epoch 7 the Release would be dropped as stale and leave a
   phantom record. A residual of nothing keeps the record too: the grant
   gives n2 an R it has not reported yet. *)
let test_rule_e_token_keeps_record_epoch () =
  let snap =
    { (fresh_snapshot ()) with Node.s_accounted_parent = Some 0; s_accounted_epoch = 1;
      s_last_reported = Some Mode.R; s_children = [ (2, Mode.R, 9) ]; s_epoch_counter = 9 }
  in
  let token sender_owned =
    ( 2,
      Msg.Token
        { serving = { (own_request Mode.U) with Msg.hint_stamp = 3; hint_owner = 1 };
          sender_owned; sender_epoch = 7; queue = []; frozen = Mode_set.empty } )
  in
  let release = (2, Msg.Release { new_owned = None; epoch = 9 }) in
  List.iter
    (fun sender_owned ->
      let _, line, _ = deliver_to_n1 ~snap [ token sender_owned ] in
      checkb "record keeps R at epoch 9" true (contains ~sub:"children=[n2:R@9]" line);
      let _, _, n = deliver_to_n1 ~snap [ token sender_owned; release ] in
      Alcotest.(check (list (pair int Testkit.mode))) "the Release lands" [] (Node.children n))
    [ Some Mode.IR; None ]

(* A grant from the grantee's own subtree (32-node fuzz seed 453;
   DESIGN.md §2, repair 13): n1 accounts its child n3 under n0 and waits
   for its own R (IR and R frozen here). n2, a child of n3, copy-grants
   that R. Adopting n2 would close the accounting cycle n1 -> n2 -> n3 ->
   n1, whose records justify only each other, so n0 could grant a W over
   them. n1 already owns R under n0, as much as n2 recorded: it cancels
   n2's record, keeps n0, holds nothing and asks n0 again, as R is
   frozen. The same grant from n0, already n1's accounting parent, moves
   nothing and is adopted: refusing it would cancel n0's record of n1. *)
let test_rule_f_grant_from_subtree () =
  let snap =
    { (fresh_snapshot ()) with Node.s_accounted_parent = Some 0; s_accounted_epoch = 1;
      s_last_reported = Some Mode.R; s_children = [ (3, Mode.R, 2) ];
      s_frozen = Mode_set.of_list [ Mode.IR; Mode.R ]; s_epoch_counter = 2 }
  in
  let grant = Msg.Grant { req = own_request Mode.R; epoch = 9; recorded = Mode.R;
                          frozen = Mode_set.empty } in
  let sent, line, n = deliver_to_n1 ~snap [ (2, grant) ] in
  Alcotest.check Alcotest.(list string) "cancels n2's record, asks n0 again"
    [ "n2 Release new_owned=_ e9"; "n0 Request {n1#0 R @3}" ] sent;
  checkb "kept n0" true (contains ~sub:"acct=n0@1" line);
  checkb "the request is pending" true (contains ~sub:"pending={n1#0 R" line);
  Alcotest.(check (list (pair int Testkit.mode))) "holds nothing" [] (Node.held n);
  let sent, line, n = deliver_to_n1 ~snap [ (0, grant) ] in
  checkb "no refusal to n0" false (List.exists (contains ~sub:"Release") sent);
  checkb "adopted at epoch 9" true (contains ~sub:"acct=n0@9" line);
  Alcotest.(check (list (pair int Testkit.mode))) "holds R" [ (0, Mode.R) ] (Node.held n)

(* Rule 2 (DESIGN.md §2, repair 13) at equal strength: n1 owns a cached R
   under n0 when n2, outside n1's subtree, grants its older R request,
   recorded as R. Another parent already accounts for as much as n2
   recorded, so n1 refuses the grant: it cancels n2's record, keeps n0
   and serves the R out of its cached one. Adopting n2 would detach n1
   from n0 and move its R under n2. *)
let test_rule_2_equal_late_grant () =
  let snap =
    { (fresh_snapshot ()) with Node.s_accounted_parent = Some 0; s_accounted_epoch = 1;
      s_last_reported = Some Mode.R; s_cached = Mode_set.singleton Mode.R }
  in
  let sent, line, n =
    deliver_to_n1 ~snap
      [ (2, Msg.Grant { req = own_request Mode.R; epoch = 9; recorded = Mode.R;
                        frozen = Mode_set.empty }) ]
  in
  Alcotest.check Alcotest.(list string) "cancels n2's record only" [ "n2 Release new_owned=_ e9" ]
    sent;
  checkb "kept n0" true (contains ~sub:"acct=n0@1" line);
  checkb "did not adopt n2" false (contains ~sub:"granter=n2" line);
  Alcotest.(check (list (pair int Testkit.mode))) "serves the R" [ (0, Mode.R) ] (Node.held n)

(* The field-by-field service order and [request_lt] agree with the tuple
   keys they replaced, and merging two queues built by insertion equals
   the stable sort of their concatenation. Small field ranges force ties
   at every level. *)
let gen_request =
  QCheck2.Gen.(
    let* requester = int_bound 3 in
    let* seq = int_bound 3 in
    let* mode = Testkit.gen_mode in
    let* upgrade = bool in
    let* timestamp = int_bound 4 in
    let* priority = int_bound 2 in
    return
      { Msg.requester; seq; mode; upgrade; timestamp; priority; hops = 0;
        hint_stamp = 0; hint_owner = 0; path = [ requester ] })

let prop_service_order_matches_tuple_key =
  let key (r : Msg.request) =
    ((if r.upgrade then 0 else 1), -r.priority, (r.timestamp, r.requester, r.seq))
  in
  QCheck2.Test.make ~name:"service order agrees with the tuple key" ~count:2000
    QCheck2.Gen.(
      let queue = list_size (int_bound 8) gen_request in
      triple gen_request gen_request (pair queue queue))
    (fun (a, b, (xs, ys)) ->
      let insert_all = List.fold_left (fun q r -> Msg.insert_by_service_order r q) [] in
      let qa = insert_all xs and qb = insert_all ys in
      Msg.service_order a b = compare (key a) (key b)
      && Msg.request_lt a b
         = ((a.timestamp, a.requester, a.seq) < (b.timestamp, b.requester, b.seq))
      && sorted_by_service_order qa
      && Msg.merge_queues qa qb = List.stable_sort Msg.service_order (qa @ qb))

(* The relay hop choice, pinned against the list-based selection that
   [Node.forward_onward] replaced: an explicit override, then the stamped
   parent edge and the gossiped token hint ranked by stamp (stable, so the
   parent wins ties), then the copyset links, the lowest unvisited id and
   the sweep restart. The hint may be a visited node when it is strictly
   fresher than the request's and names another node: the request goes
   there anyway and its path restarts at this node. Returns the
   destination and the relayed request. *)
let spec_forward ~id ~peers ~parent ~parent_stamp ~my_hint ~accounted ~last_granter ?via
    (r : Msg.request) =
  let fresher = fst my_hint > r.Msg.hint_stamp in
  let r =
    { r with Msg.hops = r.Msg.hops + 1;
             path = (if List.mem id r.Msg.path then r.Msg.path else id :: r.Msg.path) }
  in
  let hint_stamp, hint_owner = if fresher then my_hint else (r.Msg.hint_stamp, r.Msg.hint_owner) in
  let r = { r with Msg.hint_stamp; hint_owner } in
  let unvisited p = not (List.mem p r.Msg.path) in
  let restartable p =
    fresher && p = snd my_hint && p <> id && p >= 0 && p < peers && not (unvisited p)
  in
  let by_freshness =
    let parentc = match parent with Some p -> [ (parent_stamp, p) ] | None -> [] in
    let ranked = List.sort (fun (a, _) (b, _) -> compare b a) (parentc @ [ my_hint ]) in
    (match via with Some v -> [ (v, false) ] | None -> [])
    @ List.map (fun (stamp, p) -> (p, stamp = fst my_hint && restartable p)) ranked
  in
  match List.find_opt (fun (p, restart) -> restart || unvisited p) by_freshness with
  | Some (p, true) when not (unvisited p) -> (p, { r with Msg.path = [ id ] })
  | Some (p, _) -> (p, r)
  | None -> (
      let live_links = List.filter_map Fun.id [ via; Some r.Msg.hint_owner; accounted; last_granter ] in
      match List.find_opt unvisited (live_links @ List.init peers Fun.id) with
      | Some p -> (p, r)
      | None ->
          (* The sweep is exhausted: restart it from this node. *)
          ((match parent with Some p -> p | None -> (id + 1) mod peers), { r with Msg.path = [ id ] }))

(* Draws for one relay at a restored non-token node. Half are small
   populations with duplicate-free sorted paths; the other half span the
   62-id word boundaries of a per-peer bit set (60..130 peers) with paths
   that repeat ids, carry ids outside [0, peers) (a path may; a decoded
   hint may name an id >= peers), and may visit every node, which forces
   the sweep restart. With [via] set the node first issues its own
   request of the same mode, so the older remote request takes the
   elder-request branch, which relays along the fresher of the two token
   hints. *)
let relay_gen =
  QCheck2.Gen.(
    let* wide = bool in
    let* peers = if wide then int_range 60 130 else int_range 2 6 in
    let node = int_bound (peers - 1) in
    let stamp = int_bound 3 in
    let* id = node in
    let* requester = map (fun k -> (id + 1 + k) mod peers) (int_bound (peers - 2)) in
    let* parent = opt node in
    let* parent_stamp = stamp in
    let* hint = pair stamp node in
    let* accounted = opt node in
    let* last_granter = opt node in
    let beyond = int_range peers (peers + 3) in
    let stray = oneof [ int_range (-3) (-1); beyond ] in
    let* r_hint = pair stamp (if wide then frequency [ (3, node); (1, beyond) ] else node) in
    let* path =
      if not wide then map (List.sort_uniq compare) (list_size (int_bound (peers + 1)) node)
      else
        let* visited =
          oneof
            [ list_size (int_bound (peers + 5)) node;
              (let* skip = list_size (int_bound 2) node in
               return (List.filter (fun i -> not (List.mem i skip)) (List.init peers Fun.id))) ]
        in
        let* extra = list_size (int_bound 4) (frequency [ (3, node); (1, stray) ]) in
        shuffle_l (visited @ extra)
    in
    let* hops = int_bound 5 in
    let* mode = Testkit.gen_mode in
    let* via = bool in
    return
      ( (peers, id, parent, parent_stamp, hint),
        (accounted, last_granter, via),
        { Msg.requester; seq = 0; mode; upgrade = false; timestamp = 0; priority = 0; hops;
          hint_stamp = fst r_hint; hint_owner = snd r_hint; path } ))

(* Drive a restored non-token node through [handle_msg (Request r)] and
   return what it sent. *)
let relay_once ((peers, id, parent, parent_stamp, hint), (accounted, last_granter, via), r) =
  let sent = ref [] in
  let snapshot =
    { Node.s_token = false; s_parent = parent; s_parent_stamp = parent_stamp;
      s_accounted_parent = accounted; s_accounted_epoch = 0; s_last_reported = None;
      s_cached = Mode_set.empty; s_children = []; s_queue = []; s_frozen = Mode_set.empty;
      s_sent_freeze = []; s_tenure = 0; s_hint = hint; s_last_granter = last_granter;
      s_next_seq = 0; s_clock = 5; s_epoch_counter = 0 }
  in
  let n = Node.restore ~id ~peers ~send:(fun ~dst msg -> sent := (dst, msg) :: !sent) snapshot in
  if via then ignore (Node.request n ~mode:r.Msg.mode ~on_granted:ignore);
  sent := [];
  Node.handle_msg n ~src:r.Msg.requester (Msg.Request r);
  !sent

(* [relay_once]'s one relayed request, compared with [spec_forward]. *)
let prop_relay_matches_list_spec =
  QCheck2.Test.make ~name:"relay hop choice matches the list-based spec" ~count:2000 relay_gen
    (fun (((peers, id, parent, parent_stamp, hint), (accounted, last_granter, via), r) as draw) ->
      let sent = relay_once draw in
      (* [handle_msg] adopts the fresher of the two hints before routing. *)
      let my_hint =
        if r.Msg.hint_stamp > fst hint then (r.Msg.hint_stamp, r.Msg.hint_owner) else hint
      in
      let via =
        if via then Some (if fst my_hint >= r.Msg.hint_stamp then snd my_hint else r.Msg.hint_owner)
        else None
      in
      let dst, expected =
        spec_forward ~id ~peers ~parent ~parent_stamp ~my_hint ~accounted ~last_granter ?via r
      in
      match sent with
      | [ (d, Msg.Request got) ] ->
          d = dst && got.Msg.hops = expected.Msg.hops && got.Msg.path = expected.Msg.path
          && got.Msg.hint_stamp = expected.Msg.hint_stamp
          && got.Msg.hint_owner = expected.Msg.hint_owner
      | _ -> false)

(* A relay that sends a request back to a node its path already visited,
   without having exhausted the sweep, is a restart toward a fresher token
   hint: it must raise the request's hint stamp, which bounds restarts by
   token moves. Fixed draws of [relay_gen]; some must restart. *)
let test_restart_raises_hint_stamp () =
  let rand = Random.State.make [| 42 |] in
  let restarts = ref 0 in
  List.iter
    (fun (((peers, id, _, _, _), _, r) as draw) ->
      match relay_once draw with
      | [ (dst, Msg.Request got) ] ->
          let seen p = p = id || List.mem p r.Msg.path in
          let exhausted = List.for_all seen (List.init peers Fun.id) in
          if seen dst && dst <> id && not exhausted then begin
            incr restarts;
            checkb "restart raises the hint stamp" true (got.Msg.hint_stamp > r.Msg.hint_stamp);
            Alcotest.(check (list int)) "path restarts here" [ id ] got.Msg.path
          end
      | _ -> Alcotest.fail "expected one relayed request")
    (QCheck2.Gen.generate ~rand ~n:2000 relay_gen);
  checkb "some relays restart" true (!restarts > 0)

(* A request whose path already visited the node that holds the token now
   (it passed there before the token arrived) reaches it in one hop from a
   node whose hint is fresher, instead of being excluded and sweeping.
   n2's parent n3 and every other node are on the path, so without the
   fresher hint the sweep would be exhausted and restart at n3. *)
let test_fresh_hint_beats_visited_set () =
  let sent = ref [] in
  let restore ~id ~token ~parent ~hint =
    Node.restore ~id ~peers:4
      ~send:(fun ~dst msg -> sent := (id, dst, msg) :: !sent)
      { Node.s_token = token; s_parent = parent; s_parent_stamp = 0; s_accounted_parent = None;
        s_accounted_epoch = 0; s_last_reported = None; s_cached = Mode_set.empty;
        s_children = []; s_queue = []; s_frozen = Mode_set.empty; s_sent_freeze = [];
        s_tenure = 5; s_hint = hint; s_last_granter = None; s_next_seq = 0; s_clock = 0;
        s_epoch_counter = 0 }
  in
  let n1 = restore ~id:1 ~token:true ~parent:None ~hint:(5, 1) in
  let n2 = restore ~id:2 ~token:false ~parent:(Some 3) ~hint:(5, 1) in
  let w =
    { Msg.requester = 0; seq = 0; mode = Mode.W; upgrade = false; timestamp = 1; priority = 0;
      hops = 3; hint_stamp = 2; hint_owner = 3; path = [ 3; 1; 0 ] }
  in
  Node.handle_msg n2 ~src:3 (Msg.Request w);
  let relayed =
    match !sent with
    | [ (2, 1, Msg.Request r) ] -> r
    | _ -> Alcotest.fail "n2 should relay the request to n1 only"
  in
  Alcotest.(check (list int)) "path restarts at n2" [ 2 ] relayed.Msg.path;
  checki "hint stamp raised to n2's" 5 relayed.Msg.hint_stamp;
  checki "no sweep restart" 0 (Node.sweep_restarts n2);
  sent := [];
  Node.handle_msg n1 ~src:2 (Msg.Request relayed);
  checkb "n1 hands the token to n0" true
    (match !sent with [ (1, 0, Msg.Token _) ] -> true | _ -> false)

let test_merge_queues_orders_by_timestamp () =
  let mk ts id = { Msg.requester = id; seq = 0; mode = Mode.R; upgrade = false; timestamp = ts; priority = 0;
                   hops = 0; hint_stamp = 0; hint_owner = 0; path = [ id ] } in
  let merged = Msg.merge_queues [ mk 5 1; mk 9 2 ] [ mk 3 3; mk 7 4 ] in
  Alcotest.check (Alcotest.list Alcotest.int) "by timestamp" [ 3; 1; 4; 2 ]
    (List.map (fun (r : Msg.request) -> r.Msg.requester) merged)

(* Regression for the held-grant table (an assoc list until it showed up
   in profiles; now a hash table): a node holding many compatible grants
   at once must keep every lookup, insert and removal exact, and the
   [held] view must stay sorted by sequence number. *)
let test_many_concurrent_holds () =
  (* caching off so [owned] tracks the held grants alone. *)
  let c = SC.create ~config:no_cache_config 1 in
  let n = 200 in
  let seqs =
    List.init n (fun i ->
        SC.acquire c ~node:0 ~mode:(if i mod 2 = 0 then Mode.IR else Mode.R))
  in
  let held = Node.held (SC.node c 0) in
  checki "all grants held" n (List.length held);
  checkb "sorted by seq" true (List.sort compare held = held);
  List.iteri
    (fun i seq ->
      Alcotest.check (Alcotest.option Testkit.mode) "mode by seq"
        (Some (if i mod 2 = 0 then Mode.IR else Mode.R))
        (List.assoc_opt seq held))
    seqs;
  SC.check_safety c;
  (* The strongest held grant (R) dominates the owned mode. *)
  Alcotest.check (Alcotest.option Testkit.mode) "owned is R" (Some Mode.R)
    (Node.owned (SC.node c 0));
  (* Release every other grant (all the Rs), newest first. *)
  let drop = List.rev (List.filteri (fun i _ -> i mod 2 = 1) seqs) in
  let keep = List.filteri (fun i _ -> i mod 2 = 0) seqs in
  List.iter (fun seq -> SC.release c ~node:0 ~seq) drop;
  let held = Node.held (SC.node c 0) in
  checki "half released" (List.length keep) (List.length held);
  List.iter (fun seq -> checkb "kept grant present" true (List.mem_assoc seq held)) keep;
  checkb "released grants gone" true
    (List.for_all (fun seq -> not (List.mem_assoc seq held)) drop);
  Alcotest.check (Alcotest.option Testkit.mode) "owned falls back to IR" (Some Mode.IR)
    (Node.owned (SC.node c 0));
  List.iter (fun seq -> SC.release c ~node:0 ~seq) keep;
  checki "all released" 0 (List.length (Node.held (SC.node c 0)))

(* {1 Client continuations} *)

(* Deliver messages one at a time until [fired ()] holds; returns the
   destination and the message whose delivery made it hold. *)
let step_until c fired =
  let rec go () =
    match c.SC.wire with
    | [] -> Alcotest.fail "network drained before the continuation ran"
    | (_, dst, msg) :: _ ->
        ignore (SC.step c);
        if fired () then (dst, msg) else go ()
  in
  go ()

let seqs = Alcotest.(list int)

(* Rule 2: a cached mode is re-acquired without messages, and the
   continuation runs inside [request], after the node has finished with
   the call (nothing left waiting). *)
let test_local_grant_continuation () =
  let c = SC.create 3 in
  let n1 = SC.node c 1 in
  SC.release c ~node:1 ~seq:(SC.acquire c ~node:1 ~mode:Mode.R);
  let sent = SC.messages_sent c in
  let runs = ref [] and waiting_inside = ref (-1) in
  let seq =
    Node.request n1 ~mode:Mode.R ~on_granted:(fun s ->
        runs := s :: !runs;
        waiting_inside := Node.waiting n1)
  in
  Alcotest.check seqs "ran once, with its seq, before request returned" [ seq ] !runs;
  checki "message-free" sent (SC.messages_sent c);
  checki "nothing left waiting when it ran" 0 !waiting_inside;
  SC.settle c;
  Alcotest.check seqs "never again" [ seq ] !runs

(* The continuation of a grant made inside [request] runs after every
   message the call emits. Here the token's own IR is granted at once, and
   the same call then serves the stale queue head: a copy grant of IW to
   n1 that carries n1's frozen set. The continuation must see it already
   sent. *)
let test_local_grant_after_call_messages () =
  let c = SC.create 3 in
  ignore (SC.request c ~node:2 ~mode:Mode.U);
  ignore (SC.request c ~node:0 ~mode:Mode.IW);
  SC.release c ~node:0 ~seq:(SC.request c ~node:0 ~mode:Mode.IR);
  SC.settle c;
  let iw = SC.request c ~node:1 ~mode:Mode.IW in
  SC.settle c;
  let before = SC.messages_sent c in
  let seen = ref (-1) in
  ignore (Node.request (SC.node c 0) ~mode:Mode.IR ~on_granted:(fun _ -> seen := SC.messages_sent c));
  checki "the call sent one grant, carrying the freeze" (before + 1) (SC.messages_sent c);
  (match List.rev c.SC.wire with
  | (0, 1, Msg.Grant { frozen; _ }) :: _ ->
      Alcotest.check Testkit.mode_set "frozen set on the grant" (Mode_set.singleton Mode.IW) frozen
  | _ -> Alcotest.fail "last message is not n0's grant to n1");
  checki "the continuation ran after it" (SC.messages_sent c) !seen;
  SC.settle c;
  checkb "n1 granted" true (SC.granted c ~node:1 ~seq:iw)

let test_remote_grant_continuation () =
  let c = SC.create 3 in
  let n1 = SC.node c 1 in
  let runs = ref [] in
  let seq = Node.request n1 ~mode:Mode.W ~on_granted:(fun s -> runs := s :: !runs) in
  Alcotest.check seqs "not run by request" [] !runs;
  checki "one waiting" 1 (Node.waiting n1);
  let dst, msg = step_until c (fun () -> !runs <> []) in
  checki "ran at the requester" 1 dst;
  checkb "inside the delivery of the token" true (match msg with Msg.Token _ -> true | _ -> false);
  Alcotest.check seqs "once, with its seq" [ seq ] !runs;
  checki "nothing waiting" 0 (Node.waiting n1);
  SC.settle c;
  Alcotest.check seqs "never again" [ seq ] !runs

(* Rule 7 at the token with no other holder: the upgrade completes inside
   [upgrade]. *)
let test_local_upgrade_continuation () =
  let c = SC.create 3 in
  let n0 = SC.node c 0 in
  let u = SC.acquire c ~node:0 ~mode:Mode.U in
  let sent = SC.messages_sent c in
  let runs = ref [] in
  Node.upgrade n0 ~seq:u ~on_upgraded:(fun s -> runs := s :: !runs);
  Alcotest.check seqs "ran once, with its seq, before upgrade returned" [ u ] !runs;
  checki "message-free" sent (SC.messages_sent c);
  checkb "holds W" true (Node.held n0 = [ (u, Mode.W) ]);
  SC.settle c;
  Alcotest.check seqs "never again" [ u ] !runs

(* The upgrade waits for a remote reader; the reader's Release completes it
   inside that message's delivery. *)
let test_remote_upgrade_continuation () =
  let c = SC.create ~config:no_cache_config 3 in
  let n0 = SC.node c 0 in
  let u = SC.acquire c ~node:0 ~mode:Mode.U in
  let r = SC.acquire c ~node:1 ~mode:Mode.R in
  let runs = ref [] in
  Node.upgrade n0 ~seq:u ~on_upgraded:(fun s -> runs := s :: !runs);
  SC.settle c;
  Alcotest.check seqs "waits for the reader" [] !runs;
  checki "one waiting" 1 (Node.waiting n0);
  SC.release c ~node:1 ~seq:r;
  let dst, msg = step_until c (fun () -> !runs <> []) in
  checki "ran at the token" 0 dst;
  checkb "inside the delivery of the release" true
    (match msg with Msg.Release _ -> true | _ -> false);
  Alcotest.check seqs "once, with its seq" [ u ] !runs;
  checki "nothing waiting" 0 (Node.waiting n0);
  SC.settle c;
  Alcotest.check seqs "never again" [ u ] !runs

let test_waiting_counts () =
  let c = SC.create 3 in
  let n1 = SC.node c 1 in
  checki "fresh node" 0 (Node.waiting n1);
  let r = SC.request c ~node:1 ~mode:Mode.R in
  let ir = SC.request c ~node:1 ~mode:Mode.IR in
  checki "two clients waiting" 2 (Node.waiting n1);
  SC.settle c;
  checkb "both granted" true (SC.granted c ~node:1 ~seq:r && SC.granted c ~node:1 ~seq:ir);
  checki "back to zero" 0 (Node.waiting n1);
  SC.release c ~node:1 ~seq:r;
  SC.release c ~node:1 ~seq:ir;
  SC.settle c;
  checki "still zero" 0 (Node.waiting n1)

(* The token node's own W queues behind a remote reader: nothing is held
   and nothing pending there, yet the waiting client pins it. *)
let test_export_refuses_waiting_client () =
  let c = SC.create ~config:no_cache_config 3 in
  let n0 = SC.node c 0 in
  (* Holding R, the token copy-grants R instead of moving. *)
  let r0 = SC.acquire c ~node:0 ~mode:Mode.R in
  let r = SC.acquire c ~node:1 ~mode:Mode.R in
  SC.release c ~node:0 ~seq:r0;
  let w = SC.request c ~node:0 ~mode:Mode.W in
  SC.settle c;
  checkb "token node neither holds nor has a pending request" true
    (Node.is_token n0 && Node.held n0 = [] && Node.pending n0 = None);
  checki "its client waits" 1 (Node.waiting n0);
  checkb "export raises" true
    (match Node.export n0 with
    | _ -> false
    | exception Invalid_argument msg -> contains ~sub:"waiting" msg);
  SC.release c ~node:1 ~seq:r;
  SC.settle c;
  checkb "W granted" true (SC.granted c ~node:0 ~seq:w);
  SC.release c ~node:0 ~seq:w;
  SC.settle c;
  ignore (Node.export n0)

let () =
  Alcotest.run "dcs_hlock"
    [
      ( "basics",
        [
          Alcotest.test_case "token self-grants" `Quick test_token_self_grants;
          Alcotest.test_case "incompatible local queues" `Quick test_incompatible_local_queues;
          Alcotest.test_case "grant and transfer" `Quick test_remote_grant_and_transfer;
          Alcotest.test_case "idle token copy-grants R" `Quick test_idle_token_copy_grants_read;
          Alcotest.test_case "concurrent readers" `Quick test_concurrent_readers;
          Alcotest.test_case "writer excludes readers" `Quick test_writer_excludes_readers;
          Alcotest.test_case "many concurrent holds" `Quick test_many_concurrent_holds;
          Alcotest.test_case "create refuses bad ids" `Quick test_create_rejects_bad_ids;
        ] );
      ( "figure-2",
        [ Alcotest.test_case "release suppression (Rule 5.2)" `Quick test_release_suppression_rule_5_2 ] );
      ( "figure-3",
        [
          Alcotest.test_case "freezing blocks newcomers" `Quick test_freezing_blocks_compatible_newcomers;
          Alcotest.test_case "no-freeze ablation overtakes" `Quick test_no_freezing_ablation_allows_overtaking;
          Alcotest.test_case "fifo write then reads" `Quick test_fifo_write_then_reads;
        ] );
      ( "rule-7",
        [
          Alcotest.test_case "immediate upgrade" `Quick test_upgrade_immediate_when_alone;
          Alcotest.test_case "waits for readers" `Quick test_upgrade_waits_for_readers;
          Alcotest.test_case "outranks queued requests" `Quick test_upgrade_outranks_queued_requests;
          Alcotest.test_case "invalid args" `Quick test_upgrade_invalid_args;
        ] );
      ( "caching",
        [
          Alcotest.test_case "cache hit is free" `Quick test_cached_reacquisition_is_free;
          Alcotest.test_case "revoked by conflict" `Quick test_cache_revoked_by_conflict;
          Alcotest.test_case "no-caching ablation" `Quick test_no_caching_ablation;
        ] );
      ( "custody",
        [
          Alcotest.test_case "mutual IW no deadlock" `Quick test_mutual_iw_requests_no_deadlock;
          Alcotest.test_case "release epoch guard" `Quick test_release_epoch_guard;
          Alcotest.test_case "rule 1: no grant to own parent" `Quick
            test_rule_1_no_grant_to_parent;
          Alcotest.test_case "rule C: late grant keeps epoch" `Quick
            test_rule_c_late_grant_keeps_epoch;
          Alcotest.test_case "stale messages ignored" `Quick test_stale_messages_ignored;
          Alcotest.test_case "kick watchdog" `Quick test_kick_recirculates_custody;
        ] );
      ( "priorities",
        [
          Alcotest.test_case "service order" `Quick test_priority_service_order;
          Alcotest.test_case "across nodes" `Quick test_priority_across_nodes;
          Alcotest.test_case "fifo within level" `Quick test_priority_fifo_within_level;
          Alcotest.test_case "upgrade outranks" `Quick test_upgrade_outranks_priorities;
          Alcotest.test_case "negative rejected" `Quick test_negative_priority_rejected;
        ] );
      ( "stress",
        [
          Alcotest.test_case "default config" `Slow test_stress_default;
          Alcotest.test_case "no caching" `Slow test_stress_no_cache;
          Alcotest.test_case "no freezing" `Slow test_stress_no_freeze;
          Alcotest.test_case "eager releases" `Slow test_stress_eager;
          Alcotest.test_case "12 nodes" `Slow test_stress_larger;
        ] );
      ( "qcheck-scripts",
        [
          QCheck_alcotest.to_alcotest prop_random_scripts;
          QCheck_alcotest.to_alcotest prop_random_scripts_no_cache;
          QCheck_alcotest.to_alcotest prop_random_scripts_priorities;
        ] );
      ( "snapshots",
        [
          QCheck_alcotest.to_alcotest prop_snapshot_roundtrip;
          Alcotest.test_case "stale sent-freeze entry" `Quick test_stale_sent_freeze_roundtrips;
          Alcotest.test_case "printer shows every field" `Quick test_pp_state_shows_every_field;
          Alcotest.test_case "out-of-range ids refused" `Quick test_restore_rejects_bad_ids;
          Alcotest.test_case "freeze walk word boundaries" `Quick test_freeze_walk_word_boundaries;
        ]
        @ List.map
            (fun (what, corrupt) ->
              Alcotest.test_case ("bad " ^ what ^ " refused") `Quick (restore_refuses what corrupt))
            restore_field_cases );
      ( "messages",
        [
          Alcotest.test_case "classes" `Quick test_msg_classes;
          Alcotest.test_case "grant freeze: token race" `Quick test_grant_freeze_token_race;
          Alcotest.test_case "grant freeze: granter is child" `Quick
            test_grant_freeze_granter_is_child;
          Alcotest.test_case "grant freeze: adopt" `Quick test_grant_freeze_adopt;
          Alcotest.test_case "grant freeze: late grant" `Quick test_grant_freeze_late_grant;
          Alcotest.test_case "rule D: frozen late grant" `Quick test_rule_d_frozen_late_grant;
          Alcotest.test_case "rule E: token keeps epoch" `Quick
            test_rule_e_token_keeps_record_epoch;
          Alcotest.test_case "rule F: grant from subtree" `Quick test_rule_f_grant_from_subtree;
          Alcotest.test_case "rule 2: equal late grant" `Quick test_rule_2_equal_late_grant;
          Alcotest.test_case "queue merging" `Quick test_merge_queues_orders_by_timestamp;
          QCheck_alcotest.to_alcotest prop_service_order_matches_tuple_key;
          QCheck_alcotest.to_alcotest prop_relay_matches_list_spec;
          Alcotest.test_case "restart raises hint stamp" `Quick test_restart_raises_hint_stamp;
          Alcotest.test_case "fresh hint beats visited set" `Quick
            test_fresh_hint_beats_visited_set;
        ] );
      ( "owned bookkeeping",
        [
          Alcotest.test_case "U/IW tie-break" `Quick test_owned_tie_break;
          Alcotest.test_case "held/cached win ties" `Quick test_owned_local_wins_ties;
          Alcotest.test_case "upgrade masks U" `Quick test_upgrade_masks_u;
        ] );
      ( "continuations",
        [
          Alcotest.test_case "local grant inside request" `Quick test_local_grant_continuation;
          Alcotest.test_case "local grant after the call's messages" `Quick
            test_local_grant_after_call_messages;
          Alcotest.test_case "remote grant inside delivery" `Quick test_remote_grant_continuation;
          Alcotest.test_case "local upgrade inside upgrade" `Quick test_local_upgrade_continuation;
          Alcotest.test_case "remote upgrade inside delivery" `Quick
            test_remote_upgrade_continuation;
          Alcotest.test_case "waiting counts" `Quick test_waiting_counts;
          Alcotest.test_case "export refuses a waiting client" `Quick
            test_export_refuses_waiting_client;
        ] );
    ]
