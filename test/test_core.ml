(* Tests for the public facade: the CORBA-style lock-set service. *)

module S = Core.Service

let checkb = Alcotest.check Alcotest.bool

let test_basic_lock_unlock () =
  let svc = S.create ~nodes:4 ~seed:1L ~oracle:true ~locks:[ "a"; "b" ] () in
  let sequence = ref [] in
  S.lock svc ~node:1 ~name:"a" ~mode:Core.Mode.W (fun t ->
      sequence := "n1-locked" :: !sequence;
      S.schedule svc ~after:10.0 (fun () ->
          S.unlock svc t;
          sequence := "n1-released" :: !sequence));
  S.lock svc ~node:2 ~name:"a" ~mode:Core.Mode.W (fun t ->
      sequence := "n2-locked" :: !sequence;
      S.unlock svc t);
  S.run svc;
  (* Writer exclusion: n2 only after n1 released. *)
  Alcotest.check
    Alcotest.(list string)
    "serialized writers"
    [ "n1-locked"; "n1-released"; "n2-locked" ]
    (List.rev !sequence)

let test_lock_names_and_errors () =
  let svc = S.create ~nodes:2 ~locks:[ "x" ] () in
  Alcotest.check Alcotest.(list string) "names" [ "x" ] (S.lock_names svc);
  checkb "unknown name" true
    (try
       S.lock svc ~node:0 ~name:"nope" ~mode:Core.Mode.R (fun _ -> ());
       false
     with Not_found -> true);
  checkb "duplicate names rejected" true
    (try
       ignore (S.create ~nodes:2 ~locks:[ "x"; "x" ] ());
       false
     with Invalid_argument _ -> true);
  checkb "empty lock list rejected" true
    (try
       ignore (S.create ~nodes:2 ~locks:[] ());
       false
     with Invalid_argument _ -> true)

let test_double_unlock_rejected () =
  let svc = S.create ~nodes:2 ~locks:[ "x" ] () in
  let saved = ref None in
  S.lock svc ~node:0 ~name:"x" ~mode:Core.Mode.R (fun t -> saved := Some t);
  S.run svc;
  let t = Option.get !saved in
  S.unlock svc t;
  checkb "double unlock raises" true
    (try
       S.unlock svc t;
       false
     with Invalid_argument _ -> true)

let test_try_lock_timeout () =
  let svc = S.create ~nodes:3 ~seed:3L ~locks:[ "x" ] () in
  let outcome = ref `Pending in
  (* Node 1 camps on W for a long time. *)
  S.lock svc ~node:1 ~name:"x" ~mode:Core.Mode.W (fun t ->
      S.schedule svc ~after:5000.0 (fun () -> S.unlock svc t));
  (* Node 2 tries with a short timeout: must give up. *)
  S.schedule svc ~after:100.0 (fun () ->
      S.try_lock svc ~node:2 ~name:"x" ~mode:Core.Mode.W ~timeout:500.0 (function
        | Some t ->
            outcome := `Got;
            S.unlock svc t
        | None -> outcome := `Timeout));
  S.run svc;
  checkb "timed out" true (!outcome = `Timeout)

let test_try_lock_success () =
  let svc = S.create ~nodes:3 ~seed:4L ~locks:[ "x" ] () in
  let outcome = ref `Pending in
  S.try_lock svc ~node:2 ~name:"x" ~mode:Core.Mode.R ~timeout:5000.0 (function
    | Some t ->
        outcome := `Got;
        S.unlock svc t
    | None -> outcome := `Timeout);
  S.run svc;
  checkb "granted" true (!outcome = `Got)

(* On the idle token node the grant fires inside the call: the ticket
   must be bound before [k] sees it (so [k] can unlock at once), [k] must
   run once, and the timeout must not answer afterwards. *)
let test_try_lock_granted_in_call () =
  let svc = S.create ~nodes:3 ~seed:6L ~oracle:true ~locks:[ "x" ] () in
  let answers = ref [] in
  S.try_lock svc ~node:0 ~name:"x" ~mode:Core.Mode.W ~timeout:50.0 (fun o ->
      answers := o :: !answers;
      Option.iter (S.unlock svc) o);
  checkb "granted inside the call" true (match !answers with [ Some _ ] -> true | _ -> false);
  S.run svc;
  Alcotest.check Alcotest.int "answered once" 1 (List.length !answers);
  checkb "lock free again" true ((S.stats svc ~name:"x").S.held = [])

let test_change_mode_upgrade () =
  let svc = S.create ~nodes:3 ~seed:5L ~oracle:true ~locks:[ "x" ] () in
  let upgraded = ref false in
  S.lock svc ~node:1 ~name:"x" ~mode:Core.Mode.U (fun t ->
      S.change_mode svc t ~mode:Core.Mode.W (fun () ->
          upgraded := true;
          S.unlock svc t));
  S.run svc;
  checkb "upgraded" true !upgraded

let test_change_mode_invalid () =
  let svc = S.create ~nodes:2 ~locks:[ "x" ] () in
  let saved = ref None in
  S.lock svc ~node:0 ~name:"x" ~mode:Core.Mode.R (fun t -> saved := Some t);
  S.run svc;
  checkb "R->W rejected (only U->W supported via ticket in U)" true
    (try
       S.change_mode svc (Option.get !saved) ~mode:Core.Mode.R (fun () -> ());
       false
     with Invalid_argument _ -> true)

let test_readers_share () =
  let svc = S.create ~nodes:6 ~seed:6L ~oracle:true ~locks:[ "x" ] () in
  let concurrent = ref 0 and peak = ref 0 in
  for node = 0 to 5 do
    S.lock svc ~node ~name:"x" ~mode:Core.Mode.R (fun t ->
        incr concurrent;
        if !concurrent > !peak then peak := !concurrent;
        S.schedule svc ~after:300.0 (fun () ->
            decr concurrent;
            S.unlock svc t))
  done;
  S.run svc;
  checkb "readers overlapped" true (!peak >= 2)

let test_message_accounting () =
  let svc = S.create ~nodes:4 ~seed:7L ~locks:[ "x" ] () in
  S.lock svc ~node:3 ~name:"x" ~mode:Core.Mode.W (fun t -> S.unlock svc t);
  S.run svc;
  checkb "messages counted" true (Core.Counters.total (S.message_counters svc) > 0);
  checkb "mean latency positive" true (S.mean_latency svc > 0.0)

(* {1 Priorities through the facade} *)

let test_priority_through_service () =
  (* Priority ordering is exact where requests share a queue (the token
     node); see DESIGN.md §4b for the bounded-inversion semantics inside
     custody chains. Three clients of the same node contend. *)
  let svc = S.create ~nodes:1 ~seed:8L ~oracle:true ~locks:[ "x" ] () in
  let order = ref [] in
  S.lock svc ~node:0 ~name:"x" ~mode:Core.Mode.R (fun t ->
      S.schedule svc ~after:1000.0 (fun () -> S.unlock svc t));
  S.schedule svc ~after:200.0 (fun () ->
      S.lock svc ~node:0 ~name:"x" ~mode:Core.Mode.W (fun t ->
          order := `Low :: !order;
          S.unlock svc t));
  S.schedule svc ~after:400.0 (fun () ->
      S.lock ~priority:5 svc ~node:0 ~name:"x" ~mode:Core.Mode.W (fun t ->
          order := `High :: !order;
          S.unlock svc t));
  S.run svc;
  checkb "high-priority writer served first" true (List.rev !order = [ `High; `Low ])

(* {1 Hierarchy} *)

module H = Core.Hierarchy

let store_spec =
  [
    ("store", None);
    ("users", Some "store");
    ("orders", Some "store");
    ("users/1", Some "users");
    ("users/2", Some "users");
    ("orders/1", Some "orders");
  ]

let test_hierarchy_plan () =
  let h = H.create store_spec in
  Alcotest.check
    Alcotest.(list string)
    "ancestors" [ "store"; "users" ] (H.ancestors h "users/1");
  let plan = H.plan h ~name:"users/1" ~access:H.Write in
  Alcotest.check
    Alcotest.(list (pair string Testkit.mode))
    "write plan"
    [ ("store", Core.Mode.IW); ("users", Core.Mode.IW); ("users/1", Core.Mode.W) ]
    plan;
  let rplan = H.plan h ~name:"users" ~access:H.Read in
  Alcotest.check
    Alcotest.(list (pair string Testkit.mode))
    "read plan"
    [ ("store", Core.Mode.IR); ("users", Core.Mode.R) ]
    rplan;
  let uplan = H.plan h ~name:"orders/1" ~access:H.Upgrade_read in
  Alcotest.check
    Alcotest.(list (pair string Testkit.mode))
    "upgrade plan"
    [ ("store", Core.Mode.IW); ("orders", Core.Mode.IW); ("orders/1", Core.Mode.U) ]
    uplan

let test_hierarchy_validation () =
  checkb "duplicate" true
    (try ignore (H.create [ ("a", None); ("a", None) ]); false
     with Invalid_argument _ -> true);
  checkb "unknown parent" true
    (try ignore (H.create [ ("a", Some "ghost") ]); false
     with Invalid_argument _ -> true);
  checkb "cycle" true
    (try ignore (H.create [ ("a", Some "b"); ("b", Some "a") ]); false
     with Invalid_argument _ -> true);
  let h = H.create store_spec in
  checkb "names are parent-first" true
    (let names = H.names h in
     let idx n = Option.get (List.find_index (String.equal n) names) in
     idx "store" < idx "users" && idx "users" < idx "users/1")

let test_hierarchy_end_to_end () =
  let h = H.create store_spec in
  let svc = S.create ~nodes:4 ~seed:9L ~oracle:true ~locks:(H.names h) () in
  let events = ref [] in
  (* A document write excludes a concurrent collection-wide read of the
     same collection but not of a sibling collection. *)
  H.acquire h svc ~node:1 ~name:"users/1" ~access:H.Write (fun g ->
      events := "w-start" :: !events;
      S.schedule svc ~after:500.0 (fun () ->
          events := "w-end" :: !events;
          H.release svc g));
  S.schedule svc ~after:200.0 (fun () ->
      H.acquire h svc ~node:2 ~name:"users" ~access:H.Read (fun g ->
          events := "users-read" :: !events;
          H.release svc g));
  S.schedule svc ~after:200.0 (fun () ->
      H.acquire h svc ~node:3 ~name:"orders" ~access:H.Read (fun g ->
          events := "orders-read" :: !events;
          H.release svc g));
  S.run svc;
  let order = List.rev !events in
  let idx tag = Option.get (List.find_index (( = ) tag) order) in
  checkb "sibling read ran during the write" true (idx "orders-read" < idx "w-end");
  checkb "same-collection read waited" true (idx "users-read" > idx "w-end")

let test_hierarchy_upgrade () =
  let h = H.create store_spec in
  let svc = S.create ~nodes:3 ~seed:10L ~oracle:true ~locks:(H.names h) () in
  let upgraded = ref false in
  H.acquire h svc ~node:1 ~name:"orders/1" ~access:H.Upgrade_read (fun g ->
      S.change_mode svc (H.target_ticket g) ~mode:Core.Mode.W (fun () ->
          upgraded := true;
          H.release svc g));
  S.run svc;
  checkb "upgrade via hierarchy" true !upgraded

let gen_tree =
  (* Random forests: node i's parent is a smaller index or a root. *)
  QCheck2.Gen.(
    let* n = int_range 1 12 in
    let* parents =
      flatten_l
        (List.init n (fun i ->
             if i = 0 then return None
             else
               let* is_root = bool in
               if is_root then return None
               else map (fun p -> Some (Printf.sprintf "r%d" p)) (int_bound (i - 1))))
    in
    return (List.mapi (fun i p -> (Printf.sprintf "r%d" i, p)) parents))

let prop_hierarchy_plans =
  QCheck2.Test.make ~name:"hierarchy plans are intention chains" ~count:300 gen_tree
    (fun spec ->
      let h = H.create spec in
      List.for_all
        (fun (name, _) ->
          let plan = H.plan h ~name ~access:H.Write in
          let plan_r = H.plan h ~name ~access:H.Read in
          (* The chain covers exactly ancestors + target, in order. *)
          List.map fst plan = H.ancestors h name @ [ name ]
          && List.map fst plan_r = List.map fst plan
          (* Ancestors carry intention modes, the target the real mode. *)
          && List.for_all (fun (_, m) -> Core.Mode.equal m Core.Mode.IW)
               (List.filteri (fun i _ -> i < List.length plan - 1) plan)
          && Core.Mode.equal (snd (List.nth plan (List.length plan - 1))) Core.Mode.W
          (* Every plan prefix is itself a plan for the ancestor. *)
          && List.length plan = List.length (H.ancestors h name) + 1)
        spec)

let test_enumeration_and_stats () =
  let svc = S.create ~nodes:4 ~seed:9L ~oracle:true ~locks:[ "a"; "b"; "c" ] () in
  Alcotest.check Alcotest.int "lock_count" 3 (S.lock_count svc);
  checkb "stats unknown name" true
    (try
       ignore (S.stats svc ~name:"nope");
       false
     with Not_found -> true);
  (* Take and keep grants: a held R on "a" at two nodes, a held W on "b". *)
  S.lock svc ~node:1 ~name:"a" ~mode:Core.Mode.R (fun _ -> ());
  S.lock svc ~node:2 ~name:"a" ~mode:Core.Mode.R (fun _ -> ());
  S.lock svc ~node:3 ~name:"b" ~mode:Core.Mode.W (fun _ -> ());
  (* A completed cycle on "c" leaves the mode cached (granted, unheld). *)
  S.lock svc ~node:2 ~name:"c" ~mode:Core.Mode.R (fun t -> S.unlock svc t);
  S.run svc;
  let a = S.stats svc ~name:"a" in
  Alcotest.check Alcotest.int "two readers hold a" 2 (List.length a.S.held);
  List.iter (fun (_, m) -> checkb "reader mode" true (Core.Mode.equal m Core.Mode.R)) a.S.held;
  Alcotest.check Alcotest.int "nothing waiting" 0 a.S.waiting;
  checkb "token somewhere" true (a.S.token_node >= 0 && a.S.token_node < 4);
  let b = S.stats svc ~name:"b" in
  checkb "writer holds b" true (b.S.held = [ (3, Core.Mode.W) ]);
  checkb "traffic accounted" true (Core.Counters.total b.S.messages > 0);
  (* Enumeration covers every lock in creation order; idle set is idle. *)
  let all = S.all_stats svc in
  Alcotest.check
    Alcotest.(list string)
    "all_stats order" [ "a"; "b"; "c" ]
    (List.map (fun (s : S.lock_stats) -> s.S.name) all);
  let c = S.stats svc ~name:"c" in
  checkb "released lock has no holders" true (c.S.held = [] && c.S.waiting = 0);
  checkb "released mode stays cached" true (c.S.cached_nodes >= 1)

let () =
  Alcotest.run "core_service"
    [
      ( "service",
        [
          Alcotest.test_case "lock/unlock" `Quick test_basic_lock_unlock;
          Alcotest.test_case "names and errors" `Quick test_lock_names_and_errors;
          Alcotest.test_case "double unlock" `Quick test_double_unlock_rejected;
          Alcotest.test_case "try_lock timeout" `Quick test_try_lock_timeout;
          Alcotest.test_case "try_lock success" `Quick test_try_lock_success;
          Alcotest.test_case "try_lock granted in call" `Quick test_try_lock_granted_in_call;
          Alcotest.test_case "change_mode upgrade" `Quick test_change_mode_upgrade;
          Alcotest.test_case "change_mode invalid" `Quick test_change_mode_invalid;
          Alcotest.test_case "readers share" `Quick test_readers_share;
          Alcotest.test_case "message accounting" `Quick test_message_accounting;
          Alcotest.test_case "priority through service" `Quick test_priority_through_service;
          Alcotest.test_case "enumeration and stats" `Quick test_enumeration_and_stats;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "plans" `Quick test_hierarchy_plan;
          Alcotest.test_case "validation" `Quick test_hierarchy_validation;
          Alcotest.test_case "end to end" `Quick test_hierarchy_end_to_end;
          Alcotest.test_case "upgrade" `Quick test_hierarchy_upgrade;
          QCheck_alcotest.to_alcotest prop_hierarchy_plans;
        ] );
    ]
