(* Shared helpers for the protocol test suites. *)

open Dcs_modes

(* A tiny synchronous cluster for unit-testing the hierarchical protocol:
   messages go into a global FIFO and are pumped to destinations in order.
   This gives deterministic, perfectly-FIFO delivery — the simplest legal
   network — so unit tests can script exact scenarios (the paper's Figures
   2 and 3). Timing-dependent behaviour is covered separately by the
   discrete-event simulations. *)
module Sync_cluster = struct
  type event =
    | Granted of { node : int; seq : int; mode : Mode.t }
    | Upgraded of { node : int; seq : int }

  type t = {
    mutable nodes : Dcs_hlock.Node.t array;
    mutable wire : (int * int * Dcs_hlock.Msg.t) list;  (* src, dst, msg *)
    mutable events : event list;  (* newest first *)
    mutable sent : int;
    mutable sent_by_class : (Dcs_proto.Msg_class.t * int) list;
    mutable after_delivery : unit -> unit;  (* runs after every delivered message *)
  }

  let create ?config n =
    let t =
      {
        nodes = [||];
        wire = [];
        events = [];
        sent = 0;
        sent_by_class = [];
        after_delivery = (fun () -> ());
      }
    in
    let nodes =
      Array.init n (fun id ->
          let send ~dst msg =
            t.sent <- t.sent + 1;
            let cls = Dcs_hlock.Msg.class_of msg in
            let count = try List.assoc cls t.sent_by_class with Not_found -> 0 in
            t.sent_by_class <- (cls, count + 1) :: List.remove_assoc cls t.sent_by_class;
            t.wire <- t.wire @ [ (id, dst, msg) ]
          in
          Dcs_hlock.Node.create ?config ~id ~peers:n ~is_token:(id = 0)
            ~parent:(if id = 0 then None else Some 0)
            ~send ())
    in
    t.nodes <- nodes;
    t

  let node t i = t.nodes.(i)

  (* Install a check to run after every message delivery (e.g. a per-node
     bookkeeping invariant); replaces any previous one. *)
  let after_delivery t f = t.after_delivery <- f

  (* Deliver queued messages until quiescent (bounded; raises on runaway). *)
  let settle ?(limit = 10_000) t =
    let steps = ref 0 in
    let rec go () =
      match t.wire with
      | [] -> ()
      | (src, dst, msg) :: rest ->
          incr steps;
          if !steps > limit then failwith "Sync_cluster.settle: message storm";
          t.wire <- rest;
          Dcs_hlock.Node.handle_msg t.nodes.(dst) ~src msg;
          t.after_delivery ();
          go ()
    in
    go ()

  (* Deliver exactly one queued message; false when idle. *)
  let step t =
    match t.wire with
    | [] -> false
    | (src, dst, msg) :: rest ->
        t.wire <- rest;
        Dcs_hlock.Node.handle_msg t.nodes.(dst) ~src msg;
        t.after_delivery ();
        true

  (* Deliver the oldest queued message on the link [src -> dst] and return
     it: each link is FIFO, but a test may pick the order across links,
     as a charted run did. *)
  let deliver t ~src ~dst =
    let rec split before = function
      | [] -> Alcotest.failf "Sync_cluster.deliver: nothing queued on n%d -> n%d" src dst
      | ((s, d, msg) as m) :: rest ->
          if s = src && d = dst then (msg, List.rev_append before rest)
          else split (m :: before) rest
    in
    let msg, rest = split [] t.wire in
    t.wire <- rest;
    Dcs_hlock.Node.handle_msg t.nodes.(dst) ~src msg;
    t.after_delivery ();
    msg

  let drain_events t =
    let evs = List.rev t.events in
    t.events <- [];
    evs

  let messages_sent t = t.sent

  let sent_of_class t cls = try List.assoc cls t.sent_by_class with Not_found -> 0

  (* Client calls whose continuations log [Granted]/[Upgraded] events. *)
  let request ?priority t ~node ~mode =
    Dcs_hlock.Node.request ?priority t.nodes.(node) ~mode ~on_granted:(fun seq ->
        t.events <- Granted { node; seq; mode } :: t.events)

  let release t ~node ~seq = Dcs_hlock.Node.release t.nodes.(node) ~seq

  let upgrade t ~node ~seq =
    Dcs_hlock.Node.upgrade t.nodes.(node) ~seq ~on_upgraded:(fun seq ->
        t.events <- Upgraded { node; seq } :: t.events)

  let granted t ~node ~seq =
    List.exists
      (function Granted g -> g.node = node && g.seq = seq | Upgraded _ -> false)
      t.events

  let upgraded t ~node ~seq =
    List.exists
      (function Upgraded u -> u.node = node && u.seq = seq | Granted _ -> false)
      t.events

  (* Request + settle + assert served. Returns the ticket. *)
  let acquire t ~node ~mode =
    let seq = request t ~node ~mode in
    settle t;
    if not (granted t ~node ~seq) then
      Alcotest.failf "node %d was not granted %s" node (Mode.to_string mode);
    seq

  (* {!Dcs_hlock.Invariant.safety} on the cluster's one lock: a single
     token (holders plus Token messages on the wire), pairwise-compatible
     held and cached modes, and queues no longer than the clients still
     waiting. *)
  let check_safety t =
    let tokens_in_flight =
      List.length (List.filter (function _, _, Dcs_hlock.Msg.Token _ -> true | _ -> false) t.wire)
    in
    match Dcs_hlock.Invariant.safety ~lock:0 ~tokens_in_flight t.nodes with
    | [] -> ()
    | violations -> Alcotest.fail (String.concat "; " violations)

  let token_holder t =
    let holders =
      Array.to_list t.nodes |> List.filter Dcs_hlock.Node.is_token |> List.map Dcs_hlock.Node.id
    in
    match holders with
    | [ h ] -> h
    | hs -> Alcotest.failf "expected one token holder, found [%s]"
              (String.concat "," (List.map string_of_int hs))
end

(* Same idea for the Naimi baseline. *)
module Sync_naimi = struct
  type t = {
    mutable nodes : Dcs_naimi.Naimi.t array;
    mutable wire : (int * int * Dcs_naimi.Naimi.msg) list;
    mutable acquired : int list;  (* order of CS entries, oldest first *)
    mutable sent : int;
  }

  let create n =
    let t = { nodes = [||]; wire = []; acquired = []; sent = 0 } in
    let nodes =
      Array.init n (fun id ->
          let send ~dst msg =
            t.sent <- t.sent + 1;
            t.wire <- t.wire @ [ (id, dst, msg) ]
          in
          Dcs_naimi.Naimi.create ~id ~is_root:(id = 0)
            ~father:(if id = 0 then None else Some 0)
            ~send ())
    in
    t.nodes <- nodes;
    t

  let node t i = t.nodes.(i)

  (* Node [i] asks for the critical section; its entry is logged in
     [acquired]. *)
  let request t i =
    Dcs_naimi.Naimi.request t.nodes.(i) ~on_acquired:(fun () -> t.acquired <- t.acquired @ [ i ])

  let settle ?(limit = 10_000) t =
    let steps = ref 0 in
    let rec go () =
      match t.wire with
      | [] -> ()
      | (src, dst, msg) :: rest ->
          incr steps;
          if !steps > limit then failwith "Sync_naimi.settle: message storm";
          t.wire <- rest;
          Dcs_naimi.Naimi.handle_msg t.nodes.(dst) ~src msg;
          go ()
    in
    go ()

  let in_cs t = Array.to_list t.nodes |> List.filter Dcs_naimi.Naimi.in_cs |> List.map Dcs_naimi.Naimi.id
end

(* Alcotest testables. *)
let mode = Alcotest.testable Mode.pp Mode.equal
let mode_set = Alcotest.testable Mode_set.pp Mode_set.equal

(* QCheck generators. *)
let gen_mode = QCheck2.Gen.oneofl Mode.all

let gen_mode_opt = QCheck2.Gen.(oneof [ return None; map Option.some gen_mode ])
