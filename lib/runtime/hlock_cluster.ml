open Dcs_modes
module Node = Dcs_hlock.Node
module Msg = Dcs_hlock.Msg

type lock_state = {
  mutable engines : Node.t array;
  granted_cbs : (int * int, unit -> unit) Hashtbl.t;  (* (node, seq) -> callback *)
  granted_fired : (int * int, unit) Hashtbl.t;
  upgraded_cbs : (int * int, unit -> unit) Hashtbl.t;
  upgraded_fired : (int * int, unit) Hashtbl.t;
  mutable tokens_in_flight : int;
  counters : Dcs_proto.Counters.t;
}

type t = {
  net : Net.t;
  n : int;
  l : int;
  locks_arr : lock_state array;
  oracle : bool;
}

let nodes t = t.n
let locks t = t.l

let node t ~lock ~node = t.locks_arr.(lock).engines.(node)

(* {1 Oracles} *)

let safety_violations_lock ls ~lock =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let holders = ref [] in
  Array.iter
    (fun e ->
      if Node.is_token e then holders := Node.id e :: !holders)
    ls.engines;
  let token_count = List.length !holders + ls.tokens_in_flight in
  if token_count <> 1 then
    add "lock %d: token multiplicity %d (holders [%s], in flight %d)" lock token_count
      (String.concat "," (List.map string_of_int !holders))
      ls.tokens_in_flight;
  (* All concurrently held modes across the cluster must be pairwise
     compatible (Rule 1 is the ground truth the protocol must enforce). *)
  let held =
    Array.to_list ls.engines
    |> List.concat_map (fun e -> List.map (fun (_, m) -> (Node.id e, m)) (Node.held e))
  in
  let rec pairs = function
    | [] -> ()
    | (n1, m1) :: rest ->
        List.iter
          (fun (n2, m2) ->
            if not (Compat.compatible m1 m2) then
              add "lock %d: incompatible concurrent holds n%d:%s vs n%d:%s" lock n1
                (Mode.to_string m1) n2 (Mode.to_string m2))
          rest;
        pairs rest
  in
  pairs held;
  List.rev !violations

let safety_violations t ~lock = safety_violations_lock t.locks_arr.(lock) ~lock

let assert_safe t =
  for lock = 0 to t.l - 1 do
    match safety_violations t ~lock with
    | [] -> ()
    | vs -> failwith (String.concat "; " vs)
  done

let quiescent_violations t =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  for lock = 0 to t.l - 1 do
    let ls = t.locks_arr.(lock) in
    (match safety_violations t ~lock with [] -> () | vs -> List.iter (add "%s") vs);
    let token_node = ref None in
    Array.iter (fun e -> if Node.is_token e then token_node := Some (Node.id e)) ls.engines;
    Array.iter
      (fun e ->
        let id = Node.id e in
        if Node.queue e <> [] then add "lock %d: n%d has %d queued requests" lock id (List.length (Node.queue e));
        if Node.pending e <> None then add "lock %d: n%d has a pending request" lock id;
        if Node.held e <> [] then add "lock %d: n%d still holds modes" lock id;
        (* Copyset records may persist at quiescence (cached copies), but
           they must be mutually consistent: each child record must match
           the child's actual owned mode and accounting pointer. *)
        List.iter
          (fun (c, m) ->
            let ce = ls.engines.(c) in
            (match Node.accounting ce with
            | Some (p, _) when p = id -> ()
            | _ -> add "lock %d: n%d records child n%d, which accounts elsewhere" lock id c);
            match Node.owned ce with
            | Some m' when Mode.equal m m' -> ()
            | o ->
                add "lock %d: n%d records n%d as %s but its owned mode is %s" lock id c
                  (Mode.to_string m)
                  (match o with None -> "_" | Some m' -> Mode.to_string m'))
          (Node.children e);
        (match Node.accounting e with
        | Some (p, _) ->
            if not (List.mem_assoc id (Node.children ls.engines.(p))) then
              add "lock %d: n%d claims accounting parent n%d, which has no record" lock id p
        | None ->
            if (not (Node.is_token e)) && Node.owned e <> None then
              add "lock %d: n%d owns %s with no accounting parent" lock id
                (match Node.owned e with Some m -> Mode.to_string m | None -> "_"));
        (* All retained modes (held or cached) must be mutually compatible
           cluster-wide; checked pairwise in safety_violations for held,
           here extended to caches. *)
        (* Routing parents may legitimately form stale cycles at quiescence
           (reversal and grant edges are heuristics; relays carry their
           path and divert around cycles), so only basic sanity is
           enforced: a parent pointer never aims at its own node. *)
        (match Node.parent e with
        | Some p when p = id -> add "lock %d: n%d is its own routing parent" lock id
        | Some _ | None -> ());
        ignore !token_node)
      ls.engines;
    (* Cached + held modes must be pairwise compatible cluster-wide. *)
    let retained =
      Array.to_list ls.engines
      |> List.concat_map (fun e ->
             List.map (fun (_, m) -> (Node.id e, m)) (Node.held e)
             @ List.map (fun m -> (Node.id e, m)) (Node.cached e))
    in
    let rec pairs2 = function
      | [] -> ()
      | (n1, m1) :: rest ->
          List.iter
            (fun (n2, m2) ->
              if not (Compat.compatible m1 m2) then
                add "lock %d: incompatible retained modes n%d:%s vs n%d:%s" lock n1
                  (Mode.to_string m1) n2 (Mode.to_string m2))
            rest;
          pairs2 rest
    in
    pairs2 retained
  done;
  List.rev !violations

(* {1 Construction} *)

let create ?(config = Node.default_config) ?(oracle = false) ?transport ?obs ?restore ~net
    ~nodes:n ~locks:l () =
  if n < 1 then invalid_arg "Hlock_cluster.create: need at least one node";
  (match restore with
  | None -> ()
  | Some (snaps : Node.snapshot array array) ->
      if Array.length snaps <> l then
        invalid_arg "Hlock_cluster.create: restore must cover every lock";
      Array.iter
        (fun per_node ->
          if Array.length per_node <> n then
            invalid_arg "Hlock_cluster.create: restore must cover every node")
        snaps);
  (* Protocol messages travel through [transport] (default: the raw net);
     chaos runs interpose the Dcs_fault.Reliable shim here. *)
  let transport : Dcs_proto.Link.send =
    match transport with Some s -> s | None -> Net.send net
  in
  (* A disabled recorder is dropped here, so the per-node engines see
     [None] and pay only the per-site branch. *)
  let obs = match obs with Some r when Dcs_obs.Recorder.enabled r -> Some r | _ -> None in
  let t =
    { net; n; l; locks_arr = Array.init l (fun _ ->
          {
            engines = [||];
            granted_cbs = Hashtbl.create 32;
            granted_fired = Hashtbl.create 32;
            upgraded_cbs = Hashtbl.create 8;
            upgraded_fired = Hashtbl.create 8;
            tokens_in_flight = 0;
            counters = Dcs_proto.Counters.create ();
          });
      oracle;
    }
  in
  for lock = 0 to l - 1 do
    let ls = t.locks_arr.(lock) in
    let engines =
      Array.init n (fun id ->
          let send ~dst msg =
            Dcs_proto.Counters.incr ls.counters (Msg.class_of msg);
            (match obs with
            | None -> ()
            | Some r ->
                (* Per-class wire bytes: the codec is the authority on what
                   this message costs on a real link. *)
                Dcs_obs.Recorder.message r ~cls:(Msg.class_of msg)
                  ~bytes:
                    (String.length
                       (Dcs_wire.Codec.encode
                          { Dcs_wire.Codec.src = id; lock; payload = Dcs_wire.Codec.Hlock msg })));
            (match msg with Msg.Token _ -> ls.tokens_in_flight <- ls.tokens_in_flight + 1 | _ -> ());
            transport ~src:id ~dst ~cls:(Msg.class_of msg)
              ~describe:(fun () -> Format.asprintf "lock%d %a" lock Msg.pp msg)
              (fun () ->
                (match msg with
                | Msg.Token _ -> ls.tokens_in_flight <- ls.tokens_in_flight - 1
                | _ -> ());
                Node.handle_msg ls.engines.(dst) ~src:id msg;
                if t.oracle then
                  match safety_violations_lock ls ~lock with
                  | [] -> ()
                  | vs -> failwith (String.concat "; " vs))
          in
          let on_granted (r : Msg.request) =
            let key = (id, r.seq) in
            match Hashtbl.find_opt ls.granted_cbs key with
            | Some cb ->
                Hashtbl.remove ls.granted_cbs key;
                cb ()
            | None -> Hashtbl.replace ls.granted_fired key ()
          in
          let on_upgraded seq =
            let key = (id, seq) in
            match Hashtbl.find_opt ls.upgraded_cbs key with
            | Some cb ->
                Hashtbl.remove ls.upgraded_cbs key;
                cb ()
            | None -> Hashtbl.replace ls.upgraded_fired key ()
          in
          let node_obs =
            match obs with
            | None -> None
            | Some r ->
                Some
                  (fun scope kind ->
                    Dcs_obs.Recorder.record r ~time:(Net.now net) ~lock ~node:id scope kind)
          in
          match restore with
          | None ->
              Node.create ~config ?obs:node_obs ~id ~peers:n ~is_token:(id = 0)
                ~parent:(if id = 0 then None else Some 0)
                ~send ~on_granted ~on_upgraded ()
          | Some snaps ->
              Node.restore ~config ?obs:node_obs ~id ~peers:n ~send ~on_granted ~on_upgraded
                snaps.(lock).(id))
    in
    (* Tie the recursive knot: send closures dereference [ls.engines]. *)
    ls.engines <- engines
  done;
  t

let lock_counters t ~lock = t.locks_arr.(lock).counters

(* The sending half of a shard handoff: the whole per-node population of
   one lock object as snapshots. Requires transport quiescence for that
   lock (no token in flight — a token crossing the handoff would be lost)
   and client quiescence at every node ({!Node.export}'s own checks); the
   callback tables must be drained too, since waiting continuations cannot
   travel. *)
let export_lock t ~lock =
  let ls = t.locks_arr.(lock) in
  if ls.tokens_in_flight <> 0 then
    invalid_arg "Hlock_cluster.export_lock: token in flight";
  if Hashtbl.length ls.granted_cbs > 0 || Hashtbl.length ls.upgraded_cbs > 0 then
    invalid_arg "Hlock_cluster.export_lock: clients still waiting";
  Array.map Node.export ls.engines

(* Global state probe for the sampled invariant auditor (chaos soaks). *)
let audit_views t =
  List.init t.l (fun lock ->
      let ls = t.locks_arr.(lock) in
      let token_holders = ref []
      and held = ref []
      and cached = ref []
      and queued = ref 0
      and pending = ref 0 in
      Array.iter
        (fun e ->
          let id = Node.id e in
          if Node.is_token e then token_holders := id :: !token_holders;
          List.iter (fun (_, m) -> held := (id, m) :: !held) (Node.held e);
          List.iter (fun m -> cached := (id, m) :: !cached) (Node.cached e);
          queued := !queued + List.length (Node.queue e);
          if Node.pending e <> None then incr pending)
        ls.engines;
      {
        Dcs_fault.Audit.lock;
        token_holders = List.rev !token_holders;
        tokens_in_flight = ls.tokens_in_flight;
        held = List.rev !held;
        cached = List.rev !cached;
        queued = !queued;
        pending = !pending;
      })

let kick_all t =
  Array.iter (fun ls -> Array.iter Node.kick ls.engines) t.locks_arr

(* Cheap cluster-wide gauges for the engine-tick sampler. *)
let sample_gauges t r =
  if Dcs_obs.Recorder.enabled r then begin
    let time = Net.now t.net in
    let queued = ref 0 and copyset = ref 0 and frozen = ref 0 in
    Array.iter
      (fun ls ->
        Array.iter
          (fun e ->
            queued := !queued + List.length (Node.queue e);
            copyset := !copyset + Node.copyset_size e;
            if not (Mode_set.is_empty (Node.frozen e)) then incr frozen)
          ls.engines)
      t.locks_arr;
    Dcs_obs.Recorder.gauge r ~time ~name:"queue_depth" ~value:(float_of_int !queued);
    Dcs_obs.Recorder.gauge r ~time ~name:"copyset_size" ~value:(float_of_int !copyset);
    Dcs_obs.Recorder.gauge r ~time ~name:"frozen_nodes" ~value:(float_of_int !frozen)
  end

(* {1 Client operations} *)

let request ?priority t ~node ~lock ~mode ~on_granted =
  let ls = t.locks_arr.(lock) in
  let seq = Node.request ?priority ls.engines.(node) ~mode in
  let key = (node, seq) in
  (if Hashtbl.mem ls.granted_fired key then begin
     Hashtbl.remove ls.granted_fired key;
     on_granted ()
   end
   else Hashtbl.replace ls.granted_cbs key on_granted);
  if t.oracle then assert_safe t;
  seq

let release t ~node ~lock ~seq =
  let ls = t.locks_arr.(lock) in
  Node.release ls.engines.(node) ~seq;
  if t.oracle then assert_safe t

let upgrade t ~node ~lock ~seq ~on_upgraded =
  let ls = t.locks_arr.(lock) in
  let key = (node, seq) in
  Node.upgrade ls.engines.(node) ~seq;
  (if Hashtbl.mem ls.upgraded_fired key then begin
     Hashtbl.remove ls.upgraded_fired key;
     on_upgraded ()
   end
   else Hashtbl.replace ls.upgraded_cbs key on_upgraded);
  if t.oracle then assert_safe t
