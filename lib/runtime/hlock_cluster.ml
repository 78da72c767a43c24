open Dcs_modes
module Node = Dcs_hlock.Node
module Msg = Dcs_hlock.Msg

type lock_state = {
  mutable engines : Node.t array;
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

let locks t = t.l

let node t ~lock ~node = t.locks_arr.(lock).engines.(node)

(* {1 Oracles} *)

(* Client requests and upgrades whose continuation has not run yet: the
   bound on what may sit in this lock's queues. *)
let waiting ls = Array.fold_left (fun n e -> n + Node.waiting e) 0 ls.engines

let safety_violations ls ~lock =
  Dcs_hlock.Invariant.safety ~lock ~tokens_in_flight:ls.tokens_in_flight ~waiting:(waiting ls)
    ls.engines

(* The runtime oracle: re-check one lock after a delivery or client call
   that touched it. *)
let check t ls ~lock =
  if t.oracle then
    match safety_violations ls ~lock with [] -> () | vs -> failwith (String.concat "; " vs)

let quiescent_violations t =
  List.concat
    (List.init t.l (fun lock ->
         let ls = t.locks_arr.(lock) in
         safety_violations ls ~lock @ Dcs_hlock.Invariant.quiescent ~lock ls.engines))

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
     chaos runs interpose the Dcs_fault.Reliable shim here. Without one,
     the send site calls [Net.send] directly, not through a partial
     application. *)
  let obs = Cluster_obs.attach ~net obs in
  let t =
    { net; n; l; locks_arr = Array.init l (fun _ ->
          {
            engines = [||];
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
            let cls = Msg.class_of msg in
            Dcs_proto.Counters.incr ls.counters cls;
            (match obs with
            | None -> ()
            | Some o -> Cluster_obs.message o ~src:id ~lock ~cls (Hlock msg));
            (match msg with Msg.Token _ -> ls.tokens_in_flight <- ls.tokens_in_flight + 1 | _ -> ());
            let describe () = Format.asprintf "lock%d %a" lock Msg.pp msg in
            let deliver () =
              (match msg with
              | Msg.Token _ -> ls.tokens_in_flight <- ls.tokens_in_flight - 1
              | _ -> ());
              Node.handle_msg ls.engines.(dst) ~src:id msg;
              check t ls ~lock
            in
            match transport with
            | None -> Net.send net ~src:id ~dst ~cls ~describe deliver
            | Some transport -> transport ~src:id ~dst ~cls ~describe deliver
          in
          let node_obs = Cluster_obs.node_hook obs ~lock ~node:id in
          match restore with
          | None ->
              Node.create ~config ?obs:node_obs ~id ~peers:n ~is_token:(id = 0)
                ~parent:(if id = 0 then None else Some 0)
                ~send ()
          | Some snaps -> Node.restore ~config ?obs:node_obs ~id ~peers:n ~send snaps.(lock).(id))
    in
    (* Tie the recursive knot: send closures dereference [ls.engines]. *)
    ls.engines <- engines
  done;
  t

let lock_counters t ~lock = t.locks_arr.(lock).counters

(* The sending half of a shard handoff: the whole per-node population of
   one lock object as snapshots. Requires transport quiescence for that
   lock (no token in flight — a token crossing the handoff would be lost)
   and client quiescence at every node, waiting continuations included
   ({!Node.export}'s own checks). *)
let export_lock t ~lock =
  let ls = t.locks_arr.(lock) in
  if ls.tokens_in_flight <> 0 then
    invalid_arg "Hlock_cluster.export_lock: token in flight";
  Array.map Node.export ls.engines

let kick_all t =
  Array.iter (fun ls -> Array.iter Node.kick ls.engines) t.locks_arr

(* Cheap cluster-wide gauges for the engine-tick sampler. *)
let sample_gauges t r =
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

(* {1 Client operations} *)

let request ?priority t ~node ~lock ~mode ~on_granted =
  let ls = t.locks_arr.(lock) in
  let seq = Node.request ?priority ls.engines.(node) ~mode ~on_granted:(fun _ -> on_granted ()) in
  check t ls ~lock;
  seq

let release t ~node ~lock ~seq =
  let ls = t.locks_arr.(lock) in
  Node.release ls.engines.(node) ~seq;
  check t ls ~lock

let upgrade t ~node ~lock ~seq ~on_upgraded =
  let ls = t.locks_arr.(lock) in
  Node.upgrade ls.engines.(node) ~seq ~on_upgraded:(fun _ -> on_upgraded ());
  check t ls ~lock
