open Dcs_modes
module Cluster = Dcs_runtime.Hlock_cluster
module Node = Dcs_hlock.Node
module Event = Dcs_obs.Event
module Recorder = Dcs_obs.Recorder
module Script = Dcs_workload.Script

type result = {
  states : int;
  terminals : int;
  truncated : bool;
  violations : string list;
}

(* One replayed execution: a cluster whose transport parks every message on
   its link's FIFO, the script's ops issued up front in list order, then
   [path] (a list of directed links) delivering the head of each named
   link in turn — the transport contract. The cluster's oracle checks every
   client call and delivery; a [Failure] from it ends the replay and is
   that state's violation. *)
type run = {
  cluster : Cluster.t;
  nodes : int;
  wire : ((int * int) * ((unit -> string) * (unit -> unit)) Queue.t) list;  (* per-link FIFO *)
  failure : string option;
}

let replay ~net ?config ?obs (script : Script.t) path =
  let wire = ref [] in
  let link src dst =
    match List.assoc_opt (src, dst) !wire with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        wire := ((src, dst), q) :: !wire;
        q
  in
  let transport ~src ~dst ~cls:_ ~describe deliver =
    Queue.push (describe, deliver) (link src dst)
  in
  let cluster =
    Cluster.create ?config ~oracle:true ~transport ?obs ~net ~nodes:script.nodes ~locks:1 ()
  in
  (* Scheduling at once makes every client release as soon as it is
     granted; an upgrade client first upgrades its U grant and releases
     the W. *)
  let failure =
    match
      ignore (Fuzz.drive cluster ~schedule:(fun ~after:_ f -> f ()) script);
      List.iter (fun (src, dst) -> snd (Queue.pop (link src dst)) ()) path
    with
    | () -> None
    | exception Failure v -> Some v
  in
  { cluster; nodes = script.nodes; wire = !wire; failure }

let sorted_wire run = List.sort (fun (a, _) (b, _) -> compare a b) run.wire

let nonempty_links run =
  List.filter_map (fun (l, q) -> if Queue.is_empty q then None else Some l) (sorted_wire run)

(* One node's part of the state key (see the interface): its token flag,
   parent, owned mode, held instances, copyset modes, queue length,
   frozen set, pending request, cached modes and accounting pointer. *)
let node_key e =
  let opt f = function None -> "_" | Some x -> f x in
  let pairs f l = String.concat "," (List.map f l) in
  Printf.sprintf "n%d%s parent=%s owned=%s held=[%s] children=[%s] |q|=%d frozen=%s pending=%s%sacct%s"
    (Node.id e)
    (if Node.is_token e then "*" else "")
    (opt string_of_int (Node.parent e))
    (opt Mode.to_string (Node.owned e))
    (pairs (fun (seq, m) -> Printf.sprintf "#%d:%s" seq (Mode.to_string m)) (Node.held e))
    (pairs (fun (c, m) -> Printf.sprintf "n%d:%s" c (Mode.to_string m)) (Node.children e))
    (List.length (Node.queue e))
    (Format.asprintf "%a" Mode_set.pp (Node.frozen e))
    (opt (Format.asprintf "%a" Dcs_hlock.Msg.pp_request) (Node.pending e))
    (pairs Mode.to_string (Node.cached e))
    (opt (fun (p, ep) -> Printf.sprintf "%d.%d" p ep) (Node.accounting e))

let digest run =
  let b = Buffer.create 512 in
  for node = 0 to run.nodes - 1 do
    Buffer.add_string b (node_key (Cluster.node run.cluster ~lock:0 ~node));
    Buffer.add_char b '|'
  done;
  List.iter
    (fun ((src, dst), q) ->
      Buffer.add_string b (Printf.sprintf "[%d>%d:" src dst);
      Queue.iter
        (fun (describe, _) ->
          Buffer.add_string b (describe ());
          Buffer.add_char b ';')
        q;
      Buffer.add_char b ']')
    (sorted_wire run);
  Digest.string (Buffer.contents b)

(* Grant-order fairness, checked only in terminal states: a node's own
   requests for the same mode must be granted in issue (seq) order. This is
   the strongest FIFO property the protocol actually promises — cache
   grants may legitimately overtake remote requests of other modes until
   the freeze propagates, but two identical local requests take the same
   path (both self-granted, or both absorbed into the same FIFO queue), so
   reordering them means a queue discipline bug. *)
let grant_order_violations events =
  let last : (int * Mode.t, int) Hashtbl.t = Hashtbl.create 8 in
  List.filter_map
    (fun (e : Event.t) ->
      match (e.scope, e.kind) with
      | ( Event.Span { requester; seq },
          (Event.Granted_local { mode; _ } | Event.Granted_token { mode; _ }) ) ->
          let prev = Hashtbl.find_opt last (requester, mode) in
          Hashtbl.replace last (requester, mode) seq;
          Option.bind prev (fun prev ->
              if prev > seq then
                Some
                  (Printf.sprintf "grant order: n%d granted %s seq %d after seq %d" requester
                     (Mode.to_string mode) seq prev)
              else None)
      | _ -> None)
    events

(* A terminal state is judged like a finished fuzz run: the cluster's
   quiescence check and trace conformance (whose never-granted and
   never-released checks are the liveness verdict), plus the grant-order
   rule above. Only terminal states read events, so only their paths are
   replayed a second time, with a recorder. *)
let terminal_violations ~net ?config script path =
  let obs = Recorder.create ~events:true () in
  let run = replay ~net ?config ~obs script path in
  let events = Recorder.events obs in
  Cluster.quiescent_violations run.cluster
  @ (Oracle.conformance ~events ()).Oracle.violations
  @ grant_order_violations events

let explore ?config ?(max_states = 100_000) (script : Script.t) =
  (match Script.validate script with
  | Ok () -> ()
  | Error e -> invalid_arg ("Mcheck.explore: invalid script: " ^ e));
  if script.locks <> 1 then invalid_arg "Mcheck.explore: scripts must have one lock";
  (* Every replay shares one net: the transport bypasses it, and its clock
     (which never moves) stamps the recorder's events. *)
  let net =
    Dcs_runtime.Net.create ~engine:(Dcs_sim.Engine.create ())
      ~latency:(Dcs_sim.Dist.uniform_around 1.0) ~rng:(Dcs_sim.Rng.create ~seed:0L) ()
  in
  let seen = Hashtbl.create 4096 in
  let violations = ref [] in
  let report = function
    | [] -> ()
    | vs -> if List.length !violations < 5 then violations := String.concat "; " vs :: !violations
  in
  let terminals = ref 0 in
  let states = ref 0 in
  let truncated = ref false in
  let queue = Queue.create () in
  Queue.push [] queue;
  while (not (Queue.is_empty queue)) && not !truncated do
    let path = Queue.pop queue in
    let run = replay ~net ?config script (List.rev path) in
    let d = digest run in
    if not (Hashtbl.mem seen d) then begin
      Hashtbl.replace seen d ();
      incr states;
      if !states >= max_states then truncated := true;
      match (run.failure, nonempty_links run) with
      | Some v, _ -> report [ v ]
      | None, [] ->
          incr terminals;
          report (terminal_violations ~net ?config script (List.rev path))
      | None, links -> List.iter (fun l -> Queue.push (l :: path) queue) links
    end
  done;
  { states = !states; terminals = !terminals; truncated = !truncated; violations = !violations }
