open Dcs_modes
module Node = Dcs_hlock.Node
module Msg = Dcs_hlock.Msg
module Script = Dcs_workload.Script

type result = {
  states : int;
  terminals : int;
  truncated : bool;
  violations : string list;
}

(* One replayed execution: the script's ops are issued up front, in list
   order, then the messages are delivered according to [path] (a list of
   directed links; each step delivers the head of that link's FIFO — the
   transport contract). *)
type run = {
  mutable nodes_arr : Node.t array;
  wire : ((int * int) * Msg.t Queue.t) list ref;  (* per-link FIFO *)
  mutable tokens_in_flight : int;
  mutable grant_log : (int * int * Mode.t) list;  (* (node, seq, mode), newest first *)
}

let link run src dst =
  match List.assoc_opt (src, dst) !(run.wire) with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      run.wire := ((src, dst), q) :: !(run.wire);
      q

let replay ?config (script : Script.t) path =
  let run =
    { nodes_arr = [||]; wire = ref []; tokens_in_flight = 0; grant_log = [] }
  in
  let arr =
    Array.init script.nodes (fun id ->
        let send ~dst msg =
          (match msg with Msg.Token _ -> run.tokens_in_flight <- run.tokens_in_flight + 1 | _ -> ());
          Queue.push msg (link run id dst)
        in
        Node.create ?config ~id ~peers:script.nodes ~is_token:(id = 0)
          ~parent:(if id = 0 then None else Some 0)
          ~send ())
  in
  run.nodes_arr <- arr;
  (* Scheduling at once makes every client release as soon as it is
     granted; an upgrade client first upgrades its U grant and releases
     the W. *)
  let counts =
    Script.drive script
      ~request:(fun (o : Script.op) ~on_granted ->
        Node.request ~priority:o.priority arr.(o.node) ~mode:o.mode ~on_granted:(fun seq ->
            run.grant_log <- (o.node, seq, o.mode) :: run.grant_log;
            on_granted ()))
      ~upgrade:(fun (o : Script.op) ~seq ~on_upgraded ->
        Node.upgrade arr.(o.node) ~seq ~on_upgraded:(fun _ -> on_upgraded ()))
      ~release:(fun (o : Script.op) ~seq -> Node.release arr.(o.node) ~seq)
      ~schedule:(fun ~after:_ f -> f ())
  in
  (* Deliver per path. *)
  List.iter
    (fun (src, dst) ->
      let q = link run src dst in
      if Queue.is_empty q then failwith "mcheck: path delivers from an empty link"
      else begin
        let msg = Queue.pop q in
        (match msg with Msg.Token _ -> run.tokens_in_flight <- run.tokens_in_flight - 1 | _ -> ());
        Node.handle_msg arr.(dst) ~src msg
      end)
    path;
  (run, counts)

let nonempty_links run =
  List.filter_map
    (fun ((src, dst), q) -> if Queue.is_empty q then None else Some (src, dst))
    !(run.wire)
  |> List.sort compare

let digest run =
  let b = Buffer.create 512 in
  Array.iter
    (fun e ->
      Buffer.add_string b (Format.asprintf "%a" Node.pp_state e);
      Buffer.add_string b
        (String.concat "," (List.map Mode.to_string (Node.cached e)));
      (match Node.accounting e with
      | Some (p, ep) -> Buffer.add_string b (Printf.sprintf "acct%d.%d" p ep)
      | None -> Buffer.add_string b "acct_");
      Buffer.add_char b '|')
    run.nodes_arr;
  List.iter
    (fun ((src, dst), q) ->
      Buffer.add_string b (Printf.sprintf "[%d>%d:" src dst);
      Queue.iter (fun m -> Buffer.add_string b (Format.asprintf "%a;" Msg.pp m)) q;
      Buffer.add_char b ']')
    (List.sort compare !(run.wire));
  Digest.string (Buffer.contents b)

(* Grant-order fairness, checked only in terminal states: a node's own
   requests for the same mode must be granted in issue (seq) order. This is
   the strongest FIFO property the protocol actually promises — cache
   grants may legitimately overtake remote requests of other modes until
   the freeze propagates, but two identical local requests take the same
   path (both self-granted, or both absorbed into the same FIFO queue), so
   reordering them means a queue discipline bug. *)
let grant_order_violations run =
  let out = ref [] in
  let last : (int * Mode.t, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (node, seq, mode) ->
      (match Hashtbl.find_opt last (node, mode) with
      | Some prev when prev > seq ->
          out :=
            Printf.sprintf "grant order: n%d granted %s seq %d after seq %d" node
              (Mode.to_string mode) seq prev
            :: !out
      | _ -> ());
      Hashtbl.replace last (node, mode) seq)
    (List.rev run.grant_log);
  !out

let explore ?config ?(max_states = 100_000) (script : Script.t) =
  (match Script.validate script with
  | Ok () -> ()
  | Error e -> invalid_arg ("Mcheck.explore: invalid script: " ^ e));
  if script.locks <> 1 then invalid_arg "Mcheck.explore: scripts must have one lock";
  let seen = Hashtbl.create 4096 in
  let violations = ref [] in
  let terminals = ref 0 in
  let states = ref 0 in
  let truncated = ref false in
  let queue = Queue.create () in
  Queue.push [] queue;
  let expected_ops = List.length script.ops and expected_upgrades = Script.upgrade_ops script in
  while (not (Queue.is_empty queue)) && not !truncated do
    let path = Queue.pop queue in
    let run, counts = replay ?config script (List.rev path) in
    let d = digest run in
    if not (Hashtbl.mem seen d) then begin
      Hashtbl.replace seen d ();
      incr states;
      if !states >= max_states then truncated := true;
      (match
         Dcs_hlock.Invariant.safety ~lock:0 ~tokens_in_flight:run.tokens_in_flight run.nodes_arr
       with
      | [] -> ()
      | vs ->
          if List.length !violations < 5 then
            violations := (String.concat "; " vs) :: !violations);
      match nonempty_links run with
      | [] ->
          incr terminals;
          if counts.Script.grants < expected_ops then
            violations :=
              Printf.sprintf "terminal state with %d/%d grants (liveness)" counts.grants
                expected_ops
              :: !violations;
          if counts.upgrades < expected_upgrades then
            violations :=
              Printf.sprintf "terminal state with %d/%d upgrades" counts.upgrades
                expected_upgrades
              :: !violations;
          if counts.releases < expected_ops then
            violations :=
              Printf.sprintf "terminal state with %d unfinished clients"
                (expected_ops - counts.releases)
              :: !violations;
          if List.length !violations < 5 then
            List.iter (fun v -> violations := v :: !violations) (grant_order_violations run)
      | links -> List.iter (fun l -> Queue.push (l :: path) queue) links
    end
  done;
  { states = !states; terminals = !terminals; truncated = !truncated; violations = !violations }
