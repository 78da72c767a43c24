module Mode = Dcs_modes.Mode
module Dist = Dcs_sim.Dist
module Cell = Dcs_shard.Cell
module Hlock_cluster = Dcs_runtime.Hlock_cluster
module Node = Dcs_hlock.Node

  type ticket = {
    node : int;
    lock : int;
    mutable seq : int;
    mutable state : [ `Held | `Released | `Abandoned ];
  }

  (* The service is a naming facade over one shard execution cell
     ({!Dcs_shard.Cell}): the cell owns the clock, the network, the
     protocol cluster and the outstanding-request watchdog; the service
     keeps the name table and the ticket discipline. The sharded router
     pools the same cells across lock sets — a single-service program is
     the one-cell, one-reset special case. *)
  type t = { cell : Cell.t; names : string list; index : (string, int) Hashtbl.t }

  let create ?config ?latency ?(seed = 42L) ?(oracle = false) ~nodes ~locks () =
    if locks = [] then invalid_arg "Service.create: need at least one lock name";
    let index = Hashtbl.create 16 in
    List.iteri
      (fun i name ->
        if Hashtbl.mem index name then
          invalid_arg (Printf.sprintf "Service.create: duplicate lock name %S" name);
        Hashtbl.replace index name i)
      locks;
    let cell = Cell.create ?latency ~nodes () in
    Cell.reset ?config ~oracle cell ~seed ~locks:(List.length locks);
    { cell; names = locks; index }

  let lock_names t = t.names

  let lock_id t name =
    match Hashtbl.find_opt t.index name with Some i -> i | None -> raise Not_found

  (* Request [lock] and run [on_grant] with its ticket. The grant may fire
     synchronously inside [Cell.request], before the ticket number is
     known: such a grant waits until [request] returns and binds it. *)
  let request_ticket t ~priority ~node ~lock ~mode on_grant =
    let ticket = { node; lock; seq = -1; state = `Held } in
    let granted_early = ref false in
    let seq =
      Cell.request ?priority t.cell ~node ~lock ~mode ~on_granted:(fun () ->
          if ticket.seq >= 0 then on_grant ticket else granted_early := true)
    in
    ticket.seq <- seq;
    if !granted_early then on_grant ticket

  let lock ?priority t ~node ~name ~mode k =
    request_ticket t ~priority ~node ~lock:(lock_id t name) ~mode k

  let try_lock t ~node ~name ~mode ~timeout k =
    let answered = ref false in
    request_ticket t ~priority:None ~node ~lock:(lock_id t name) ~mode (fun ticket ->
        if !answered then begin
          (* The caller already gave up: release the late grant. *)
          ticket.state <- `Abandoned;
          Cell.release t.cell ~node ~lock:ticket.lock ~seq:ticket.seq
        end
        else begin
          answered := true;
          k (Some ticket)
        end);
    Cell.schedule t.cell ~after:timeout (fun () ->
        if not !answered then begin
          answered := true;
          k None
        end)

  let unlock t ticket =
    (match ticket.state with
    | `Held -> ()
    | `Released | `Abandoned -> invalid_arg "Service.unlock: ticket already released");
    ticket.state <- `Released;
    Cell.release t.cell ~node:ticket.node ~lock:ticket.lock ~seq:ticket.seq

  let change_mode t ticket ~mode k =
    if not (Mode.equal mode Mode.W) then
      invalid_arg "Service.change_mode: only the U->W upgrade is supported";
    (match ticket.state with
    | `Held -> ()
    | `Released | `Abandoned -> invalid_arg "Service.change_mode: ticket not held");
    Cell.upgrade t.cell ~node:ticket.node ~lock:ticket.lock ~seq:ticket.seq
      ~on_upgraded:(fun () -> k ())

  let now t = Cell.now t.cell

  let schedule t ~after f = Cell.schedule t.cell ~after f

  let run t =
    match Cell.drain t.cell with
    | Ok () -> ()
    | Error `Undrained -> failwith "Service.run: simulation did not drain"
    | Error (`Stuck n) -> failwith (Printf.sprintf "Service.run: %d requests never granted" n)

  let message_counters t = Cell.message_counters t.cell

  let mean_latency t = Cell.mean_latency t.cell

  (* {1 Enumeration and stats} *)

  type lock_stats = {
    name : string;
    held : (int * Mode.t) list;
    waiting : int;
    cached_nodes : int;
    token_node : int;
    messages : Dcs_proto.Counters.t;
  }

  let lock_count t = List.length t.names

  let stats_of t ~lock ~name =
    let cluster = Cell.cluster t.cell in
    let nodes = Cell.nodes t.cell in
    let held = ref [] and waiting = ref 0 and cached_nodes = ref 0 and token_node = ref (-1) in
    for node = nodes - 1 downto 0 do
      let n = Hlock_cluster.node cluster ~lock ~node in
      List.iter (fun (_seq, mode) -> held := (node, mode) :: !held) (Node.held n);
      waiting := !waiting + List.length (Node.queue n) + (if Node.pending n = None then 0 else 1);
      if Node.cached n <> [] then incr cached_nodes;
      if Node.is_token n then token_node := node
    done;
    {
      name;
      held = !held;
      waiting = !waiting;
      cached_nodes = !cached_nodes;
      token_node = !token_node;
      messages = Hlock_cluster.lock_counters cluster ~lock;
    }

  let stats t ~name = stats_of t ~lock:(lock_id t name) ~name

  let all_stats t = List.mapi (fun lock name -> stats_of t ~lock ~name) t.names
