(* One shard's execution cell: the engine room that used to live inside
   Core.Service (simulated clock + network + protocol cluster + the
   outstanding-request watchdog), extracted so it can be pooled. A shard
   serves its lock sets as a sequence of bursts; [reset] rewinds the
   clock, the network and the RNG in place and rebuilds the protocol
   cluster — from the initial star, or from a handoff snapshot — without
   reallocating the engine's event heap or the network's delivery
   tables. A reset cell is observationally identical to a freshly built
   one, which is what makes burst execution a pure function of
   (seed, restored state) and hence shard placement irrelevant to
   results. *)

module Rng = Dcs_sim.Rng
module Dist = Dcs_sim.Dist
module Engine = Dcs_sim.Engine
module Net = Dcs_runtime.Net
module Hlock_cluster = Dcs_runtime.Hlock_cluster

type t = {
  engine : Engine.t;
  rng : Rng.t;  (* drives network latency draws; reseeded per burst *)
  net : Net.t;
  nodes : int;
  mutable cluster : Hlock_cluster.t;
  mutable kick_scheduled : bool;
}

(* Construction mirrors the original Service.create order exactly:
   engine, rng, net, cluster. *)
let create ?(latency = Dist.uniform_around 150.0) ~nodes () =
  if nodes < 1 then invalid_arg "Cell.create: need at least one node";
  let engine = Engine.create () in
  let rng = Rng.create ~seed:0L in
  let net = Net.create ~engine ~latency ~rng () in
  let cluster = Hlock_cluster.create ~net ~nodes ~locks:1 () in
  { engine; rng; net; nodes; cluster; kick_scheduled = false }

let reset ?config ?(oracle = false) ?restore t ~seed ~locks =
  if locks < 1 then invalid_arg "Cell.reset: need at least one lock";
  Engine.reset t.engine;
  Rng.reseed t.rng ~seed;
  Net.reset t.net;
  t.kick_scheduled <- false;
  t.cluster <- Hlock_cluster.create ?config ~oracle ?restore ~net:t.net ~nodes:t.nodes ~locks ()

let engine t = t.engine
let cluster t = t.cluster
let nodes t = t.nodes

(* Every lock's engines keep their own waiting continuations. *)
let outstanding t =
  let n = ref 0 in
  for lock = 0 to Hlock_cluster.locks t.cluster - 1 do
    for node = 0 to t.nodes - 1 do
      n := !n + Dcs_hlock.Node.waiting (Hlock_cluster.node t.cluster ~lock ~node)
    done
  done;
  !n

let now t = Engine.now t.engine
let schedule t ~after f = Engine.schedule t.engine ~after f
let mean_latency t = Net.mean_latency t.net
let message_counters t = Net.counters t.net

(* The custody watchdog runs while requests are outstanding; once it
   stopped, the next request or upgrade re-arms it. *)
let ensure_kicking t =
  if not t.kick_scheduled then begin
    t.kick_scheduled <- true;
    Hlock_cluster.watchdog t.cluster ~engine:t.engine ~period:(8.0 *. Net.mean_latency t.net)
      ~busy:(fun () ->
        t.kick_scheduled <- outstanding t > 0;
        t.kick_scheduled)
  end

let request ?priority t ~node ~lock ~mode ~on_granted =
  ensure_kicking t;
  Hlock_cluster.request ?priority t.cluster ~node ~lock ~mode ~on_granted

let release t ~node ~lock ~seq = Hlock_cluster.release t.cluster ~node ~lock ~seq

let upgrade t ~node ~lock ~seq ~on_upgraded =
  ensure_kicking t;
  Hlock_cluster.upgrade t.cluster ~node ~lock ~seq ~on_upgraded

let drive t script =
  Dcs_workload.Script.drive script
    ~request:(fun (o : Dcs_workload.Script.op) ~on_granted ->
      request ~priority:o.priority t ~node:o.node ~lock:o.lock ~mode:o.mode ~on_granted)
    ~upgrade:(fun (o : Dcs_workload.Script.op) ~seq ~on_upgraded ->
      upgrade t ~node:o.node ~lock:o.lock ~seq ~on_upgraded)
    ~release:(fun (o : Dcs_workload.Script.op) ~seq -> release t ~node:o.node ~lock:o.lock ~seq)
    ~schedule:(schedule t)

let drain t =
  match Engine.run t.engine with
  | Engine.Horizon_reached | Engine.Event_limit -> Error `Undrained
  | Engine.Drained -> (
      match outstanding t with 0 -> Ok () | n -> Error (`Stuck n))

let export_lock t ~lock = Hlock_cluster.export_lock t.cluster ~lock

let quiescent_violations t = Hlock_cluster.quiescent_violations t.cluster
