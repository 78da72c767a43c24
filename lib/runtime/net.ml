open Dcs_proto

(* A receiver: its state [env] and a closed [deliver] over it, so that
   registering a receiver builds no closure per message. *)
type 'a port =
  | Port : {
      env : 'e;
      deliver : 'e -> Node_id.t -> Node_id.t -> 'a -> unit;
      describe : 'a -> string;
    }
      -> 'a port

(* Never inlined: a port is built once per receiver, and this keeps its
   allocation out of the module initialiser below, which would take it
   through the runtime's [caml_alloc3]. *)
let[@inline never] port ~env ~deliver ~describe = Port { env; deliver; describe }

(* A message parked in the partition buffer, as data. *)
type held =
  | Held : {
      src : Node_id.t;
      dst : Node_id.t;
      cls : Msg_class.t;
      port : 'a port;
      payload : 'a;
    }
      -> held

type t = {
  engine : Dcs_sim.Engine.t;
  latency : Dcs_sim.Dist.t;
  topology : Dcs_sim.Topology.t;
  rng : Dcs_sim.Rng.t;
  trace : Dcs_sim.Trace.t option;
  counters : Counters.t;
  (* Per-link FIFO floors: [floors.(src).(dst)] is the latest delivery
     time scheduled on link src→dst, [neg_infinity] before the first.
     Flat float rows, grown on demand to cover the ids seen. *)
  mutable floors : float array array;
  mutable in_flight : int;
  mutable fault : Link.fault option;
  held : held Queue.t;
  mutable dropped : int;
  mutable duplicated : int;
}

let create ~engine ~latency ?(topology = Dcs_sim.Topology.uniform) ~rng ?trace () =
  {
    engine;
    latency;
    topology;
    rng;
    trace;
    counters = Counters.create ();
    floors = [||];
    in_flight = 0;
    fault = None;
    held = Queue.create ();
    dropped = 0;
    duplicated = 0;
  }

let reset t =
  (* Back to the just-created state so one net can carry many independent
     runs (the engine, rng and trace are owned by the caller, which resets
     or reseeds them alongside). Per-link delivery floors must go: they
     are absolute times from the previous run's clock. *)
  Array.iter (fun row -> Array.fill row 0 (Array.length row) neg_infinity) t.floors;
  Counters.reset t.counters;
  t.in_flight <- 0;
  t.fault <- None;
  Queue.clear t.held;
  t.dropped <- 0;
  t.duplicated <- 0

let set_fault t fault = t.fault <- Some fault

let clear_fault t = t.fault <- None

(* FIFO per directed pair: never schedule a delivery before an earlier one
   on the same link (TCP semantics). The fault layer may scale or extend a
   draw, but the floor still applies, so faults never reorder a link. *)

(* The floor row of [src], covering [dst]. *)
let floor_row t ~src ~dst =
  if src >= Array.length t.floors then begin
    let rows = Array.make (max (src + 1) (2 * Array.length t.floors)) [||] in
    Array.blit t.floors 0 rows 0 (Array.length t.floors);
    t.floors <- rows
  end;
  let row = t.floors.(src) in
  if dst < Array.length row then row
  else begin
    let grown = Array.make (max (dst + 1) (2 * Array.length row)) neg_infinity in
    Array.blit row 0 grown 0 (Array.length row);
    t.floors.(src) <- grown;
    grown
  end

let delivery_time t ~src ~dst ~delay_factor ~extra_delay =
  let now = Dcs_sim.Engine.now t.engine in
  let scale = Dcs_sim.Topology.factor t.topology ~src ~dst in
  let draw = scale *. Dcs_sim.Dist.sample t.latency t.rng in
  (* Plain comparisons, not [Float.max]: its NaN and signed-zero handling
     calls C per use, and no time or delay here is NaN. *)
  let factor = if delay_factor > 1.0 then delay_factor else 1.0 in
  let extra = if extra_delay > 0.0 then extra_delay else 0.0 in
  let naive = now +. (factor *. draw) +. extra in
  (* Before the first delivery the floor is [neg_infinity]: [naive]. *)
  let row = floor_row t ~src ~dst in
  let next = row.(dst) +. 1e-6 in
  let floor = if naive >= next then naive else next in
  row.(dst) <- floor;
  floor

(* The one engine closure of a delivered copy captures the net, the port,
   the link and the payload. The trace records force [describe] only when
   a trace is attached; the delivery record reads the engine's clock,
   which is the scheduled [time] while the closure runs. *)
let deliver_copy t ~src ~dst ~delay_factor ~extra_delay (Port p) payload =
  t.in_flight <- t.in_flight + 1;
  let time = delivery_time t ~src ~dst ~delay_factor ~extra_delay in
  (match t.trace with
  | Some trace ->
      Dcs_sim.Trace.record trace ~time:(Dcs_sim.Engine.now t.engine) (fun () ->
          Printf.sprintf "send n%d->n%d %s (eta %.3f)" src dst (p.describe payload) time)
  | None -> ());
  Dcs_sim.Engine.schedule_at t.engine ~time (fun () ->
      t.in_flight <- t.in_flight - 1;
      (match t.trace with
      | Some trace ->
          Dcs_sim.Trace.record trace ~time:(Dcs_sim.Engine.now t.engine) (fun () ->
              Printf.sprintf "recv n%d->n%d %s" src dst (p.describe payload))
      | None -> ());
      p.deliver p.env src dst payload)

(* Record a hold or a drop of a message that gets no delivery closure. *)
let note t verb ~src ~dst (Port p) payload =
  match t.trace with
  | Some trace ->
      Dcs_sim.Trace.record trace ~time:(Dcs_sim.Engine.now t.engine) (fun () ->
          Printf.sprintf "%s n%d->n%d %s" verb src dst (p.describe payload))
  | None -> ()

(* Consult the fault hook (if any) and act on its decision. Also the
   re-entry point for flushed held messages, hence no counting here.
   Without a hook the decision is [Link.pass]: one copy, unscaled, which
   goes straight to [deliver_copy]. Never inlined, so the senders that
   inline [post] do not take in its generic calls of the hook. *)
let[@inline never] dispatch t ~src ~dst ~cls port payload =
  match t.fault with
  | None -> deliver_copy t ~src ~dst ~delay_factor:1.0 ~extra_delay:0.0 port payload
  | Some f -> (
      match f ~now:(Dcs_sim.Engine.now t.engine) ~src ~dst ~cls with
      | Link.Hold ->
          note t "hold" ~src ~dst port payload;
          Queue.add (Held { src; dst; cls; port; payload }) t.held
      | Link.Deliver { copies; delay_factor; extra_delay } ->
          if copies <= 0 then begin
            t.dropped <- t.dropped + 1;
            note t "drop" ~src ~dst port payload
          end
          else begin
            if copies > 1 then t.duplicated <- t.duplicated + (copies - 1);
            for _ = 1 to copies do
              deliver_copy t ~src ~dst ~delay_factor ~extra_delay port payload
            done
          end)

let post t port ~src ~dst ~cls payload =
  Counters.incr t.counters cls;
  dispatch t ~src ~dst ~cls port payload

(* The closure form: the payload is the pair of closures, and one shared
   port runs them. *)
let closures =
  port ~env:()
    ~deliver:(fun () _ _ ((_ : unit -> string), deliver) -> deliver ())
    ~describe:(fun (describe, (_ : unit -> unit)) -> describe ())

let send t ~src ~dst ~cls ~describe deliver = post t closures ~src ~dst ~cls (describe, deliver)

let flush_held t =
  (* Re-dispatch in send order; messages whose links are still faulted are
     re-held behind any newly held traffic, preserving FIFO per link. *)
  let pending = Queue.create () in
  Queue.transfer t.held pending;
  Queue.iter (fun (Held h) -> dispatch t ~src:h.src ~dst:h.dst ~cls:h.cls h.port h.payload) pending

let counters t = t.counters

let now t = Dcs_sim.Engine.now t.engine

let in_flight t = t.in_flight + Queue.length t.held

let held_count t = Queue.length t.held

let dropped t = t.dropped

let duplicated t = t.duplicated

let mean_latency t = Dcs_sim.Dist.mean t.latency
