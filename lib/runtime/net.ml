open Dcs_proto

type held = {
  h_src : Node_id.t;
  h_dst : Node_id.t;
  h_cls : Msg_class.t;
  h_describe : unit -> string;
  h_deliver : unit -> unit;
}

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

(* The [record] thunks are only constructed when tracing is on, and an
   untraced delivery closure captures only [t] and [deliver]: anything more
   would cost allocation per message on untraced runs. *)
let deliver_copy t ~src ~dst ~describe ~delay_factor ~extra_delay deliver =
  t.in_flight <- t.in_flight + 1;
  let time = delivery_time t ~src ~dst ~delay_factor ~extra_delay in
  match t.trace with
  | Some trace ->
      Dcs_sim.Trace.record trace ~time:(Dcs_sim.Engine.now t.engine) (fun () ->
          Printf.sprintf "send n%d->n%d %s (eta %.3f)" src dst (describe ()) time);
      Dcs_sim.Engine.schedule_at t.engine ~time (fun () ->
          t.in_flight <- t.in_flight - 1;
          Dcs_sim.Trace.record trace ~time (fun () ->
              Printf.sprintf "recv n%d->n%d %s" src dst (describe ()));
          deliver ())
  | None ->
      Dcs_sim.Engine.schedule_at t.engine ~time (fun () ->
          t.in_flight <- t.in_flight - 1;
          deliver ())

(* Consult the fault hook (if any) and act on its decision. Also the
   re-entry point for flushed held messages, hence no counting here.
   Without a hook the decision is [Link.pass]: one copy, unscaled, which
   goes straight to [deliver_copy]. *)
let dispatch t ~src ~dst ~cls ~describe deliver =
  match t.fault with
  | None -> deliver_copy t ~src ~dst ~describe ~delay_factor:1.0 ~extra_delay:0.0 deliver
  | Some f -> (
      match f ~now:(Dcs_sim.Engine.now t.engine) ~src ~dst ~cls with
      | Link.Hold ->
          (match t.trace with
          | Some trace ->
              Dcs_sim.Trace.record trace ~time:(Dcs_sim.Engine.now t.engine) (fun () ->
                  Printf.sprintf "hold n%d->n%d %s" src dst (describe ()))
          | None -> ());
          Queue.add
            { h_src = src; h_dst = dst; h_cls = cls; h_describe = describe; h_deliver = deliver }
            t.held
      | Link.Deliver { copies; delay_factor; extra_delay } ->
          if copies <= 0 then begin
            t.dropped <- t.dropped + 1;
            match t.trace with
            | Some trace ->
                Dcs_sim.Trace.record trace ~time:(Dcs_sim.Engine.now t.engine) (fun () ->
                    Printf.sprintf "drop n%d->n%d %s" src dst (describe ()))
            | None -> ()
          end
          else begin
            if copies > 1 then t.duplicated <- t.duplicated + (copies - 1);
            for _ = 1 to copies do
              deliver_copy t ~src ~dst ~describe ~delay_factor ~extra_delay deliver
            done
          end)

let send t ~src ~dst ~cls ~describe deliver =
  Counters.incr t.counters cls;
  dispatch t ~src ~dst ~cls ~describe deliver

let flush_held t =
  (* Re-dispatch in send order; messages whose links are still faulted are
     re-held behind any newly held traffic, preserving FIFO per link. *)
  let pending = Queue.create () in
  Queue.transfer t.held pending;
  Queue.iter
    (fun h ->
      dispatch t ~src:h.h_src ~dst:h.h_dst ~cls:h.h_cls ~describe:h.h_describe h.h_deliver)
    pending

let counters t = t.counters

let now t = Dcs_sim.Engine.now t.engine

let in_flight t = t.in_flight + Queue.length t.held

let held_count t = Queue.length t.held

let dropped t = t.dropped

let duplicated t = t.duplicated

let mean_latency t = Dcs_sim.Dist.mean t.latency
