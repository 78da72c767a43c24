open Dcs_proto

type stats = {
  data_sent : int;
  retransmits : int;
  acks : int;
  duplicates_dropped : int;
  buffered_out_of_order : int;
  max_unacked : int;
}

(* One directed pair src->dst: sender-side window state (lives at src) and
   receiver-side reassembly state (lives at dst). The shim is a global
   object in the simulation, so both halves share a record. *)
type chan = {
  src : Node_id.t;
  dst : Node_id.t;
  mutable next_seq : int;
  mutable unacked : (int * Msg_class.t * (unit -> string) * (int -> unit)) list;
      (* ascending seq; last component is the data-arrival continuation *)
  mutable timer_armed : bool;
  mutable rto_cur : float;
  mutable expected : int;  (* receiver: next in-order seq *)
  mutable buffer : (int * (unit -> unit)) list;  (* out-of-order, ascending *)
}

type t = {
  engine : Dcs_sim.Engine.t;
  below : Link.send;
  rto : float;
  chans : (Node_id.t * Node_id.t, chan) Hashtbl.t;
  mutable data_sent : int;
  mutable retransmits : int;
  mutable acks : int;
  mutable duplicates_dropped : int;
  mutable buffered_out_of_order : int;
  mutable max_unacked : int;
}

let create ~engine ?(rto = 600.0) ~below () =
  if rto <= 0.0 then invalid_arg "Reliable.create: rto must be positive";
  {
    engine;
    below;
    rto;
    chans = Hashtbl.create 64;
    data_sent = 0;
    retransmits = 0;
    acks = 0;
    duplicates_dropped = 0;
    buffered_out_of_order = 0;
    max_unacked = 0;
  }

let chan t ~src ~dst =
  match Hashtbl.find_opt t.chans (src, dst) with
  | Some ch -> ch
  | None ->
      let ch =
        {
          src;
          dst;
          next_seq = 0;
          unacked = [];
          timer_armed = false;
          rto_cur = t.rto;
          expected = 0;
          buffer = [];
        }
      in
      Hashtbl.replace t.chans (src, dst) ch;
      ch

let transmit t ch ~retx (seq, cls, describe, on_data) =
  let cls = if retx then Msg_class.Retransmit else cls in
  t.below ~src:ch.src ~dst:ch.dst ~cls
    ~describe:(fun () ->
      Printf.sprintf "%s #%d%s" (describe ()) seq (if retx then " retx" else ""))
    (fun () -> on_data seq)

(* Retransmit every unacked message of the channel, oldest first, backing
   the timeout off; the timer stays armed until the channel drains. *)
let rec arm_timer t ch =
  if (not ch.timer_armed) && ch.unacked <> [] then begin
    ch.timer_armed <- true;
    Dcs_sim.Engine.schedule t.engine ~after:ch.rto_cur (fun () ->
        ch.timer_armed <- false;
        if ch.unacked <> [] then begin
          List.iter
            (fun (seq, cls, describe, on_data) ->
              t.retransmits <- t.retransmits + 1;
              transmit t ch ~retx:true (seq, cls, describe, on_data))
            ch.unacked;
          ch.rto_cur <- Float.min (2.0 *. ch.rto_cur) (8.0 *. t.rto);
          arm_timer t ch
        end)
  end

let send_ack t ch =
  (* Cumulative: acknowledges everything below the receiver's next
     expected sequence number, so acks are idempotent and loss-tolerant. *)
  let cum = ch.expected - 1 in
  t.acks <- t.acks + 1;
  t.below ~src:ch.dst ~dst:ch.src ~cls:Msg_class.Ack
    ~describe:(fun () -> Printf.sprintf "ack #%d" cum)
    (fun () ->
      ch.unacked <- List.filter (fun (seq, _, _, _) -> seq > cum) ch.unacked;
      if ch.unacked = [] then ch.rto_cur <- t.rto)

let rec drain t ch =
  match ch.buffer with
  | (seq, deliver) :: rest when seq = ch.expected ->
      ch.buffer <- rest;
      ch.expected <- ch.expected + 1;
      deliver ();
      drain t ch
  | _ -> ()

let on_data t ch ~deliver seq =
  if seq < ch.expected || List.mem_assoc seq ch.buffer then
    t.duplicates_dropped <- t.duplicates_dropped + 1
  else begin
    if seq <> ch.expected then t.buffered_out_of_order <- t.buffered_out_of_order + 1;
    ch.buffer <-
      List.merge (fun (a, _) (b, _) -> compare a b) [ (seq, deliver) ] ch.buffer;
    drain t ch
  end;
  send_ack t ch

let send t ~src ~dst ~cls ~describe deliver =
  let ch = chan t ~src ~dst in
  let seq = ch.next_seq in
  ch.next_seq <- seq + 1;
  let on_data = on_data t ch ~deliver in
  let entry = (seq, cls, describe, on_data) in
  ch.unacked <- ch.unacked @ [ entry ];
  t.data_sent <- t.data_sent + 1;
  t.max_unacked <- max t.max_unacked (List.length ch.unacked);
  transmit t ch ~retx:false entry;
  arm_timer t ch

let stats t =
  {
    data_sent = t.data_sent;
    retransmits = t.retransmits;
    acks = t.acks;
    duplicates_dropped = t.duplicates_dropped;
    buffered_out_of_order = t.buffered_out_of_order;
    max_unacked = t.max_unacked;
  }

let quiescent_violations t =
  Hashtbl.fold
    (fun (src, dst) ch acc ->
      let acc =
        if ch.unacked <> [] then
          Printf.sprintf "channel n%d->n%d: %d unacked messages" src dst
            (List.length ch.unacked)
          :: acc
        else acc
      in
      if ch.buffer <> [] then
        Printf.sprintf "channel n%d->n%d: receiver gap before %d buffered arrivals" src
          dst (List.length ch.buffer)
        :: acc
      else acc)
    t.chans []
  |> List.sort compare
