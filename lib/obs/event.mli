(** Request-lifecycle event vocabulary.

    A {e span} is one lock request's life across the cluster, identified by
    [(lock, requester, seq)] — exactly the id every protocol message already
    carries ({!Dcs_hlock.Msg.request} fields [requester]/[seq], and the
    Naimi baseline's request/seq pair), so events emitted at different nodes
    stitch into one causal timeline without extra wire state.

    Events split by {!scope}: {e span events} ([Span {requester; seq}])
    belong to one request's timeline; {e node events} ([Node], i.e.
    [Frozen]/[Unfrozen]) describe per-node state with no owning request.
    The scope is an explicit constructor — there is no [-1] sentinel. *)

open Dcs_modes
open Dcs_proto

type kind =
  | Requested of { mode : Mode.t; priority : int }
      (** a client issued the request at [node] (also emitted for Rule-7
          upgrades, as a [W] request on the held instance's span) *)
  | Forwarded of { dst : Node_id.t }
      (** the request was relayed one hop from [node] to [dst]; the number
          of [Forwarded] events on a span is its hop count *)
  | Queued  (** the request entered [node]'s local FIFO queue *)
  | Granted_local of { mode : Mode.t; hops : int }
      (** granted without a token transfer: Rule 2 message-free acquisition
          ([hops = 0]) or a Rule 3/3.1 copy grant ([hops] = relay hops the
          request travelled) *)
  | Granted_token of { mode : Mode.t; hops : int }
      (** granted by token transfer (Rule 3.2 operational) *)
  | Upgraded  (** a Rule-7 U→W upgrade completed on this span *)
  | Released of { mode : Mode.t }  (** the client released the instance *)
  | Sent of { cls : Msg_class.t; dst : Node_id.t }
      (** a protocol message for this span left [node] on the wire
          (emitted by the TCP transport only; the simulator's virtual
          network has no distinct send/receive instants) *)
  | Received of { cls : Msg_class.t; src : Node_id.t }
      (** a protocol message for this span arrived at [node] off the wire;
          [Sent]/[Received] pairs on token-transfer edges are what the
          analyzer's causal clock alignment keys on *)
  | Frozen of Mode_set.t  (** modes added to [node]'s frozen set (Rule 6) *)
  | Unfrozen of Mode_set.t  (** modes removed from [node]'s frozen set *)

(** Who an event belongs to: one request's span, or the node itself. *)
type scope = Span of { requester : Node_id.t; seq : int } | Node

type t = {
  time : float;  (** clock time, ms (sim time or wall clock per source) *)
  lock : int;
  node : Node_id.t;  (** node at which the event happened *)
  scope : scope;
  kind : kind;
}

(** Canonical name: ["requested"], ["forwarded"], ["queued"],
    ["granted-local"], ["granted-token"], ["upgraded"], ["released"],
    ["sent"], ["received"], ["frozen"], ["unfrozen"]. *)
val kind_name : kind -> string
