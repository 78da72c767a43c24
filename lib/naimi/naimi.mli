(** The Naimi–Trehel–Arnold token-based mutual-exclusion protocol [14]
    (J. Parallel Distrib. Comput. 34(1), 1996) — the baseline the paper
    compares against.

    Exclusive, single-mode locking over a dynamic logical tree:

    - each node keeps a probable-owner pointer ([father]) and a [next]
      pointer forming a distributed FIFO queue of waiting requesters;
    - a request travels the [father] chain to the current root; every node
      on the path re-points [father] to the requester (path reversal /
      path compression), giving the O(log n) average message complexity;
    - the root either sends the token immediately (idle) or records the
      requester in [next] (the requester will receive the token on
      release).

    The engine is transport-agnostic exactly like {!Dcs_hlock.Node}. *)

open Dcs_proto

type msg =
  | Request of { requester : Node_id.t; seq : int }
      (** A request travelling the probable-owner chain. [(requester, seq)]
          is the request's span id ({!Dcs_obs.Event}): [seq] is assigned by
          the requester and unique per node, so events recorded at relaying
          nodes stitch into one timeline. *)
  | Token
      (** The token: permission to enter the critical section. The receiver
          knows which of its requests is being served (it has at most one
          outstanding), so the token carries no span id. *)

(** Figure-7 bucket of a message ([Request] or [Token_transfer]). *)
val class_of : msg -> Msg_class.t

val pp_msg : Format.formatter -> msg -> unit

type t

(** [create ~id ~is_root ~father ~send ()] builds a node.
    Exactly one node has [is_root = true] (it starts with the token and
    [father = None]); all others point (directly or transitively) to it.

    [obs] receives request-lifecycle events exactly as in
    {!Dcs_hlock.Node.create}; Naimi requests are recorded as mode-[W]
    spans (the lock is exclusive). *)
val create :
  ?obs:(Dcs_obs.Event.scope -> Dcs_obs.Event.kind -> unit) ->
  id:Node_id.t ->
  is_root:bool ->
  father:Node_id.t option ->
  send:(dst:Node_id.t -> msg -> unit) ->
  unit ->
  t

(** [request t ~on_acquired] asks for the critical section. The node keeps
    [on_acquired] and runs it exactly once, when the token arrives: inside
    the {!handle_msg} that delivers it, or — at the root holding an idle
    token — inside this call, as its last step. Raises [Invalid_argument]
    if this node is already requesting or inside its critical section (the
    protocol is not reentrant). *)
val request : t -> on_acquired:(unit -> unit) -> unit

(** Leave the critical section, passing the token to [next] if some node is
    waiting. Raises [Invalid_argument] if not inside the critical
    section. *)
val release : t -> unit

(** Deliver one protocol message. *)
val handle_msg : t -> src:Node_id.t -> msg -> unit

(** {1 Introspection} *)

val id : t -> Node_id.t

(** Physically holds the token right now. *)
val has_token : t -> bool

(** Inside the critical section. *)
val in_cs : t -> bool

(** Waiting for the token. *)
val requesting : t -> bool

val father : t -> Node_id.t option
val next : t -> Node_id.t option
