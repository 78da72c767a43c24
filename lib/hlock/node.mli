(** Per-node protocol engine for one hierarchical lock object.

    This is the paper's contribution (Rules 1–7 and the Figure-4
    pseudocode), written as a transport-agnostic state machine: the node
    never performs I/O itself; it calls the [send] callback once per
    message, at the moment the protocol emits it, and the continuation each
    client passes to {!request} or {!upgrade} to wake that client. Nothing
    is buffered, merged or dropped on the way out, so the discrete-event
    simulator ({!Dcs_runtime}) and the real TCP transport ({!Dcs_netkit})
    run the one protocol that the fuzzer, the model checker and the
    invariant oracle test.

    {2 Grant timing}

    The node owns every waiting client's continuation and runs it exactly
    once, with the request's [seq]:

    - at the grant point, when the grant is delivered by a message
      ({!handle_msg}) or happens inside another client call on this node;
    - after the asking call's protocol work, just before it returns, when
      the grant happens inside the very {!request} or {!upgrade} call that
      asked for it (Rule 2's message-free acquisition, or the token node
      serving itself). The continuation runs after the call has passed
      every message it emits to [send], so one that issues further calls
      never reorders the protocol's own traffic.

    {!waiting} counts the continuations still parked.

    {2 State model}

    Each node keeps: a [parent] pointer (routing tree, rooted at the token
    node), the [children] copyset (child → that child's owned mode), the
    multiset of locally [held] modes, a FIFO local [queue] of requests it
    could not serve, at most one [pending] request sent to its parent, and
    the current [frozen] mode set. The {e owned} mode (Definition 3) is the
    strongest of held, cached and children modes; per-mode counts of held
    grants and child records make it a constant-time scan, so no message
    handler walks the copyset to find it.

    {2 Interpretations of under-specified corners} (full catalogue with
    rationale in DESIGN.md §2)

    - Client releases keep the granted mode {e cached} in the copyset
      (Li/Hudak semantics): re-acquisition is message-free until a freeze
      or a conflicting request revokes the copy.
    - Routing and accounting are separate parent relations: releases and
      freezes follow the {e accounting} parent (who granted us, guarded by
      epochs against messages crossing in flight); request routing follows
      pointers moved by transfers (to the queue tail) and adaptive Naimi
      path reversal, never by a copy grant — and is allowed to be
      transiently cyclic, because every relayed request carries its
      visited path and diverts around nodes it has already seen (a sweep
      must reach the token).
    - Custody (Table 2a queueing at pending nodes) is acyclic by
      construction: cross-mode absorption descends the mode hierarchy and
      same-mode absorption only takes Lamport-younger requests; the
      {!kick} watchdog re-circulates long-held custody to shorten the
      tail of the wait, not for liveness.
    - Reads never take the token: the token node copy-grants [IR] and
      [R] even out of a weaker owned mode, so Rule 3.2's transfer serves
      only [IW], [U] and [W].
    - Upgrades (Rule 7) always execute at the token node (no owned mode
      can child-grant [U], so [U] is always served by transfer) and
      outrank every queued request.
    - Requests carry priorities: queues serve by descending priority, FIFO
      within a level — exact at the token node, inverted by at most the
      custodian's own wait inside custody chains. *)

open Dcs_modes
open Dcs_proto

(** Deliberately-broken protocol variants, for validating correctness
    tooling ({!Dcs_check}): a checker worth trusting must catch these.
    Never enabled by {!default_config}. *)
type mutation =
  | Weak_freeze
      (** The token node computes every Table 2(b) freeze set one mode
          short (the strongest member is dropped), so the caches blocking a
          queued writer are never revoked — the writer starves. *)
  | Ignore_frozen
      (** Grant decisions skip the frozen-set check entirely (Rule 6's
          gating off): newcomers overtake queued conflicting requests
          without bound, and retained caches can block a writer forever. *)

(** Ablation switches; the paper's protocol is {!default_config}. *)
type config = {
  eager_release : bool;
      (** When true, send a release message upward on {e every} local or
          child release even if the owned mode did not weaken — the "more
          eager variant" the paper compares against conceptually (§3.2).
          Default false (Rule 5.2: only on weakening). *)
  freezing : bool;
      (** When false, Rule 6 is disabled: no freeze bookkeeping or
          messages, so compatible newcomers may starve queued requests;
          caching is forcibly disabled too, because freezes are the
          cache-revocation channel. Default true. *)
  reverse_all : bool;
      (** Routing ablation: when true, relayers re-point to the requester
          for every mode (full Naimi reversal). When false (default) they
          re-point only for [U]/[W] requests, whose requesters are certain
          future token owners, and never for [IR], [R] or [IW]. *)
  caching : bool;
      (** When true (default), a client release keeps the granted mode in
          the copyset as a {e cached} copy (the Li/Hudak copyset semantics
          the paper generalizes): re-acquisition is message-free (Rule 2)
          until the copy is revoked by a freeze or by a conflicting request
          passing through. When false, every release relinquishes the mode
          immediately. *)
  mutation : mutation option;
      (** Seeded protocol fault for differential testing; [None] (the
          default) is the faithful protocol. See {!mutation}. *)
}

val default_config : config

type t

(** [create ~config ~id ~peers ~is_token ~parent ~send ()] makes a node
    engine for a population of [peers] nodes with ids [0..peers-1]. Exactly
    one node of a lock-object's population must have [is_token = true] (and
    [parent = None]); every other node needs [parent] pointing (directly or
    transitively) toward it. Raises [Invalid_argument] when [id] or
    [parent] lies outside [\[0, peers)], or [parent] contradicts
    [is_token]. [send dst msg] must deliver [msg] to node
    [dst]'s {!handle_msg} (reliably, in any order). Clients pass their
    continuations per call ({!request}, {!upgrade}); a fresh node has none
    waiting.

    [obs], when given, receives every request-lifecycle event this node
    produces ({!Dcs_obs.Event.scope} and [kind]); the embedding supplies
    time, lock and node identity when it records. Request events carry
    [Span {requester; seq}]; frozen-set events carry [Node]. When absent,
    instrumentation costs one branch per site and allocates nothing. *)
val create :
  ?config:config ->
  ?obs:(Dcs_obs.Event.scope -> Dcs_obs.Event.kind -> unit) ->
  id:Node_id.t ->
  peers:int ->
  is_token:bool ->
  parent:Node_id.t option ->
  send:(dst:Node_id.t -> Msg.t -> unit) ->
  unit ->
  t

(** {1 Client operations} *)

(** [request t ~mode ~on_granted] issues a local lock request; returns its
    [seq] (unique per node). [on_granted seq] runs exactly once when the
    request is granted, timed as in "Grant timing" above: when Rule 2
    allows a message-free local acquisition it runs inside this call,
    after the call's protocol work and before it returns. [priority]
    (default 0, non-negative) orders queue service: higher priorities are
    served first, FIFO within a level — the prioritized-token extension of
    the authors' earlier work [Mueller 98, 99] that the paper's FIFO model
    subsumes. *)
val request : ?priority:int -> t -> mode:Mode.t -> on_granted:(int -> unit) -> int

(** [release t ~seq] releases the held instance granted for [seq].
    Raises [Invalid_argument] if [seq] is not currently held. *)
val release : t -> seq:int -> unit

(** [upgrade t ~seq ~on_upgraded] upgrades a held [U] instance to [W]
    (Rule 7). [on_upgraded seq] runs exactly once when the upgrade
    completes, timed like {!request}'s continuation: when no other held
    mode blocks it at the token, inside this call just before it returns.
    Raises [Invalid_argument] if [seq] is not held in mode [U].

    Per the protocol, the [U] holder is necessarily the token node; the
    upgrade never releases [U] and is served as soon as every other held
    mode is released. *)
val upgrade : t -> seq:int -> on_upgraded:(int -> unit) -> unit

(** [kick t] re-circulates absorbed remote requests when this node is
    still waiting for its own pending request: those already in custody at
    the previous kick go on toward the token. Custody is acyclic, so every
    wait ends without it; the watchdog shortens the tail of the wait
    (DESIGN.md §2, repair 10). Call it periodically (order of a few network
    round trips); it is cheap and a no-op when the node is not waiting. *)
val kick : t -> unit

(** {1 Transport hook} *)

(** Deliver one protocol message from node [src]. *)
val handle_msg : t -> src:Node_id.t -> Msg.t -> unit

(** {1 Introspection (tests, invariant checkers, tracing)} *)

val id : t -> Node_id.t
val is_token : t -> bool
val parent : t -> Node_id.t option

(** Strongest of held, cached and children modes (Definition 3); [None] =
    ⊥. Held and cached modes win ties against child records; between the
    equal-strength [U] and [IW] child records, [IW] wins. Constant time:
    per-mode counts and bit masks of held grants and child records are
    kept alongside the tables, and the strongest mode of a mask is one
    table lookup. *)
val owned : t -> Mode.t option

(** The owned mode as the token node sees it when evaluating request [r]:
    for an upgrade (Rule 7), the requester's own [U] contribution — its
    held [U] grant, or its [U] child record — is masked; otherwise
    {!owned}. *)
val owned_for : t -> Msg.request -> Mode.t option

(** Locally held instances as [(seq, mode)]. *)
val held : t -> (int * Mode.t) list

(** Copyset: children and their recorded owned modes, sorted by id. *)
val children : t -> (Node_id.t * Mode.t) list

(** [List.length (children t)] in constant time, without building the list. *)
val copyset_size : t -> int

(** Cached (granted but unheld) modes retained for message-free
    re-acquisition; see [config.caching]. *)
val cached : t -> Mode.t list

(** [retained t i]: how many instances of the mode of index [i]
    ({!Mode.index}) the node retains, its held instances plus one if the
    mode is cached. Constant time and allocation-free: the per-node view
    that {!Invariant.safety} tallies. *)
val retained : t -> int -> int

(** The node currently accounting us in its copyset, with the epoch of the
    relationship; [None] when we own ⊥ or hold the token. *)
val accounting : t -> (Node_id.t * int) option

(** Local FIFO queue of unserved requests. *)
val queue : t -> Msg.request list

val frozen : t -> Mode_set.t
val pending : t -> Msg.request option

(** Local requests and upgrades whose continuation has not run yet. *)
val waiting : t -> int

(** How many relayed requests this node sent on after their visited path
    had covered every node (a restarted membership sweep). A statistic,
    not protocol state: a snapshot does not carry it. *)
val sweep_restarts : t -> int

(** The node's whole state on one line: every field of {!snapshot}, in
    its order and with each queued request's every field, then the
    {!owned} mode, the {!held} instances, the {!pending} request and the
    {!waiting} count. Names shorten the snapshot's ([stamp], [acct=nP@E],
    [reported], [children=[nC:M@E]], [sent], [hint=S@nO], [granter],
    [epochs]). Only client continuations, scheduling scratch and the
    {!sweep_restarts} statistic are left out, so [restore (export t)]
    prints as [t] does. *)
val pp_state : Format.formatter -> t -> unit

(** {1 State snapshots (shard migration)}

    The node's complete persistent protocol state as plain data, so a
    lock object's per-node population can travel inside a shard-handoff
    wire message ({!Dcs_wire.Codec}) and be rebuilt on the receiving
    shard. Fields mirror the state model above; [s_children] and
    [s_sent_freeze] are in ascending node id, so equal states export equal
    snapshots. *)

type snapshot = {
  s_token : bool;
  s_parent : Node_id.t option;
  s_parent_stamp : int;
  s_accounted_parent : Node_id.t option;
  s_accounted_epoch : int;
  s_last_reported : Mode.t option;
  s_cached : Mode_set.t;
  s_children : (Node_id.t * Mode.t * int) list;  (** copyset: (child, mode, epoch) *)
  s_queue : Msg.request list;
  s_frozen : Mode_set.t;
  s_sent_freeze : (Node_id.t * Mode_set.t) list;
  s_tenure : int;
  s_hint : int * Node_id.t;
  s_last_granter : Node_id.t option;
  s_next_seq : int;
  s_clock : int;
  s_epoch_counter : int;
}

(** Capture this node's persistent state. The node must be client-quiescent:
    no locally held instances, no pending request, no waiting client
    continuation — raises [Invalid_argument] otherwise.
    (Queued {e remote} requests and copyset state are part of the snapshot;
    only live client continuations cannot cross a shard boundary.) *)
val export : t -> snapshot

(** Rebuild a node from a snapshot with a fresh transport hook and no
    waiting continuations — the receiving end of a shard handoff.
    [restore (export t)] behaves identically to [t] for every subsequent
    input. A sent-freeze entry with an empty set is dropped (the same as
    having sent nothing). Raises [Invalid_argument] when [id] or any
    child, sent-freeze, parent, accounted-parent or last-granter id in
    the snapshot lies outside [\[0, peers)]. *)
val restore :
  ?config:config ->
  ?obs:(Dcs_obs.Event.scope -> Dcs_obs.Event.kind -> unit) ->
  id:Node_id.t ->
  peers:int ->
  send:(dst:Node_id.t -> Msg.t -> unit) ->
  snapshot ->
  t
