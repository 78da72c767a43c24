(** Wire messages of the hierarchical-locking protocol (one lock object).

    Six message kinds drive the protocol (paper §3.4 "receiving request,
    grant, token, release, freeze and update messages"); the paper's
    "update" is subsumed here by {!Release} carrying the child's new owned
    mode (including [None] = detach). *)

open Dcs_modes
open Dcs_proto

(** A lock request as it travels the tree toward a granter. *)
type request = {
  requester : Node_id.t;  (** the node that wants the lock *)
  seq : int;  (** requester-local sequence number; [(requester, seq)] is a
                  globally unique request id, echoed back in grants *)
  mode : Mode.t;  (** requested mode *)
  upgrade : bool;  (** Rule 7: a [W] request by the holder of the [U] lock;
                       the requester's own [U] is masked when checking
                       grantability *)
  timestamp : int;  (** Lamport time at issue; used to merge local queues
                        FIFO-consistently on token transfer *)
  priority : int;  (** request priority (0 = default; larger = more
                       urgent). Queues serve strictly by descending
                       priority, FIFO (Lamport order) within a priority
                       level — the prioritized-token semantics of the
                       authors' earlier protocols [11, 12] that this
                       paper's FIFO model generalizes. Non-negative. *)
  hops : int;  (** relay hops so far, reported with the grant (telemetry
                   and the fuzzer's hop count); routing never reads it *)
  hint_stamp : int;
      (** the tenure of the freshest token location the sender knows —
          tenure increments at every token transfer *)
  hint_owner : Dcs_proto.Node_id.t;
      (** the token owner at [hint_stamp]. Receivers keep the max-tenure
          hint they have seen; requests that cannot make progress along
          tree pointers jump to the hinted owner, which is at worst a few
          transfer edges behind the token. Two int fields, not a pair, so
          a relay that adopts a hint stores no box. *)
  path : Dcs_proto.Node_id.t list;
      (** nodes visited (requester and relayers, newest first). Every relay
          adds itself and excludes every node on the path from its next
          hop, so a request caught in a transient routing cycle sweeps the
          membership — its tree and hint pointers first, then the
          lowest-id unvisited node — and must reach a node that takes
          custody (the token holder in the worst case). The path restarts
          at the relay only when no candidate is left, or when the relay
          sends it to the owner of a fresher token hint. *)
}

type t =
  | Request of request
      (** A request being issued or relayed up parent links (Rules 2, 4). *)
  | Grant of {
      req : request;
      epoch : int;
      recorded : Mode.t;
      frozen : Mode_set.t;
    }
      (** Copy grant: the sender granted [req] and adopted the requester as
          its child (Rule 3). Sent directly to [req.requester]. [epoch] is
          the granter's fresh epoch for this parent/child relationship;
          the child echoes it in every {!Release} so the granter can drop
          release messages that crossed the grant in flight. [recorded] is
          the child mode the granter wrote into its copyset record — at
          least [req.mode], and stronger when a previous record was carried
          over because its release may still be in flight; the child adopts
          it as its last-reported mode so any gap between the record and
          what it really owns is repaired by its next report rather than
          silently lost with the stale-epoch release. The grantee
          refuses the grant when it is the token node or when another
          parent already accounts for at least [recorded].
          [frozen] is the frozen set the granter owes the new child
          (Rule 6): what a {!Freeze} sent right behind the grant would
          carry, and empty when there is none. The child applies it as
          that Freeze once the grant is handled, so a copy grant costs one
          message; a standalone {!Freeze} carries only later changes. *)
  | Token of {
      serving : request;  (** the request answered by this transfer *)
      sender_owned : Mode.t option;
          (** sender's residual owned mode; [Some m] makes the sender a
              child of the new token node, [None] detaches it *)
      sender_epoch : int;
          (** epoch pairing the sender-as-child with the new token node *)
      queue : request list;  (** sender's local queue, FIFO order *)
      frozen : Mode_set.t;  (** frozen modes at handover *)
    }  (** Token transfer (Rule 3.2 operational, Rule 4's queue handoff). *)
  | Release of { new_owned : Mode.t option; epoch : int }
      (** The sending child's owned mode changed to [new_owned]; [None]
          removes it from the copyset (Rule 5.2). Also used as a detach
          notice when a child is re-parented by a grant from a different
          node, and (rarely) as a strengthening "update" after a grant
          raced a release. Applied by the parent only when [epoch] matches
          its current record for the child. *)
  | Freeze of { frozen : Mode_set.t }
      (** Every frozen mode the sender has owed the receiver, one of its
          children, since the grant that made it one (Rule 6). Sent only
          when that set grows after the grant, which carried its first
          value. The receiver adds the modes to its frozen set and drops
          any cached copy of them. *)

(** Figure-7 bucket of a message. *)
val class_of : t -> Msg_class.t

val pp_request : Format.formatter -> request -> unit
val pp : Format.formatter -> t -> unit

(** Requests are equal iff their [(requester, seq)] ids are. *)
val request_same : request -> request -> bool

(** Total order on requests by [(timestamp, requester, seq)] — the global
    serialization order used for the absorption rule (a node only queues
    same-mode requests {e younger} than its own pending one; older requests
    are relayed onward, so custody chains always point from younger to
    older and the globally oldest request can never be captured in a
    circular wait). Deliberately ignores priority: custody acyclicity needs
    a priority-independent order. *)
val request_lt : request -> request -> bool

(** Queue service order: upgrades first (Rule 7), then by descending
    priority, then the {!request_lt} FIFO order. *)
val service_order : request -> request -> int

(** Insert into a queue kept sorted by {!service_order} (stable: equal
    keys keep arrival order). *)
val insert_by_service_order : request -> request list -> request list

(** Merge two queues sorted by {!service_order} into one (on ties the
    first queue's entries come first). Both inputs must be sorted; every
    node queue is, being built by {!insert_by_service_order}. *)
val merge_queues : request list -> request list -> request list
