(** Bounded exhaustive model checking of the hierarchical-locking protocol.

    For a small node population and a one-lock client script
    ({!Dcs_workload.Script.t}, the scenario type the fuzzer and the shard
    bursts run), the checker explores {e every} order in which in-flight
    messages can be delivered (per-link FIFO is preserved, matching the
    transport contract), deduplicating states by a structural digest. In
    every reachable state it asserts {!Dcs_hlock.Invariant.safety}: exactly
    one token (holders plus in-flight transfers), pairwise-compatible held
    and cached modes, and no more queued requests than client requests
    still waiting.

    In every {e terminal} state (no messages left) it additionally asserts
    liveness for the script — every request was granted, every upgrade
    completed, and all clients released — and grant-order fairness: a
    node's own requests for the same mode are granted in issue order
    (cross-node and cross-mode overtaking is legitimate under Rule 2
    caching, so only the same-node same-mode discipline is FIFO-checkable
    without false positives).

    The script's ops are issued up front, in list order, with their
    priorities. Their [at] and [hold] times are ignored: every delivery
    order is explored anyway, and clients are modelled as release-on-grant
    — each op releases as soon as it is granted (after upgrading, for
    [Acquire_upgrade] ops), so terminal states are fully quiescent.

    This is replay-based (each explored path re-executes the protocol from
    scratch), so it suits populations of 2–4 nodes and scripts of 2–5
    ops — which is exactly where the historical protocol bugs lived
    (crossing requests, mutual absorption, upgrade deadlocks). *)

type result = {
  states : int;  (** distinct states visited *)
  terminals : int;  (** quiescent states reached *)
  truncated : bool;  (** hit [max_states] before finishing *)
  violations : string list;  (** empty = all checks passed *)
}

(** [explore script] checks every delivery order of [script] on
    [script.nodes] nodes. Raises [Invalid_argument] if the script fails
    {!Dcs_workload.Script.validate} or has more than one lock. *)
val explore :
  ?config:Dcs_hlock.Node.config -> ?max_states:int -> Dcs_workload.Script.t -> result
