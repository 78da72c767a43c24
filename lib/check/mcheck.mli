(** Bounded exhaustive model checking of the hierarchical-locking protocol.

    For a small node population and a one-lock client script
    ({!Dcs_workload.Script.t}, the scenario type the fuzzer and the shard
    bursts run), the checker explores {e every} order in which in-flight
    messages can be delivered (per-link FIFO is preserved, matching the
    transport contract), deduplicating states by a structural digest.

    The explorer builds no cluster of its own. Each path replays on a
    {!Dcs_runtime.Hlock_cluster} with [oracle:true] whose transport parks
    every message on its link's FIFO; a path step delivers one link's head.
    So the cluster's oracle ({!Dcs_hlock.Invariant.safety}: exactly one
    token, pairwise-compatible held and cached modes, queues bounded by the
    waiting client requests) runs after every client call and every
    delivery, as in fuzz and chaos runs, and a state in which it fails is
    reported and not expanded.

    Each {e terminal} state (no message left) is judged like a finished
    fuzz run: {!Dcs_runtime.Hlock_cluster.quiescent_violations} and
    {!Oracle.conformance} over the replay's recorded events, whose
    never-granted and never-released checks are the liveness verdict. The
    explorer adds one rule of its own, grant-order fairness: a node's own
    requests for the same mode are granted in issue order (cross-node and
    cross-mode overtaking is legitimate under Rule 2 caching, so only the
    same-node same-mode discipline is FIFO-checkable without false
    positives).

    The script's ops are issued up front, in list order, with their
    priorities, through {!Fuzz.drive}, the adapter {!Fuzz.run}
    uses. Their [at] and [hold] times are ignored: every
    delivery order is explored anyway, and clients are modelled as
    release-on-grant — each op releases as soon as it is granted (after
    upgrading, for [Acquire_upgrade] ops), so terminal states are fully
    quiescent.

    The state key is deliberately abstract, and the explorer builds it
    itself from {!Dcs_hlock.Node}'s getters: per node, the token flag,
    parent, owned mode, held instances, copyset modes, queue {e length},
    frozen set, pending request, cached modes and accounting pointer; then
    every in-flight message, link by link. Two states that differ only in
    what it omits (queue contents, record and counter epochs, Lamport
    clocks, token hints, sent freezes, the last granter) are
    explored once, so the counts are those of this abstraction. A
    complete key ({!Dcs_hlock.Node.pp_state} prints every field) is not
    affordable while each path replays from the start: keyed on every
    field, three of the pinned scenarios hit a 30,000-state cap after
    23–56 s where this key explores 227–427 states. It waits for stored
    states and partial-order reduction.

    This is replay-based (each explored path re-executes the protocol from
    scratch), so it suits populations of 2–4 nodes and scripts of 2–5
    ops — which is exactly where the historical protocol bugs lived
    (crossing requests, mutual absorption, upgrade deadlocks). *)

type result = {
  states : int;  (** distinct states visited *)
  terminals : int;  (** quiescent states reached *)
  truncated : bool;  (** hit [max_states] before finishing *)
  violations : string list;
      (** empty = all checks passed; otherwise one line per violating
          state (at most 5), its violations joined by ["; "] *)
}

(** [explore script] checks every delivery order of [script] on
    [script.nodes] nodes. Raises [Invalid_argument] if the script fails
    {!Dcs_workload.Script.validate} or has more than one lock. *)
val explore :
  ?config:Dcs_hlock.Node.config -> ?max_states:int -> Dcs_workload.Script.t -> result
