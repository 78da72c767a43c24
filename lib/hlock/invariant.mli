(** The protocol's invariants over one lock object's node population —
    the single checker behind every oracle in the repository: the
    per-delivery and per-client-call oracle of
    {!Dcs_runtime.Hlock_cluster} (which chaos soaks, the fuzzer and the
    model checker [Dcs_check.Mcheck] run under) and its end-of-run
    quiescence check.

    Both functions take the lock's [Node.t array] indexed by node id and
    return readable violations, each prefixed with ["lock <lock>: "];
    empty = no violation. *)

(** Invariants that hold in every reachable state:

    - {e single token} (Rule 3.2): token holders plus [tokens_in_flight]
      (token transfers on the wire) equal exactly one;
    - {e mode compatibility} (Rule 1, Tables 1a/1b): every held or cached
      mode is pairwise compatible with every other, pairs on the same
      node included;
    - {e bounded queues}: the requests sitting in local queues number at
      most the client requests and upgrades still waiting on this lock
      ({!Node.waiting} summed over [nodes]) — a request queued twice or
      a queue entry outliving its grant shows up here long before a
      liveness timeout.

    O(nodes + total queue length), and a check that finds nothing
    allocates nothing: it tallies {!Node.retained} into bit masks and
    builds its witnesses only for a report. *)
val safety : lock:int -> tokens_in_flight:int -> Node.t array -> string list

(** The at-rest state once the network has drained and every client has
    released: no queued, pending or held requests; every child record
    matches the child's owned mode and accounting pointer, and every
    accounting pointer is backed by a record (non-token nodes owning a
    mode must have one); no node is its own routing parent. Routing
    pointers are deliberately {e not} required to form a tree — stale
    cycles are benign because relayed requests carry their path and
    divert around them. Does not include {!safety}. *)
val quiescent : lock:int -> Node.t array -> string list
