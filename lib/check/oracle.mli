(** The trace-conformance checker ({!conformance}).

    The distributed protocol is {e not} observationally equal to a
    sequential lock manager with one FIFO queue per lock: Rule 2 lets a
    node with a cached copy re-acquire message-free, legitimately
    overtaking an older conflicting request queued remotely until the
    Rule-6 freeze propagates to it. Strict FIFO-order checking would
    therefore reject correct runs. Conformance instead checks what the
    protocol does promise, on the {!Dcs_obs.Event.t} trace:

    - {e compatibility}: grant intervals concurrently open on one lock
      carry pairwise Table-1-compatible modes (hard safety);
    - {e upgrade atomicity}: when [Upgraded] fires, no other span holds a
      grant on that lock (Rule 7: [U]→[W] without releasing; hard);
    - {e well-formedness}: grants match a requested span and mode, no
      double grant, releases match the held mode (W after an upgrade),
      upgrades only on granted [U] spans with a pending upgrade request
      (hard);
    - {e bounded overtaking}: each waiting request counts the
      incompatible, non-outranking grants that jump it; the count must
      stay at or below 100 (soft fairness — the window for legal
      overtaking is the freeze-propagation delay, so an unbounded count
      means Rule 6 is broken);
    - {e liveness} (when [require_complete]): every requested span is
      granted and released by end of trace. *)

type report = {
  events : int;
  spans : int;  (** distinct (lock, requester, seq) client spans *)
  grants : int;
  upgrades : int;
  releases : int;
  max_overtakes_seen : int;
  ungranted : int;  (** spans never granted (incl. pending upgrades) *)
  unreleased : int;  (** spans granted but never released *)
  violations : string list;
}

(** [conformance ~events ()] replays a chronological event trace against
    the rules above. [require_complete] (default true) turns
    ungranted/unreleased spans into liveness violations. *)
val conformance :
  ?require_complete:bool ->
  events:Dcs_obs.Event.t list ->
  unit ->
  report
