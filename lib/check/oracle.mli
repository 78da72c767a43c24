(** The sequential reference oracle and the trace-conformance checker.

    {2 Reference semantics}

    {!Sequential} is the paper's protocol with all distribution removed: a
    single manager holding one FIFO queue per lock object. Grants obey
    Table 1 compatibility; waiting requests freeze exactly the
    Table 2(b) set ({!Dcs_modes.Compat.freeze_set}); service is strictly
    FIFO by descending priority (upgrades outrank everything, Rule 7). It
    is small enough to read against the paper directly and is both a unit
    target for the mode-algebra and the ground truth differential runs
    compare against.

    {2 Conformance ({!conformance})}

    The distributed protocol is {e not} observationally equal to the
    sequential manager: Rule 2 lets a node with a cached copy re-acquire
    message-free, legitimately overtaking an older conflicting request
    queued remotely until the Rule-6 freeze propagates to it. Strict
    FIFO-order checking would therefore reject correct runs. Conformance
    instead checks what the protocol does promise, on the
    {!Dcs_obs.Event.t} trace:

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
      stay below [max_overtakes] (soft fairness — the window for legal
      overtaking is the freeze-propagation delay, so an unbounded count
      means Rule 6 is broken);
    - {e liveness} (when [require_complete]): every requested span is
      granted and released by end of trace. *)

open Dcs_modes

module Sequential : sig
  type t

  val create : locks:int -> t

  (** Client ids are arbitrary; each [id] may have at most one outstanding
      request or grant per lock. Each call returns the ids granted by it
      (the argument id and/or queued ids unblocked by a release), in grant
      order. *)

  val request : t -> lock:int -> id:int -> ?priority:int -> mode:Mode.t -> unit -> int list

  val release : t -> lock:int -> id:int -> int list

  (** [upgrade] re-requests [W] on a held [U] (Rule 7): outranks the
      queue, served when every other grant is released. *)
  val upgrade : t -> lock:int -> id:int -> int list

  val granted : t -> lock:int -> (int * Mode.t) list
  val waiting : t -> lock:int -> int list

  (** Union of Table 2(b) freeze sets of the waiting requests. *)
  val frozen : t -> lock:int -> Mode_set.t
end

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
    the rules above. [max_overtakes] defaults to 100;
    [require_complete] (default true) turns ungranted/unreleased spans
    into liveness violations. *)
val conformance :
  ?max_overtakes:int ->
  ?require_complete:bool ->
  events:Dcs_obs.Event.t list ->
  unit ->
  report
