(** Counterexample minimization by delta debugging.

    Given a failing {!Fuzz.case}, {!shrink} searches for a smaller case
    that still fails ({!Fuzz.failed} on its verdict), using Zeller-style
    [ddmin] over the op list plus structural passes: drop the fault plan,
    collapse to one lock, compact the node population to the ops'
    participants, zero priorities, shorten holds, and compress the issue
    schedule. Passes repeat to a fixpoint, bounded by [budget] total
    {!Fuzz.run} invocations.

    Minimality is 1-minimal per pass, not global — standard for delta
    debugging — but in practice the seeded mutations shrink to 2–3 ops. *)

(** The default [budget] of {!shrink}: 4000 fuzz runs, a few seconds on a
    200-op case. *)
val default_budget : int

(** [shrink ?budget ?log case] returns the smallest failing case found
    (the input itself if nothing smaller fails). [budget] (default
    {!default_budget}) caps fuzz runs; [log] receives one line per
    successful reduction. *)
val shrink : ?budget:int -> ?log:(string -> unit) -> Fuzz.case -> Fuzz.case
