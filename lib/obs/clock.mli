(** The wall clock that processes of a real cluster stamp telemetry with,
    in milliseconds.

    A clock is just [unit -> float]. The {!Recorder} takes every time from
    its caller: a simulated run passes its engine's clock ([Net.now]), a
    TCP node or shard worker reads a {!wall} clock and passes that. *)

(** Returns the current time in milliseconds. Must be monotonically
    non-decreasing per process. *)
type t = unit -> float

(** Wall clock: milliseconds since the Unix epoch, clamped monotonic
    (a backwards OS clock step repeats the last value instead of
    regressing). Shards of one machine therefore start out roughly
    aligned; cross-machine shards rely on the analyzer's causal
    alignment. *)
val wall : unit -> t
