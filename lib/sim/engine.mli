(** Deterministic discrete-event simulation engine.

    Time is a [float] in milliseconds (matching the paper's parameter
    units). Events scheduled for the same instant fire in scheduling order,
    so a run is fully determined by the seed-driven callbacks. The engine is
    deliberately minimal: processes are encoded as callbacks that schedule
    further events. *)

type t

(** Why {!run} returned. *)
type outcome =
  | Drained  (** no events left *)
  | Horizon_reached  (** simulated clock hit [until] *)
  | Event_limit  (** processed [max_events] events (runaway guard) *)

val create : unit -> t

(** Rewind to the just-created state — clock at 0, no queued events, event
    and sequence counters zeroed — retaining the queue's capacity, so a
    pooled engine can run many back-to-back simulations without
    re-growing. The tick hook is kept; callers that installed one manage
    it themselves. *)
val reset : t -> unit

(** Current simulated time (ms). 0 before any event fires. *)
val now : t -> float

(** [schedule t ~after f] runs [f ()] at [now t +. after]. Negative delays
    are clamped to 0 (fire "now", after currently queued same-time
    events). Raises [Invalid_argument] if the resulting time is NaN. *)
val schedule : t -> after:float -> (unit -> unit) -> unit

(** [schedule_at t ~time f]: absolute-time variant; times in the past are
    clamped to [now]. Raises [Invalid_argument], naming the time, if
    [time] is NaN; [infinity] is legal and fires after every finite
    time. *)
val schedule_at : t -> time:float -> (unit -> unit) -> unit

(** Run the event loop. [until] bounds the simulated clock;
    [max_events] (default 100 million) bounds total events processed. *)
val run : ?until:float -> ?max_events:int -> t -> outcome

(** Process a single event; [false] if the queue is empty. *)
val step : t -> bool

(** [set_tick t (Some hook)] installs a hook called after every processed
    event (with the clock at that event's time); [set_tick t None] removes
    it. Used by telemetry to sample gauges at simulated-time granularity
    without perturbing the event stream. The disabled case costs one branch
    per event. *)
val set_tick : t -> (unit -> unit) option -> unit

(** Number of queued events. *)
val pending : t -> int

(** Total events processed since creation. *)
val events_processed : t -> int
