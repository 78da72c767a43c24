(** The telemetry plumbing the simulated clusters ({!Hlock_cluster},
    {!Naimi_cluster}) share: which recorder to feed, what each sent message
    costs on the wire, and the per-node engine hook. *)

type t

(** [attach ~net obs] is [None] when no recorder is given, so the engines
    are handed no hook at all and an unobserved run pays only the per-site
    branch. Events are stamped with [net]'s clock. *)
val attach : net:Net.t -> Dcs_obs.Recorder.t option -> t option

(** Count one message sent by [src] on [lock], sized by
    {!Dcs_wire.Codec.encode} — the codec is the authority on what it costs
    on a real link. *)
val message :
  t -> src:int -> lock:int -> cls:Dcs_proto.Msg_class.t -> Dcs_wire.Codec.payload -> unit

(** The engine's [?obs] hook for [node] on [lock]. *)
val node_hook :
  t option -> lock:int -> node:int -> (Dcs_obs.Event.scope -> Dcs_obs.Event.kind -> unit) option
