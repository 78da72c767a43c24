(** Cluster topology models: per-pair latency scaling.

    The paper's testbed is a single switched LAN (uniform latency). Real
    deployments often span racks or sites; a topology scales the base
    latency distribution per directed node pair, letting experiments
    measure how the protocol's dynamic tree adapts to locality. *)

type t

(** Every pair at the base latency. *)
val uniform : t

(** [racks ~rack_size ~remote_factor]: nodes are grouped into consecutive
    racks of [rack_size]; traffic between different racks is scaled by
    [remote_factor] (≥ 1). *)
val racks : rack_size:int -> remote_factor:float -> t

(** [star ~hub ~spoke_factor]: traffic not involving [hub] pays
    [spoke_factor] (models a well-placed coordinator machine). *)
val star : hub:int -> spoke_factor:float -> t

(** Latency multiplier for a directed pair. *)
val factor : t -> src:int -> dst:int -> float

val to_string : t -> string
