(** Streaming summary statistics (Welford's online algorithm). *)

type t

val create : unit -> t

(** Add an observation. *)
val add : t -> float -> unit

val count : t -> int

(** Arithmetic mean; 0 when empty. *)
val mean : t -> float

(** Sample variance (n-1 denominator); 0 when count < 2. *)
val variance : t -> float

(** Sample standard deviation. *)
val stddev : t -> float

val min : t -> float
val max : t -> float

(** Sum of all observations. *)
val total : t -> float

(** Merge [src] into [dst] (Chan et al. parallel update). *)
val merge_into : dst:t -> src:t -> unit
