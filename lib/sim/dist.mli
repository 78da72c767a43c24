(** Sampling distributions for workload and network parameters.

    The paper randomizes critical-section length, inter-request idle time
    and network latency around mean values (15 ms / 150 ms / 150 ms); the
    exact distribution is unspecified, so each is configurable here. *)

type t =
  | Constant of float
      (** Always the same value. *)
  | Uniform of { lo : float; hi : float }
      (** Uniform on [lo, hi). *)
  | Exponential of { mean : float }
      (** Exponential with the given mean. *)
  | Shifted_exponential of { min : float; mean : float }
      (** [min] plus an exponential with mean [mean - min]; models a
          fixed propagation delay plus random queueing. Requires
          [mean > min]. *)

(** Draw a sample (always >= 0; negative draws are clamped to 0). *)
val sample : t -> Rng.t -> float

(** Expected value of the distribution. *)
val mean : t -> float

(** [uniform_around m] is the uniform distribution on [0.5m, 1.5m): a
    simple "randomized with mean m" model used as the default. *)
val uniform_around : float -> t

(** Parse ["const:15"], ["uniform:10:20"], ["exp:150"],
    ["sexp:50:150"] or a bare number (treated as {!uniform_around}). *)
val of_string : string -> (t, string) result

(** Inverse of {!of_string}, canonical form. *)
val to_string : t -> string
