(** Simulation trace digests.

    A trace folds timestamped, rendered records into one FNV-1a digest and
    keeps nothing else. It is the determinism check of a simulated run:
    two runs with equal seeds must produce equal {!digest}s. A run that
    wants no digest passes no trace (see {!Dcs_runtime.Net.create}), so
    nothing is rendered. *)

type t

val create : unit -> t

(** [record t ~time msg] forces [msg] and folds [time] and the text into
    the digest. *)
val record : t -> time:float -> (unit -> string) -> unit

(** FNV-1a hash over every record: the raw IEEE bits of each time, then
    its text. Equal runs give equal digests. *)
val digest : t -> int64
