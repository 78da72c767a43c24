(** Logarithmically bucketed histograms (for latency distributions).

    Buckets are powers of [base] starting at [min_value]; everything below
    the first boundary lands in bucket 0. Memory is O(number of buckets),
    adding is O(1). *)

type t

(** [create ~base ~min_value ()] — requires [base > 1] and
    [min_value > 0]. Defaults: base 2, min 1. *)
val create : ?base:float -> ?min_value:float -> unit -> t

val add : t -> float -> unit
val count : t -> int

(** Non-empty buckets as [(lower, upper, count)], ascending. *)
val buckets : t -> (float * float * int) list

(** Approximate quantile (upper bound of the bucket holding rank
    [q·count]); [q] in [0,1]. 0 when empty. *)
val quantile : t -> float -> float

(** ASCII bar rendering, one line per non-empty bucket, the longest bar
    50 characters wide. *)
val render : t -> string
