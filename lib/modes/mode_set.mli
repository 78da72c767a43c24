(** Compact sets of lock modes, used for frozen-mode bookkeeping.

    Implemented as a 5-bit bitset; all operations are O(1). Values are
    immutable. The type is declared immediate, so a store of a set into a
    mutable field or array is a plain write with no GC write barrier. *)

type t [@@immediate]

(** The empty set. *)
val empty : t

(** The set of all five modes. *)
val full : t

(** [singleton m] is the one-element set containing [m]. *)
val singleton : Mode.t -> t

(** [add m s] is [s ∪ {m}]. *)
val add : Mode.t -> t -> t

(** [remove m s] is [s \ {m}]. *)
val remove : Mode.t -> t -> t

(** [mem m s] tests membership. *)
val mem : Mode.t -> t -> bool

(** Set union. *)
val union : t -> t -> t

(** Set intersection. *)
val inter : t -> t -> t

(** [diff a b] is [a \ b]. *)
val diff : t -> t -> t

(** Structural equality. *)
val equal : t -> t -> bool

(** [subset a b] is true iff [a ⊆ b]. *)
val subset : t -> t -> bool

(** Number of elements. *)
val cardinal : t -> int

(** [is_empty s] is [cardinal s = 0]. *)
val is_empty : t -> bool

(** Build from a list (duplicates allowed). *)
val of_list : Mode.t list -> t

(** Elements in {!Mode.all} order. *)
val to_list : t -> Mode.t list

(** Prints as [{IR,R}]. *)
val pp : Format.formatter -> t -> unit

(** Raw bits in [0..31], for wire encoding. *)
val to_bits : t -> int

(** Inverse of {!to_bits}; masks out bits ≥ 5. *)
val of_bits : int -> t
