(** Precomputed bitmask decision tables — the per-message fast path.

    {!Compat} implements every decision table of the paper (Tables 1a, 1b,
    2a, 2b) as a closed-form predicate over compatibility and strength.
    Those derivations are the specification; this module materializes them
    once, at module initialization, into immutable flat [int] arrays so
    that every decision taken on the protocol's per-message hot path
    ({!Dcs_hlock.Node}) is a single array index and bit test — no list
    walks, no closure or option allocation.

    {2 Owned codes}

    A possibly-absent mode ([Mode.t option], the paper's ⊥) is encoded as
    an {e owned code} in [0..5]: [0] is ⊥ and [1 + Mode.index m] is
    [Some m]. Codes let callers keep "current owned mode" as an unboxed
    [int] and decide without ever allocating an option. {!decode_owned}
    returns preallocated options, so converting back is allocation-free
    too.

    {2 Encoding}

    Each boolean table over (owned code × request mode) is one [int] array
    of length 6 whose element for code [c] is a 5-bit mask: bit
    [Mode.index m] is set iff the decision for ([c], [m]) is positive.
    Table 2(b) stores one {!Mode_set.t} bitmask per (code, mode) cell in a
    flat 30-element array. Agreement with the derivational {!Compat}
    functions on every cell is asserted at initialization time and
    cross-checked exhaustively by the test suite. *)

(** {1 Owned codes} *)

(** [owned_code o] is [0] for [None], [1 + Mode.index m] for [Some m]. *)
val owned_code : Mode.t option -> int

(** [code_of_mode m] = [1 + Mode.index m]. *)
val code_of_mode : Mode.t -> int

(** Preallocated [Some m] (or [None] for code 0); never allocates.
    Raises [Invalid_argument] outside [0..5]. *)
val decode_owned : int -> Mode.t option

(** Strength of a code: ⊥ → 0, otherwise [Mode.strength]. *)
val strength_of_code : int -> int

(** {1 Table 1(a) — compatibility} *)

(** Single bit test; agrees with {!Compat.compatible}. *)
val compatible : Mode.t -> Mode.t -> bool

(** All modes compatible with [m], as a bitmask. *)
val compatible_bits : Mode.t -> Mode_set.t

(** All modes incompatible with [m] (complement within the five modes);
    [Mode_set.inter held (incompatible_bits m)] is the conflict set. *)
val incompatible_bits : Mode.t -> Mode_set.t

(** Modes no stronger than [m]: [{ x | strength x <= strength m }]. *)
val le_strength_bits : Mode.t -> Mode_set.t

(** {1 Tables 1(b), 2(a), and Rule 3.2 — code-indexed decisions} *)

(** Table 1(b): agrees with {!Compat.can_child_grant}. *)
val can_child_grant : owned:int -> Mode.t -> bool

(** Rule 3.2: agrees with {!Compat.token_can_grant}. *)
val token_can_grant : owned:int -> Mode.t -> bool

(** Rule 3.2 operational: agrees with {!Compat.token_must_transfer}. *)
val token_must_transfer : owned:int -> Mode.t -> bool

(** Table 2(a): agrees with {!Compat.queueable} ([pending] is the code of
    the pending mode; code 0 = no pending request = always forward). *)
val queueable : pending:int -> Mode.t -> bool

(** {1 Table 2(b) — freeze sets} *)

(** Agrees with {!Compat.freeze_set}. *)
val freeze_set : owned:int -> Mode.t -> Mode_set.t
