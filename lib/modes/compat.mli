(** The protocol's mode algebra: compatibility, strength over ⊥, and the
    decision tables of the paper (Tables 1a, 1b, 2a, 2b).

    Throughout, a value of type [Mode.t option] stands for a possibly-absent
    mode: [None] is the paper's ⊥ ("the node owns/holds/pends nothing"),
    which is weaker than every mode and compatible with every mode.

    Every table of the paper is implemented by a closed-form predicate over
    {!compatible} and strength; see DESIGN.md §2 for the derivations. The
    explicit enumerations used for cross-checking live in the test suite. *)

(** {1 Rule 1 — compatibility (Table 1a)} *)

(** [compatible m1 m2] is true iff locks in modes [m1] and [m2] may be held
    concurrently, per the OMG Concurrency Service matrix. The relation is
    symmetric. Conflicts: [W] with everything; [U] with [U], [IW], [W];
    [R] with [IW], [W]; [IR] with [W] only; [IW] with [R], [U], [W]. *)
val compatible : Mode.t -> Mode.t -> bool

(** [compatible_owned mo mr]: ⊥ is compatible with everything. *)
val compatible_owned : Mode.t option -> Mode.t -> bool

(** Set of modes compatible with [m]. *)
val compatible_set : Mode.t -> Mode_set.t

(** {1 Strength (Definition 1, inequality (1))} *)

(** Strength rank with ⊥ → 0 (so ⊥ < IR < R < U = IW < W). *)
val strength : Mode.t option -> int

(** [stronger_eq a b] is [strength a >= strength b]. *)
val stronger_eq : Mode.t option -> Mode.t option -> bool

(** [strictly_weaker a b] is [strength a < strength b]. *)
val strictly_weaker : Mode.t option -> Mode.t option -> bool

(** [strongest held] is the strongest mode of a list, ⊥ for the empty list.
    Among equal-strength modes ([U]/[IW]) the first encountered wins; a
    correctly maintained copyset never holds both (they conflict). *)
val strongest : Mode.t list -> Mode.t option

(** {1 Rule 3 — granting} *)

(** Table 1(b): a non-token node owning [owned] may grant a request for
    [m] iff [compatible_owned owned m && stronger_eq owned (Some m)].
    Consequently ⊥ grants nothing, and [U]/[W] requests can never be
    granted by a non-token node. *)
val can_child_grant : owned:Mode.t option -> Mode.t -> bool

(** Rule 3.2, token node: grant iff compatible with the owned mode. *)
val token_can_grant : owned:Mode.t option -> Mode.t -> bool

(** Rule 3.2 operational part: among token-grantable requests, those with
    [owned] strictly weaker than the request are served by transferring the
    token; others receive a copy grant. *)
val token_must_transfer : owned:Mode.t option -> Mode.t -> bool

(** {1 Rule 4 — queue or forward (Table 2a)} *)

(** [queueable ~pending m]: a non-token node that has issued (and not yet
    been granted) a request for [pending] queues a newly received request
    for [m] locally iff it will be able to serve [m] itself once [pending]
    comes through. For copy-bound pendings that is
    [can_child_grant ~owned:pending m]; for token-bound pendings ([U] and
    [W] are always served by token transfer) the node will hold the token
    and can serve anything after its own release, so [W] queues everything
    and [U] queues [IR]/[R]/[U] (it forwards [IW]/[W] so writers still
    reach the global FIFO queue at the token). With no pending request,
    always forward. *)
val queueable : pending:Mode.t option -> Mode.t -> bool

(** {1 Rule 6 — freezing (Table 2b)} *)

(** [freeze_set ~owned m] is the set of modes the token node (owning
    [owned]) must freeze when it queues a request for [m]: the modes that
    are still grantable under [owned] but incompatible with the waiting
    [m] — granting them would postpone [m] indefinitely.

    Closed form: [{ x | compatible_owned owned x ∧ ¬ compatible x m }].
    Reproduces all legible cells of the paper's Table 2(b), e.g.
    [freeze_set ~owned:(Some IW) R = {IW}]. *)
val freeze_set : owned:Mode.t option -> Mode.t -> Mode_set.t

(** {1 Derived helpers} *)

(** The "local-knowledge safety" lemma of paper §3.4: for any pairwise
    compatible multiset [held] of modes, a new mode [m] compatible with
    [strongest held] is compatible with every element. Exposed for tests. *)
val compatible_with_all : Mode.t list -> Mode.t -> bool

(** Pretty-print any of the four decision tables as ASCII (for the bench
    harness's table reproduction). [`Compat] = 1a, [`Child_grant] = 1b,
    [`Queue_forward] = 2a, [`Freeze] = 2b. *)
val render_table :
  [ `Compat | `Child_grant | `Queue_forward | `Freeze ] -> string
