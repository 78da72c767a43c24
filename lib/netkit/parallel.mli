(** Domain-based fan-out for independent simulation cells.

    Experiment sweeps are embarrassingly parallel: each cell (a node
    count × protocol × seed triple) builds its own engine, RNGs and node
    tables, so cells share no mutable state. [map] fans an array of such
    cells over OCaml 5 domains with dynamic work distribution (an atomic
    next-cell counter, so long cells do not straggle behind a static
    partition) and writes each result into the slot of its input index —
    the output is therefore independent of domain count and completion
    order. Combined with {!cell_seed}, a parallel sweep is bit-identical
    to the sequential one. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ?jobs f cells] is [Array.map f cells], computed by [jobs]
    domains (default [Domain.recommended_domain_count ()]; the calling
    domain participates, so [jobs - 1] are spawned). [f] must be safe to run concurrently with itself on
    distinct cells. [jobs <= 1] runs sequentially in the calling domain
    with no spawns at all. If any application of [f] raises, the first
    exception (in completion order) is re-raised after all domains have
    joined; remaining cells may be skipped. *)

val cell_seed : base:int64 -> salt:int -> int64
(** Deterministic per-cell seed: a SplitMix64 mix of the sweep's [base]
    seed and the cell's [salt]. The salt must identify the cell
    semantically (e.g. driver index and node count), never by its
    position in a work queue, so that the derived seed — and hence the
    cell's whole simulation — does not depend on scheduling. Distinct
    salts give decorrelated streams even for adjacent base seeds. *)
