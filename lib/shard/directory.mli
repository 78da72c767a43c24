(** The bucket-ownership directory of the sharded lock-namespace service.

    The lock-set namespace is partitioned into a fixed number of buckets;
    every bucket has exactly one home shard at all times. A migration is
    a two-step transition — {!begin_migration} marks the bucket (requests
    for it are parked from that moment) and {!commit_migration} flips the
    home and bumps the bucket's version once the state handoff landed.
    Replicas in other processes converge through
    {!Dcs_wire.Shard_msg.Dir_update} messages applied with
    {!apply_update}, which is version-monotone and therefore insensitive
    to delivery order. *)

type t

(** Stable set → bucket hash (multiplicative); every participant must use
    the same [buckets]. With [buckets = 1] everything maps to bucket 0. *)
val bucket_of_set : buckets:int -> int -> int

(** Initial placement homes bucket [b] at shard [b mod shards], version 0,
    no migration in progress. *)
val create : buckets:int -> shards:int -> t

val buckets : t -> int

(** The unique home shard of [bucket] right now. *)
val home : t -> bucket:int -> int

(** Ownership-transition count for [bucket] (0 at creation). *)
val version : t -> bucket:int -> int

(** Destination shard if a migration is in progress, else [None]. *)
val migrating : t -> bucket:int -> int option

(** Mark [bucket] as migrating to [dst]. Raises [Invalid_argument] if a
    migration is already in progress or [dst] is the current home. *)
val begin_migration : t -> bucket:int -> dst:int -> unit

(** Complete the in-progress migration: home becomes the destination and
    the version bumps by one. Raises [Invalid_argument] if none is in
    progress. *)
val commit_migration : t -> bucket:int -> unit

(** Wire rows for all buckets, for [Dir_update] broadcasts. *)
val entries : t -> Dcs_wire.Shard_msg.dir_entry list

(** Merge a received directory row: [`Applied] if strictly newer,
    [`Stale] if not, [`Conflict] if the same version names a different
    home (split-brain; the caller must surface it). *)
val apply_update : t -> Dcs_wire.Shard_msg.dir_entry -> [ `Applied | `Stale | `Conflict ]

(** Internal-consistency check (homes and migration targets in range,
    no self-migration, non-negative versions); empty = healthy. *)
val validate : t -> string list
