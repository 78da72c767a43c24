(* The bucket-ownership directory: which shard is home for each bucket
   of the lock-set namespace, and where each bucket is in its migration
   lifecycle. Replicas synchronize through Dir_update wire messages
   (Shard_msg); versions are per-bucket and bump exactly once per
   ownership transition, so replicas converge regardless of delivery
   order and stale updates are detectable. *)

type status = Ready | Migrating of { dst : int }

type entry = { mutable home : int; mutable version : int; mutable status : status }

type t = { entries : entry array; shards : int }

(* Multiplicative (Fibonacci) hashing spreads consecutive set ids across
   buckets; with buckets = 1 every set lands in bucket 0, making the
   unsharded service the B = 1 special case of the sharded one. *)
let bucket_of_set ~buckets set =
  if buckets <= 0 then invalid_arg "Directory.bucket_of_set: buckets must be positive";
  if set < 0 then invalid_arg "Directory.bucket_of_set: negative set";
  (set * 0x9E3779B1) land max_int mod buckets

let create ~buckets ~shards =
  if buckets <= 0 then invalid_arg "Directory.create: buckets must be positive";
  if shards <= 0 then invalid_arg "Directory.create: shards must be positive";
  {
    entries = Array.init buckets (fun b -> { home = b mod shards; version = 0; status = Ready });
    shards;
  }

let buckets t = Array.length t.entries

let check_bucket t b fn =
  if b < 0 || b >= Array.length t.entries then
    invalid_arg (Printf.sprintf "Directory.%s: bucket %d out of range" fn b)

let home t ~bucket =
  check_bucket t bucket "home";
  t.entries.(bucket).home

let version t ~bucket =
  check_bucket t bucket "version";
  t.entries.(bucket).version

let migrating t ~bucket =
  check_bucket t bucket "migrating";
  match t.entries.(bucket).status with Ready -> None | Migrating { dst } -> Some dst

let begin_migration t ~bucket ~dst =
  check_bucket t bucket "begin_migration";
  if dst < 0 || dst >= t.shards then
    invalid_arg (Printf.sprintf "Directory.begin_migration: shard %d out of range" dst);
  let e = t.entries.(bucket) in
  (match e.status with
  | Migrating _ -> invalid_arg (Printf.sprintf "Directory.begin_migration: bucket %d already migrating" bucket)
  | Ready -> ());
  if dst = e.home then
    invalid_arg (Printf.sprintf "Directory.begin_migration: bucket %d already homed at %d" bucket dst);
  e.status <- Migrating { dst }

let commit_migration t ~bucket =
  check_bucket t bucket "commit_migration";
  let e = t.entries.(bucket) in
  match e.status with
  | Ready -> invalid_arg (Printf.sprintf "Directory.commit_migration: bucket %d not migrating" bucket)
  | Migrating { dst } ->
      e.home <- dst;
      e.version <- e.version + 1;
      e.status <- Ready

let entry t ~bucket : Dcs_wire.Shard_msg.dir_entry =
  check_bucket t bucket "entry";
  let e = t.entries.(bucket) in
  { bucket; home = e.home; version = e.version }

let entries t = List.init (Array.length t.entries) (fun b -> entry t ~bucket:b)

(* Version-monotone replica convergence: an update wins only if strictly
   newer. Equal versions must agree (same transition history), so a
   disagreeing equal-version update reports [`Conflict] — a directory
   split-brain the caller must surface, not paper over. *)
let apply_update t (d : Dcs_wire.Shard_msg.dir_entry) =
  check_bucket t d.bucket "apply_update";
  if d.home < 0 || d.home >= t.shards then
    invalid_arg (Printf.sprintf "Directory.apply_update: shard %d out of range" d.home);
  let e = t.entries.(d.bucket) in
  if d.version > e.version then begin
    e.home <- d.home;
    e.version <- d.version;
    e.status <- Ready;
    `Applied
  end
  else if d.version = e.version && d.home <> e.home then `Conflict
  else `Stale

let validate t =
  let problems = ref [] in
  Array.iteri
    (fun b e ->
      if e.home < 0 || e.home >= t.shards then
        problems := Printf.sprintf "bucket %d homed at out-of-range shard %d" b e.home :: !problems;
      if e.version < 0 then
        problems := Printf.sprintf "bucket %d has negative version %d" b e.version :: !problems;
      match e.status with
      | Ready -> ()
      | Migrating { dst } ->
          if dst < 0 || dst >= t.shards then
            problems :=
              Printf.sprintf "bucket %d migrating to out-of-range shard %d" b dst :: !problems
          else if dst = e.home then
            problems := Printf.sprintf "bucket %d migrating to its own home %d" b dst :: !problems)
    t.entries;
  List.rev !problems
