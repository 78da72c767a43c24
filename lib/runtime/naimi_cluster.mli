(** A simulated cluster running the Naimi–Trehel–Arnold baseline over a set
    of exclusive lock objects (the paper's comparison protocol). *)

type t

(** [obs] as in {!Hlock_cluster.create}: request-lifecycle events plus
    per-class message counts and wire byte sizes. *)
val create : ?oracle:bool -> ?obs:Dcs_obs.Recorder.t -> net:Net.t -> nodes:int -> locks:int -> unit -> t

(** Request the critical section for [lock]; [on_acquired] fires exactly
    once (possibly synchronously). The protocol allows one outstanding
    request per (node, lock). *)
val request : t -> node:int -> lock:int -> on_acquired:(unit -> unit) -> unit

(** Leave the critical section for [lock]. *)
val release : t -> node:int -> lock:int -> unit

(** Structural invariants at full quiescence. *)
val quiescent_violations : t -> string list
