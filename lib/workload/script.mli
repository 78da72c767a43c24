(** Client scenarios: the one scenario type every harness runs.

    A script is a fixed list of timed client operations over a node
    population and a lock set. The fuzzer runs it as the input half of a
    case ([Dcs_check.Fuzz.case]), the sharded service runs one one-lock
    script per burst ([Dcs_shard.Router]), and the model checker explores
    every delivery order of one ([Dcs_check.Mcheck.explore]), so a
    scenario written for one tool replays under the others. Scripts are
    plain data: generation is a pure function of the seed, and the corpus
    format ([Dcs_check.Corpus]) round-trips them exactly, so a failing
    schedule can be replayed and shrunk byte-for-byte. *)

open Dcs_modes

type kind =
  | Acquire  (** request, hold, release *)
  | Acquire_upgrade
      (** request [U], hold, upgrade to [W] (Rule 7), hold, release *)

type op = {
  at : float;  (** issue time, simulated ms *)
  node : int;
  lock : int;
  mode : Mode.t;  (** [U] when [kind = Acquire_upgrade] *)
  priority : int;
  hold : float;  (** client hold time after the grant, ms *)
  kind : kind;
}

type t = {
  nodes : int;
  locks : int;
  ops : op list;  (** ascending [at] *)
}

(** [generate ~seed ~nodes ~locks ~ops ()] draws a conflict-heavy
    workload: bursty exponential arrivals, a mode mix skewed toward the
    conflicting end of Table 1, short exponential holds, occasional
    non-zero priorities, and upgrades on roughly half the [U] requests.
    [zipf] (theta in [0,1), default 0 = uniform) skews the lock choice
    toward hot locks ({!Zipf}), concentrating conflict on a
    few objects — the hot-entry regime sharded namespaces must survive.
    Equal arguments yield equal scripts. *)
val generate : ?zipf:float -> seed:int64 -> nodes:int -> locks:int -> ops:int -> unit -> t

(** [burst ~seed ~nodes ~ops] is a one-lock script drawn op by op like
    {!generate}, minus the lock draw: one request burst of the sharded
    service. *)
val burst : seed:int64 -> nodes:int -> ops:int -> t

(** Issue time of the last op (0 for the empty script). *)
val last_issue : t -> float

(** Number of [Acquire_upgrade] ops. *)
val upgrade_ops : t -> int

(** Structural sanity: node/lock ids in range, finite non-negative times
    and holds, non-negative priorities, [Acquire_upgrade] implies mode
    [U], ops sorted by [at]. *)
val validate : t -> (unit, string) result

(** {1 Driver} *)

(** Client progress, updated as the run proceeds. *)
type counts = { mutable grants : int; mutable upgrades : int; mutable releases : int }

(** [drive ~request ~upgrade ~release ~schedule t] plays every op of [t]
    through a harness's own client calls and returns the live counts.
    Each op is requested [at] after the call, with its priority; once
    granted it is held for [hold] and released, or, for
    [Acquire_upgrade], held for half, upgraded to [W], held for the
    other half and released.

    [request op ~on_granted] issues the request and returns its seq;
    [on_granted] may run inside the call, in which case the hold starts
    when the call returns. [schedule ~after f] runs [f] [after] ms later;
    a harness that runs [f] at once gets release-on-grant clients that
    issue in list order. *)
val drive :
  request:(op -> on_granted:(unit -> unit) -> int) ->
  upgrade:(op -> seq:int -> on_upgraded:(unit -> unit) -> unit) ->
  release:(op -> seq:int -> unit) ->
  schedule:(after:float -> (unit -> unit) -> unit) ->
  t ->
  counts

(** {1 Corpus line format}

    One op per line:
    [op at=12.500 node=3 lock=0 mode=R prio=0 hold=15.000 kind=acquire] *)

val op_to_line : op -> string
val op_of_line : string -> (op, string) result
val pp : Format.formatter -> t -> unit
