(** Schema-versioned JSONL export of telemetry, and the line parser the
    [dcs-trace] analyzer reads files with ({!Merge.load_shard}).

    Every line is a flat JSON object whose first field [k] names the line
    kind; within a kind the field order is fixed, so output is byte-for-byte
    deterministic for a deterministic run:

    - [meta] — first line of every file: [{"k":"meta","schema":"dcs-obs/2",
      ...caller pairs...}]. Callers record run parameters (driver, node,
      nodes, locks, seed, ops) here.
    - [ev] — one event:
      [{"k":"ev","t":…,"lock":…,"node":…,"scope":"span","req":…,"seq":…,
      "ev":"requested","mode":"R","arg":0,"set":""}]. The [scope] field is
      the required span/node discriminator: ["span"] lines carry
      [req]/[seq], ["node"] lines (frozen/unfrozen) omit them. [mode] is
      [""] for kinds without a mode; [arg] carries the kind's integer
      payload (priority, forward destination, hop count, sent/received
      peer; 0 otherwise); [set] is a [+]-joined mode list ("IR+R") for
      frozen/unfrozen, [""] otherwise; sent/received lines append a
      ["cls"] message-class field.
    - [gauge] — one sampled gauge: [{"k":"gauge","t":…,"name":…,"value":…}].
    - [metric] — one registry snapshot row ({!Metrics.snapshot}):
      [{"k":"metric","t":…,"name":…,"mkind":"counter","value":…}].
    - [msgs] — per-class traffic as counted at the source, one line per
      class in {!Msg_class.all} order (zero classes included):
      [{"k":"msgs","cls":"request","count":…,"bytes":…}].
    - [counters] — one line embedding the transport's authoritative
      {!Dcs_proto.Counters} totals, for the analyzer's exact cross-check:
      [{"k":"counters","request":…,…}] in {!Msg_class.all} order.

    The parser accepts any flat JSON object (whitespace-insensitive, fields
    in any order). Integer fields must hold integral numbers within the
    native int range. *)

open Dcs_proto

(** Current schema tag: ["dcs-obs/2"]. *)
val schema : string

(** {1 Emitters}

    One function per line kind, each writing one complete line.
    {!Recorder} writes every telemetry file through them. *)

val output_meta : out_channel -> (string * string) list -> unit
val output_event : out_channel -> Event.t -> unit
val output_gauge : out_channel -> time:float -> name:string -> value:float -> unit

val output_metric :
  out_channel -> time:float -> name:string -> mkind:[ `Counter | `Gauge ] -> value:float -> unit

val output_msgs :
  out_channel -> counts:(Msg_class.t * int) list -> bytes:(Msg_class.t * int) list -> unit

val output_counters : out_channel -> (Msg_class.t * int) list -> unit

type line =
  | Meta of (string * string) list  (** caller pairs, [schema] included *)
  | Ev of Event.t
  | Gauge of { time : float; name : string; value : float }
  | Metric of { time : float; name : string; mkind : [ `Counter | `Gauge ]; value : float }
  | Msgs of { cls : Msg_class.t; count : int; bytes : int }
  | Counters of (Msg_class.t * int) list

(** Parse one line. Never raises; errors describe the first offending
    token. *)
val parse_line : string -> (line, string) result
