(** Wire format for protocol messages.

    An envelope identifies the sending node and the lock object; the
    payload is a hierarchical-protocol message, a Naimi baseline message,
    or a shard-service control message ({!Shard_msg} — directory traffic
    and bucket-migration handoffs, added in v4 as a third
    payload tag). Frames are versioned: decoding rejects unknown versions
    with {!Buf.Malformed}.

    Two encode/decode surfaces exist. The string API ({!encode} /
    {!decode}) is a thin convenience shim. The flat API
    ({!write_envelope} into a reusable {!Buf.writer}, {!decode_sub} over
    caller-owned bytes) is the transport path: with a reused writer,
    encoding allocates nothing, and decoding allocates only the decoded
    message itself. Both decoders share one reader, so they accept and
    reject exactly the same bytes.

    This module is the only owner of the byte format: the envelope
    layout and the stream frame. There is one encoder, written straight
    onto {!Buf.writer}; golden hex fixtures in the tests pin its bytes
    per message class, so any layout change is a deliberate fixture edit
    plus a {!version} bump.

    Framing for stream transports is a 4-byte big-endian length prefix
    followed by the encoded envelope. {!append_frame} and {!frame_length}
    are the only code that writes or parses that header; batched
    transports append several frames to one writer and send it in one
    write, and {!write_frame} / {!read_frame} wrap them for channels. *)

type payload =
  | Hlock of Dcs_hlock.Msg.t
  | Naimi of Dcs_naimi.Naimi.msg
  | Shard of Shard_msg.t

type envelope = {
  src : Dcs_proto.Node_id.t;
  lock : int;
  payload : payload;
}

(** Current format version, encoded into every message. *)
val version : int

(** {1 Flat path} *)

(** Append one encoded envelope to the writer; allocates nothing. *)
val write_envelope : Buf.writer -> envelope -> unit

(** [decode_sub b ~off ~len] decodes the envelope occupying exactly that
    slice. Raises {!Buf.Malformed} on garbage, truncation, trailing bytes
    or version mismatch. *)
val decode_sub : Bytes.t -> off:int -> len:int -> envelope

(** {1 String shim} *)

val encode : envelope -> string

(** Raises {!Buf.Malformed} on garbage, truncation or version mismatch. *)
val decode : string -> envelope

(** {1 Stream framing} *)

(** Largest frame body, in bytes (1 MiB). Senders refuse bigger bodies
    and receivers reject bigger headers. *)
val max_frame : int

(** Bytes in a frame header (the body length prefix). *)
val frame_header : int

(** [append_frame w e] appends one frame to [w]: it reserves the header,
    encodes [e], then patches the body length in. Raises
    [Invalid_argument], naming the size and the limit, when the body
    exceeds {!max_frame}; [w]'s length is then as it was. Allocates
    nothing when [w] has room. *)
val append_frame : Buf.writer -> envelope -> unit

(** [frame_length b ~off] parses the frame header at [off] and returns
    the body length that follows it. Raises {!Buf.Malformed} when the
    length exceeds {!max_frame} (a header with its top bit set among
    them), and [Invalid_argument] when [b] holds no full header at
    [off]. *)
val frame_length : Bytes.t -> off:int -> int

(** Write one frame and flush. Raises [Invalid_argument] as
    {!append_frame} does, before writing anything. *)
val write_frame : out_channel -> envelope -> unit

(** Read one frame; [None] on clean end-of-stream at a frame boundary.
    Raises {!Buf.Malformed} on mid-frame truncation or oversized frames. *)
val read_frame : in_channel -> envelope option

(** {1 Cluster-state blobs}

    One lock object's per-node population ({!Dcs_hlock.Node.snapshot}s,
    indexed by node id) as a compact byte string — the at-rest storage
    format the shard router keeps between bursts, using the same snapshot
    codec the handoff wire path uses, so stored and migrated state cannot
    diverge. *)

val encode_cluster_state : Dcs_hlock.Node.snapshot array -> string

(** Raises {!Buf.Malformed} on garbage or truncation. *)
val decode_cluster_state : string -> Dcs_hlock.Node.snapshot array
