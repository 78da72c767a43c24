(** Primitive binary encoding: LEB128 varints, booleans, strings.

    All integers on the wire are non-negative; signed values are mapped by
    the callers. Decoding raises {!Malformed} on truncated or invalid
    input — never an out-of-bounds exception.

    The writer is a reusable flat [Bytes.t] buffer: it grows once
    (amortized doubling) and {!reset} rewinds it between frames without
    freeing, so steady-state encoding allocates nothing. The reader is a
    zero-copy cursor over a caller-owned [Bytes.t] slice, so decoding
    allocates only the cursor and what the decoded value itself needs.

    This module knows primitives, not layouts: the message layout and the
    stream frame belong to {!Codec} alone. *)

exception Malformed of string

(** {1 Writing} *)

type writer

(** [writer ?capacity ()] allocates a fresh flat buffer (default 64
    bytes); it doubles as needed and never shrinks. *)
val writer : ?capacity:int -> unit -> writer

(** Rewind to empty, retaining the underlying storage. *)
val reset : writer -> unit

(** [truncate w n] drops everything written after the first [n] bytes.
    Raises [Invalid_argument] unless [0 <= n <= length w]. *)
val truncate : writer -> int -> unit

(** Bytes written since creation or the last {!reset}. *)
val length : writer -> int

(** Copy the written prefix out as a fresh string. *)
val contents : writer -> string

(** The underlying storage; only the first {!length} bytes are
    meaningful, and any write to the writer may replace it (growth).
    For transports that hand the bytes straight to a syscall. *)
val unsafe_bytes : writer -> Bytes.t

(** [blit w dst pos] copies the written prefix into [dst] at [pos]. *)
val blit : writer -> Bytes.t -> int -> unit

val u8 : writer -> int -> unit

(** Unsigned LEB128; accepts any non-negative OCaml int. Raises
    [Invalid_argument] on negatives. *)
val varint : writer -> int -> unit

val bool : writer -> bool -> unit

(** Length-prefixed bytes. *)
val string : writer -> string -> unit

(** [list w f l] writes a varint count then the elements. *)
val list : writer -> (writer -> 'a -> unit) -> 'a list -> unit

(** Fixed-width big-endian u32, for {!Codec}'s stream-frame length
    prefix; other code frames through {!Codec.append_frame}. *)
val u32_be : writer -> int -> unit

(** [patch_u32_be w ~at v] overwrites 4 bytes previously written at
    offset [at] — reserve with {!u32_be} [w 0], encode the body, then
    patch the real length in. Raises [Invalid_argument] if [at+4]
    exceeds {!length}. *)
val patch_u32_be : writer -> at:int -> int -> unit

(** {1 Reading} *)

type reader

(** Cursor over a whole string (zero-copy; the string must not be
    mutated through other aliases). *)
val reader : string -> reader

(** [reader_sub b ~off ~len] is a cursor over [b.[off .. off+len-1]].
    Raises [Invalid_argument] on an out-of-range slice. *)
val reader_sub : Bytes.t -> off:int -> len:int -> reader

(** True when every byte of the slice has been consumed. *)
val at_end : reader -> bool

val read_u8 : reader -> int
val read_varint : reader -> int
val read_bool : reader -> bool
val read_string : reader -> string

(** Reads a varint element count. Every element occupies at least one
    byte, so a negative count, or one above the bytes left in the slice
    (or above 1,000,000), raises {!Malformed}: nothing is ever sized by
    an unchecked count. *)
val read_count : reader -> int

(** [read_list r f] reads a {!read_count} then [count] elements. *)
val read_list : reader -> (reader -> 'a) -> 'a list
