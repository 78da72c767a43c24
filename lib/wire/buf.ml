exception Malformed of string

(* {1 Flat writer} *)

type writer = { mutable buf : Bytes.t; mutable len : int }

let writer ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Buf.writer: capacity must be positive";
  { buf = Bytes.create capacity; len = 0 }

let reset w = w.len <- 0

let truncate w n =
  if n < 0 || n > w.len then invalid_arg "Buf.truncate: out of range";
  w.len <- n

let length w = w.len

let contents w = Bytes.sub_string w.buf 0 w.len

let unsafe_bytes w = w.buf

let blit w dst pos = Bytes.blit w.buf 0 dst pos w.len

(* Grow-once: double (at least) whenever the next write would overflow,
   so a writer reused across frames stops allocating as soon as it has
   seen its largest frame. *)
let grow w need =
  let cap = ref (2 * Bytes.length w.buf) in
  while !cap < need do
    cap := 2 * !cap
  done;
  let buf = Bytes.create !cap in
  Bytes.blit w.buf 0 buf 0 w.len;
  w.buf <- buf

let ensure w extra =
  let need = w.len + extra in
  if need > Bytes.length w.buf then grow w need

let u8 w v =
  ensure w 1;
  Bytes.unsafe_set w.buf w.len (Char.unsafe_chr (v land 0xff));
  w.len <- w.len + 1

let varint w v =
  if v < 0 then invalid_arg "Buf.varint: negative";
  (* Worst case: 63 significant bits / 7 per byte = 9 bytes. *)
  ensure w 9;
  let buf = w.buf in
  let pos = ref w.len in
  let v = ref v in
  while !v >= 0x80 do
    Bytes.unsafe_set buf !pos (Char.unsafe_chr (0x80 lor (!v land 0x7f)));
    incr pos;
    v := !v lsr 7
  done;
  Bytes.unsafe_set buf !pos (Char.unsafe_chr !v);
  w.len <- !pos + 1

let bool w b = u8 w (if b then 1 else 0)

let string w s =
  let n = String.length s in
  varint w n;
  ensure w n;
  Bytes.blit_string s 0 w.buf w.len n;
  w.len <- w.len + n

(* Hand-rolled iteration: [List.iter (f w)] would allocate a partial
   application per call (no flambda to eliminate it), and the encode
   path promises zero allocation. *)
let rec iter_items w f = function
  | [] -> ()
  | x :: tl ->
      f w x;
      iter_items w f tl

let list w f l =
  varint w (List.length l);
  iter_items w f l

let u32_be w v =
  ensure w 4;
  let buf = w.buf and p = w.len in
  Bytes.unsafe_set buf p (Char.unsafe_chr ((v lsr 24) land 0xff));
  Bytes.unsafe_set buf (p + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set buf (p + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set buf (p + 3) (Char.unsafe_chr (v land 0xff));
  w.len <- p + 4

let patch_u32_be w ~at v =
  if at < 0 || at + 4 > w.len then invalid_arg "Buf.patch_u32_be: out of range";
  let buf = w.buf in
  Bytes.unsafe_set buf at (Char.unsafe_chr ((v lsr 24) land 0xff));
  Bytes.unsafe_set buf (at + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set buf (at + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set buf (at + 3) (Char.unsafe_chr (v land 0xff))

(* {1 Zero-copy reader} *)

type reader = { data : Bytes.t; mutable pos : int; limit : int }

(* The string is never written through the alias, so the unsafe cast is a
   pure zero-copy view. *)
let reader s =
  { data = Bytes.unsafe_of_string s; pos = 0; limit = String.length s }

let reader_sub b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Buf.reader_sub: slice out of range";
  { data = b; pos = off; limit = off + len }

let at_end r = r.pos >= r.limit

let read_u8 r =
  if r.pos >= r.limit then raise (Malformed "truncated u8");
  let v = Char.code (Bytes.unsafe_get r.data r.pos) in
  r.pos <- r.pos + 1;
  v

(* The loop lives at top level: an inner [let rec] capturing [r] would
   allocate its closure on every varint read. *)
let rec read_varint_at r shift acc =
  if shift > 62 then raise (Malformed "varint too long");
  let b = read_u8 r in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else read_varint_at r (shift + 7) acc

let read_varint r = read_varint_at r 0 0

let read_bool r =
  match read_u8 r with
  | 0 -> false
  | 1 -> true
  | n -> raise (Malformed (Printf.sprintf "bad bool %d" n))

let read_string r =
  let len = read_varint r in
  (* [len > limit - pos], not [pos + len > limit]: a varint near [max_int]
     would overflow the sum. *)
  if len < 0 || len > r.limit - r.pos then raise (Malformed "truncated string");
  let s = Bytes.sub_string r.data r.pos len in
  r.pos <- r.pos + len;
  s

let read_count r =
  let n = read_varint r in
  if n < 0 || n > r.limit - r.pos then raise (Malformed "count exceeds the bytes left");
  if n > 1_000_000 then raise (Malformed "list too long");
  n

let read_list r f =
  let n = read_count r in
  List.init n (fun _ -> f r)
