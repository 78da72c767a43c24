open Dcs_modes
module Msg = Dcs_hlock.Msg

type payload =
  | Hlock of Msg.t
  | Naimi of Dcs_naimi.Naimi.msg
  | Shard of Shard_msg.t

type envelope = {
  src : Dcs_proto.Node_id.t;
  lock : int;
  payload : payload;
}

let version = 8
(* v2: request carries a priority; v3: naimi request carries a span seq;
   v4: grant carries the granter's recorded child mode; v5: grant carries
   the child's frozen set; v6: a node snapshot no longer carries the two
   routing bits R relays read before they stopped re-pointing the routing
   tree; v7: neither a grant nor a node snapshot carries the approximate
   accounting-ancestor list, which two exact rules on fields both ends
   already keep replaced; v8: a request no longer carries the token-only
   mark, which the exact late-grant refusal made redundant. The shard
   payload arm (directory + handoff traffic) was versioned alongside v4:
   same envelope version, a third payload tag — pre-shard decoders reject
   it as a bad payload tag rather than silently misreading it. *)

(* {1 Encoding}

   Written once, straight onto the flat writer. List items go through
   named top-level functions ([Buf.list w Buf.varint l]): an anonymous
   [fun w x -> ...] at a use site would allocate a closure per message
   (no flambda). *)

let write_mode w (m : Mode.t) = Buf.u8 w (Mode.index m)

let write_mode_opt w = function
  | None -> Buf.u8 w 255
  | Some m -> write_mode w m

let write_mode_set w s = Buf.u8 w (Mode_set.to_bits s)

let write_request w (r : Msg.request) =
  Buf.varint w r.requester;
  Buf.varint w r.seq;
  write_mode w r.mode;
  Buf.bool w r.upgrade;
  Buf.varint w r.timestamp;
  Buf.varint w r.priority;
  Buf.varint w r.hops;
  Buf.varint w r.hint_stamp;
  Buf.varint w r.hint_owner;
  Buf.list w Buf.varint r.path

let write_hlock_msg w (m : Msg.t) =
  match m with
  | Msg.Request req ->
      Buf.u8 w 0;
      write_request w req
  | Msg.Grant { req; epoch; recorded; frozen } ->
      Buf.u8 w 1;
      write_request w req;
      Buf.varint w epoch;
      write_mode w recorded;
      write_mode_set w frozen
  | Msg.Token { serving; sender_owned; sender_epoch; queue; frozen } ->
      Buf.u8 w 2;
      write_request w serving;
      write_mode_opt w sender_owned;
      Buf.varint w sender_epoch;
      Buf.list w write_request queue;
      write_mode_set w frozen
  | Msg.Release { new_owned; epoch } ->
      Buf.u8 w 3;
      write_mode_opt w new_owned;
      Buf.varint w epoch
  | Msg.Freeze { frozen } ->
      Buf.u8 w 4;
      write_mode_set w frozen

(* Optional node id as a biased varint (0 = None): node ids are small
   and non-negative, so the +1 bias never widens the encoding. *)
let write_node_id_opt w = function
  | None -> Buf.varint w 0
  | Some n -> Buf.varint w (n + 1)

let write_child_item w ((c, m, e) : int * Mode.t * int) =
  Buf.varint w c;
  write_mode w m;
  Buf.varint w e

let write_sent_freeze_item w ((c, ms) : int * Mode_set.t) =
  Buf.varint w c;
  write_mode_set w ms

let write_node_snapshot w (s : Dcs_hlock.Node.snapshot) =
  Buf.bool w s.s_token;
  write_node_id_opt w s.s_parent;
  Buf.varint w s.s_parent_stamp;
  write_node_id_opt w s.s_accounted_parent;
  Buf.varint w s.s_accounted_epoch;
  write_mode_opt w s.s_last_reported;
  write_mode_set w s.s_cached;
  Buf.list w write_child_item s.s_children;
  Buf.list w write_request s.s_queue;
  write_mode_set w s.s_frozen;
  Buf.list w write_sent_freeze_item s.s_sent_freeze;
  Buf.varint w s.s_tenure;
  Buf.varint w (fst s.s_hint);
  Buf.varint w (snd s.s_hint);
  write_node_id_opt w s.s_last_granter;
  Buf.varint w s.s_next_seq;
  Buf.varint w s.s_clock;
  Buf.varint w s.s_epoch_counter

let write_handoff_entry w (e : Shard_msg.handoff_entry) =
  Buf.varint w e.set;
  Buf.varint w e.bursts;
  Buf.varint w e.grants;
  Buf.varint w e.msgs;
  Buf.list w write_node_snapshot (Array.to_list e.state)

let write_parked_item w ((set, burst) : int * int) =
  Buf.varint w set;
  Buf.varint w burst

let write_dir_entry w (d : Shard_msg.dir_entry) =
  Buf.varint w d.bucket;
  Buf.varint w d.home;
  Buf.varint w d.version

let write_shard_msg w (m : Shard_msg.t) =
  match m with
  | Shard_msg.Dir_lookup { bucket } ->
      Buf.u8 w 0;
      Buf.varint w bucket
  | Shard_msg.Dir_info d ->
      Buf.u8 w 1;
      write_dir_entry w d
  | Shard_msg.Dir_update d ->
      Buf.u8 w 2;
      write_dir_entry w d
  | Shard_msg.Handoff { bucket; version; entries; parked } ->
      Buf.u8 w 3;
      Buf.varint w bucket;
      Buf.varint w version;
      Buf.list w write_handoff_entry entries;
      Buf.list w write_parked_item parked
  | Shard_msg.Handoff_ack { bucket; version } ->
      Buf.u8 w 4;
      Buf.varint w bucket;
      Buf.varint w version
  | Shard_msg.Round_done { shard; round; bursts; grants } ->
      Buf.u8 w 5;
      Buf.varint w shard;
      Buf.varint w round;
      Buf.varint w bursts;
      Buf.varint w grants

let write_naimi_msg w (m : Dcs_naimi.Naimi.msg) =
  match m with
  | Dcs_naimi.Naimi.Request { requester; seq } ->
      Buf.u8 w 0;
      Buf.varint w requester;
      Buf.varint w seq
  | Dcs_naimi.Naimi.Token -> Buf.u8 w 1

let write_envelope w e =
  Buf.u8 w version;
  Buf.varint w e.src;
  Buf.varint w e.lock;
  match e.payload with
  | Hlock m ->
      Buf.u8 w 0;
      write_hlock_msg w m
  | Naimi m ->
      Buf.u8 w 1;
      write_naimi_msg w m
  | Shard m ->
      Buf.u8 w 2;
      write_shard_msg w m

let encode e =
  let w = Buf.writer ~capacity:128 () in
  write_envelope w e;
  Buf.contents w

(* {1 Decoding} *)

let read_mode r =
  let i = Buf.read_u8 r in
  if i < 0 || i > 4 then raise (Buf.Malformed (Printf.sprintf "bad mode %d" i));
  Mode.of_index i

let read_mode_opt r =
  match Buf.read_u8 r with
  | 255 -> None
  | i when i >= 0 && i <= 4 -> Some (Mode.of_index i)
  | i -> raise (Buf.Malformed (Printf.sprintf "bad mode option %d" i))

let read_mode_set r =
  let bits = Buf.read_u8 r in
  if bits land lnot 0b11111 <> 0 then raise (Buf.Malformed "bad mode set");
  Mode_set.of_bits bits

let read_request r : Msg.request =
  let requester = Buf.read_varint r in
  let seq = Buf.read_varint r in
  let mode = read_mode r in
  let upgrade = Buf.read_bool r in
  let timestamp = Buf.read_varint r in
  let priority = Buf.read_varint r in
  let hops = Buf.read_varint r in
  let hint_stamp = Buf.read_varint r in
  let hint_owner = Buf.read_varint r in
  let path = Buf.read_list r Buf.read_varint in
  { requester; seq; mode; upgrade; timestamp; priority; hops; hint_stamp; hint_owner; path }

let read_hlock_msg r : Msg.t =
  match Buf.read_u8 r with
  | 0 -> Msg.Request (read_request r)
  | 1 ->
      let req = read_request r in
      let epoch = Buf.read_varint r in
      let recorded = read_mode r in
      let frozen = read_mode_set r in
      Msg.Grant { req; epoch; recorded; frozen }
  | 2 ->
      let serving = read_request r in
      let sender_owned = read_mode_opt r in
      let sender_epoch = Buf.read_varint r in
      let queue = Buf.read_list r read_request in
      let frozen = read_mode_set r in
      Msg.Token { serving; sender_owned; sender_epoch; queue; frozen }
  | 3 ->
      let new_owned = read_mode_opt r in
      let epoch = Buf.read_varint r in
      Msg.Release { new_owned; epoch }
  | 4 -> Msg.Freeze { frozen = read_mode_set r }
  | t -> raise (Buf.Malformed (Printf.sprintf "bad hlock tag %d" t))

let read_node_id_opt r =
  match Buf.read_varint r with 0 -> None | n -> Some (n - 1)

let read_child_item r =
  let c = Buf.read_varint r in
  let m = read_mode r in
  let e = Buf.read_varint r in
  (c, m, e)

let read_sent_freeze_item r =
  let c = Buf.read_varint r in
  let ms = read_mode_set r in
  (c, ms)

let read_node_snapshot r : Dcs_hlock.Node.snapshot =
  let s_token = Buf.read_bool r in
  let s_parent = read_node_id_opt r in
  let s_parent_stamp = Buf.read_varint r in
  let s_accounted_parent = read_node_id_opt r in
  let s_accounted_epoch = Buf.read_varint r in
  let s_last_reported = read_mode_opt r in
  let s_cached = read_mode_set r in
  let s_children = Buf.read_list r read_child_item in
  let s_queue = Buf.read_list r read_request in
  let s_frozen = read_mode_set r in
  let s_sent_freeze = Buf.read_list r read_sent_freeze_item in
  let s_tenure = Buf.read_varint r in
  let hint_tenure = Buf.read_varint r in
  let hint_owner = Buf.read_varint r in
  let s_last_granter = read_node_id_opt r in
  let s_next_seq = Buf.read_varint r in
  let s_clock = Buf.read_varint r in
  let s_epoch_counter = Buf.read_varint r in
  {
    s_token;
    s_parent;
    s_parent_stamp;
    s_accounted_parent;
    s_accounted_epoch;
    s_last_reported;
    s_cached;
    s_children;
    s_queue;
    s_frozen;
    s_sent_freeze;
    s_tenure;
    s_hint = (hint_tenure, hint_owner);
    s_last_granter;
    s_next_seq;
    s_clock;
    s_epoch_counter;
  }

let read_handoff_entry r : Shard_msg.handoff_entry =
  let set = Buf.read_varint r in
  let bursts = Buf.read_varint r in
  let grants = Buf.read_varint r in
  let msgs = Buf.read_varint r in
  let state = Array.of_list (Buf.read_list r read_node_snapshot) in
  { set; bursts; grants; msgs; state }

let read_parked_item r =
  let set = Buf.read_varint r in
  let burst = Buf.read_varint r in
  (set, burst)

let read_dir_entry r : Shard_msg.dir_entry =
  let bucket = Buf.read_varint r in
  let home = Buf.read_varint r in
  let version = Buf.read_varint r in
  { bucket; home; version }

let read_shard_msg r : Shard_msg.t =
  match Buf.read_u8 r with
  | 0 -> Shard_msg.Dir_lookup { bucket = Buf.read_varint r }
  | 1 -> Shard_msg.Dir_info (read_dir_entry r)
  | 2 -> Shard_msg.Dir_update (read_dir_entry r)
  | 3 ->
      let bucket = Buf.read_varint r in
      let version = Buf.read_varint r in
      let entries = Buf.read_list r read_handoff_entry in
      let parked = Buf.read_list r read_parked_item in
      Shard_msg.Handoff { bucket; version; entries; parked }
  | 4 ->
      let bucket = Buf.read_varint r in
      let version = Buf.read_varint r in
      Shard_msg.Handoff_ack { bucket; version }
  | 5 ->
      let shard = Buf.read_varint r in
      let round = Buf.read_varint r in
      let bursts = Buf.read_varint r in
      let grants = Buf.read_varint r in
      Shard_msg.Round_done { shard; round; bursts; grants }
  | t -> raise (Buf.Malformed (Printf.sprintf "bad shard tag %d" t))

let read_naimi_msg r : Dcs_naimi.Naimi.msg =
  match Buf.read_u8 r with
  | 0 ->
      let requester = Buf.read_varint r in
      let seq = Buf.read_varint r in
      Dcs_naimi.Naimi.Request { requester; seq }
  | 1 -> Dcs_naimi.Naimi.Token
  | t -> raise (Buf.Malformed (Printf.sprintf "bad naimi tag %d" t))

let read_envelope r =
  let v = Buf.read_u8 r in
  if v <> version then raise (Buf.Malformed (Printf.sprintf "unsupported version %d" v));
  let src = Buf.read_varint r in
  let lock = Buf.read_varint r in
  let payload =
    match Buf.read_u8 r with
    | 0 -> Hlock (read_hlock_msg r)
    | 1 -> Naimi (read_naimi_msg r)
    | 2 -> Shard (read_shard_msg r)
    | t -> raise (Buf.Malformed (Printf.sprintf "bad payload tag %d" t))
  in
  if not (Buf.at_end r) then raise (Buf.Malformed "trailing bytes");
  { src; lock; payload }

let decode s = read_envelope (Buf.reader s)

let decode_sub b ~off ~len = read_envelope (Buf.reader_sub b ~off ~len)

(* {1 Stream framing}

   A frame is a 4-byte big-endian body length, then the encoded envelope.
   This section is the only code that writes or parses that header. *)

let max_frame = 1 lsl 20

let frame_header = 4

let append_frame w e =
  let at = Buf.length w in
  Buf.u32_be w 0;
  write_envelope w e;
  let len = Buf.length w - at - frame_header in
  if len > max_frame then begin
    Buf.truncate w at;
    invalid_arg
      (Printf.sprintf "Codec.append_frame: %d-byte frame body exceeds max_frame (%d bytes)" len
         max_frame)
  end;
  Buf.patch_u32_be w ~at len

let frame_length b ~off =
  if off < 0 || off + frame_header > Bytes.length b then
    invalid_arg "Codec.frame_length: header out of range";
  let len =
    (Char.code (Bytes.unsafe_get b off) lsl 24)
    lor (Char.code (Bytes.unsafe_get b (off + 1)) lsl 16)
    lor (Char.code (Bytes.unsafe_get b (off + 2)) lsl 8)
    lor Char.code (Bytes.unsafe_get b (off + 3))
  in
  if len > max_frame then raise (Buf.Malformed (Printf.sprintf "frame too large (%d bytes)" len));
  len

let write_frame oc e =
  let w = Buf.writer ~capacity:128 () in
  append_frame w e;
  output oc (Buf.unsafe_bytes w) 0 (Buf.length w);
  flush oc

let read_frame ic =
  match input_char ic with
  | exception End_of_file -> None
  | b0 ->
      let header = Bytes.create frame_header in
      Bytes.set header 0 b0;
      (try really_input ic header 1 (frame_header - 1)
       with End_of_file -> raise (Buf.Malformed "truncated frame header"));
      let len = frame_length header ~off:0 in
      let body = Bytes.create len in
      (try really_input ic body 0 len
       with End_of_file -> raise (Buf.Malformed "truncated frame body"));
      Some (decode_sub body ~off:0 ~len)

(* {1 Cluster-state blobs}

   A whole lock object's per-node population as one compact byte string —
   the storage format the shard router keeps per lock set between bursts,
   and exactly the bytes a handoff entry's state travels as. Round-trips
   through the same snapshot codec as the wire path, so stored state and
   migrated state can never diverge. *)

let encode_cluster_state (snaps : Dcs_hlock.Node.snapshot array) =
  let w = Buf.writer ~capacity:256 () in
  Buf.varint w (Array.length snaps);
  Array.iter (write_node_snapshot w) snaps;
  Buf.contents w

let decode_cluster_state s =
  let r = Buf.reader s in
  let n = Buf.read_count r in
  let snaps = Array.init n (fun _ -> read_node_snapshot r) in
  if not (Buf.at_end r) then raise (Buf.Malformed "trailing bytes");
  snaps
