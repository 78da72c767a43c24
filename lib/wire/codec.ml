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

let version = 4
(* v2: request carries a priority; v3: naimi request carries a span seq;
   v4: grant carries the granter's recorded child mode. The shard payload
   arm (directory + handoff traffic) is versioned alongside v4: same
   envelope version, a third payload tag — pre-shard decoders reject it
   as a bad payload tag rather than silently misreading it. *)

(* {1 Encoding}

   The encoders are written once against {!Buf.WRITER} and instantiated
   twice: against the flat writer (the production path) and against the
   legacy [Buffer] writer, which exists only so tests can check the flat
   path byte-for-byte against the historical implementation. *)

module Enc (W : Buf.WRITER) = struct
  (* Node-id list items are encoded through this named function: an
     anonymous [fun w n -> W.varint w n] at the use sites would capture
     [W] and allocate a closure per message (no flambda). *)
  let varint_item w (n : int) = W.varint w n

  let mode w (m : Mode.t) = W.u8 w (Mode.index m)

  let mode_opt w = function
    | None -> W.u8 w 255
    | Some m -> mode w m

  let mode_set w s = W.u8 w (Mode_set.to_bits s)

  let request w (r : Msg.request) =
    W.varint w r.requester;
    W.varint w r.seq;
    mode w r.mode;
    W.bool w r.upgrade;
    W.varint w r.timestamp;
    W.varint w r.priority;
    W.varint w r.hops;
    W.bool w r.token_only;
    W.varint w (fst r.hint);
    W.varint w (snd r.hint);
    W.list w varint_item r.path

  let hlock_msg w (m : Msg.t) =
    match m with
    | Msg.Request req ->
        W.u8 w 0;
        request w req
    | Msg.Grant { req; epoch; recorded; ancestry } ->
        W.u8 w 1;
        request w req;
        W.varint w epoch;
        mode w recorded;
        W.list w varint_item ancestry
    | Msg.Token { serving; sender_owned; sender_epoch; queue; frozen } ->
        W.u8 w 2;
        request w serving;
        mode_opt w sender_owned;
        W.varint w sender_epoch;
        W.list w request queue;
        mode_set w frozen
    | Msg.Release { new_owned; epoch } ->
        W.u8 w 3;
        mode_opt w new_owned;
        W.varint w epoch
    | Msg.Freeze { frozen } ->
        W.u8 w 4;
        mode_set w frozen

  (* Optional node id as a biased varint (0 = None): node ids are small
     and non-negative, so the +1 bias never widens the encoding. *)
  let node_id_opt w = function
    | None -> W.varint w 0
    | Some n -> W.varint w (n + 1)

  let child_item w ((c, m, e) : int * Mode.t * int) =
    W.varint w c;
    mode w m;
    W.varint w e

  let sent_freeze_item w ((c, ms) : int * Mode_set.t) =
    W.varint w c;
    mode_set w ms

  let node_snapshot w (s : Dcs_hlock.Node.snapshot) =
    W.bool w s.s_token;
    node_id_opt w s.s_parent;
    W.varint w s.s_parent_stamp;
    node_id_opt w s.s_accounted_parent;
    W.varint w s.s_accounted_epoch;
    mode_opt w s.s_last_reported;
    mode_set w s.s_cached;
    W.list w child_item s.s_children;
    W.list w request s.s_queue;
    mode_set w s.s_frozen;
    W.list w sent_freeze_item s.s_sent_freeze;
    W.varint w s.s_tenure;
    W.varint w (fst s.s_hint);
    W.varint w (snd s.s_hint);
    node_id_opt w s.s_last_granter;
    W.list w varint_item s.s_ancestry;
    W.bool w s.s_saw_transfer;
    W.bool w s.s_served_ever;
    W.varint w s.s_next_seq;
    W.varint w s.s_clock;
    W.varint w s.s_epoch_counter

  let handoff_entry w (e : Shard_msg.handoff_entry) =
    W.varint w e.set;
    W.varint w e.bursts;
    W.varint w e.grants;
    W.varint w e.msgs;
    W.list w node_snapshot (Array.to_list e.state)

  let parked_item w ((set, burst) : int * int) =
    W.varint w set;
    W.varint w burst

  let dir_entry w (d : Shard_msg.dir_entry) =
    W.varint w d.bucket;
    W.varint w d.home;
    W.varint w d.version

  let shard_msg w (m : Shard_msg.t) =
    match m with
    | Shard_msg.Dir_lookup { bucket } ->
        W.u8 w 0;
        W.varint w bucket
    | Shard_msg.Dir_info d ->
        W.u8 w 1;
        dir_entry w d
    | Shard_msg.Dir_update d ->
        W.u8 w 2;
        dir_entry w d
    | Shard_msg.Handoff { bucket; version; entries; parked } ->
        W.u8 w 3;
        W.varint w bucket;
        W.varint w version;
        W.list w handoff_entry entries;
        W.list w parked_item parked
    | Shard_msg.Handoff_ack { bucket; version } ->
        W.u8 w 4;
        W.varint w bucket;
        W.varint w version
    | Shard_msg.Round_done { shard; round; bursts; grants } ->
        W.u8 w 5;
        W.varint w shard;
        W.varint w round;
        W.varint w bursts;
        W.varint w grants

  let naimi_msg w (m : Dcs_naimi.Naimi.msg) =
    match m with
    | Dcs_naimi.Naimi.Request { requester; seq } ->
        W.u8 w 0;
        W.varint w requester;
        W.varint w seq
    | Dcs_naimi.Naimi.Token -> W.u8 w 1

  let envelope w e =
    W.u8 w version;
    W.varint w e.src;
    W.varint w e.lock;
    match e.payload with
    | Hlock m ->
        W.u8 w 0;
        hlock_msg w m
    | Naimi m ->
        W.u8 w 1;
        naimi_msg w m
    | Shard m ->
        W.u8 w 2;
        shard_msg w m
end

module Flat = Enc (Buf)
module Legacy = Enc (Buf.Legacy)

let write_envelope w e = Flat.envelope w e

let encode e =
  let w = Buf.writer ~capacity:128 () in
  Flat.envelope w e;
  Buf.contents w

let encode_legacy e =
  let w = Buf.Legacy.writer () in
  Legacy.envelope w e;
  Buf.Legacy.contents w

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
  let token_only = Buf.read_bool r in
  let tenure = Buf.read_varint r in
  let owner = Buf.read_varint r in
  let path = Buf.read_list r Buf.read_varint in
  { requester; seq; mode; upgrade; timestamp; priority; hops; token_only; hint = (tenure, owner); path }

let read_hlock_msg r : Msg.t =
  match Buf.read_u8 r with
  | 0 -> Msg.Request (read_request r)
  | 1 ->
      let req = read_request r in
      let epoch = Buf.read_varint r in
      let recorded = read_mode r in
      let ancestry = Buf.read_list r Buf.read_varint in
      Msg.Grant { req; epoch; recorded; ancestry }
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
  let s_ancestry = Buf.read_list r Buf.read_varint in
  let s_saw_transfer = Buf.read_bool r in
  let s_served_ever = Buf.read_bool r in
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
    s_ancestry;
    s_saw_transfer;
    s_served_ever;
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

(* {1 Skimming}

   The full decoder, minus materialization: every field is read and
   validated exactly as [read_envelope] would, but nothing is built, so
   a frame can be checked (or its class inspected) with zero allocation.
   Mirrors the readers above — extend both when the wire format grows. *)

let skim_mode r = ignore (read_mode r)

(* Not [ignore (read_mode_opt r)]: building the [Some] would allocate. *)
let skim_mode_opt r =
  match Buf.read_u8 r with
  | 255 -> ()
  | i when i >= 0 && i <= 4 -> ()
  | i -> raise (Buf.Malformed (Printf.sprintf "bad mode option %d" i))

let skim_mode_set r = ignore (read_mode_set r)

let skim_varint r = ignore (Buf.read_varint r)

let skim_request r =
  skim_varint r;
  skim_varint r;
  skim_mode r;
  ignore (Buf.read_bool r);
  skim_varint r;
  skim_varint r;
  skim_varint r;
  ignore (Buf.read_bool r);
  skim_varint r;
  skim_varint r;
  Buf.skip_list r skim_varint

let skim_node_snapshot r =
  ignore (Buf.read_bool r);
  skim_varint r;
  skim_varint r;
  skim_varint r;
  skim_varint r;
  skim_mode_opt r;
  skim_mode_set r;
  Buf.skip_list r (fun r ->
      skim_varint r;
      skim_mode r;
      skim_varint r);
  Buf.skip_list r skim_request;
  skim_mode_set r;
  Buf.skip_list r (fun r ->
      skim_varint r;
      skim_mode_set r);
  skim_varint r;
  skim_varint r;
  skim_varint r;
  skim_varint r;
  Buf.skip_list r skim_varint;
  ignore (Buf.read_bool r);
  ignore (Buf.read_bool r);
  skim_varint r;
  skim_varint r;
  skim_varint r

let skim_dir_entry r =
  skim_varint r;
  skim_varint r;
  skim_varint r

let skim_shard_msg r =
  match Buf.read_u8 r with
  | 0 -> skim_varint r
  | 1 | 2 -> skim_dir_entry r
  | 3 ->
      skim_varint r;
      skim_varint r;
      Buf.skip_list r (fun r ->
          skim_varint r;
          skim_varint r;
          skim_varint r;
          skim_varint r;
          Buf.skip_list r skim_node_snapshot);
      Buf.skip_list r (fun r ->
          skim_varint r;
          skim_varint r)
  | 4 ->
      skim_varint r;
      skim_varint r
  | 5 ->
      skim_varint r;
      skim_varint r;
      skim_varint r;
      skim_varint r
  | t -> raise (Buf.Malformed (Printf.sprintf "bad shard tag %d" t))

let skim_envelope r =
  let v = Buf.read_u8 r in
  if v <> version then raise (Buf.Malformed (Printf.sprintf "unsupported version %d" v));
  skim_varint r;
  skim_varint r;
  (match Buf.read_u8 r with
  | 0 -> (
      match Buf.read_u8 r with
      | 0 -> skim_request r
      | 1 ->
          skim_request r;
          skim_varint r;
          skim_mode r;
          Buf.skip_list r skim_varint
      | 2 ->
          skim_request r;
          skim_mode_opt r;
          skim_varint r;
          Buf.skip_list r skim_request;
          skim_mode_set r
      | 3 ->
          skim_mode_opt r;
          skim_varint r
      | 4 -> skim_mode_set r
      | t -> raise (Buf.Malformed (Printf.sprintf "bad hlock tag %d" t)))
  | 1 -> (
      match Buf.read_u8 r with
      | 0 ->
          skim_varint r;
          skim_varint r
      | 1 -> ()
      | t -> raise (Buf.Malformed (Printf.sprintf "bad naimi tag %d" t)))
  | 2 -> skim_shard_msg r
  | t -> raise (Buf.Malformed (Printf.sprintf "bad payload tag %d" t)));
  if not (Buf.at_end r) then raise (Buf.Malformed "trailing bytes")

(* {1 Stream framing} *)

let max_frame = 1 lsl 20

let write_frame oc e =
  let w = Buf.writer ~capacity:128 () in
  Buf.u32_be w 0;
  Flat.envelope w e;
  Buf.patch_u32_be w ~at:0 (Buf.length w - 4);
  output_bytes oc (Bytes.sub (Buf.unsafe_bytes w) 0 (Buf.length w));
  flush oc

let read_frame ic =
  match input_char ic with
  | exception End_of_file -> None
  | b0 ->
      (* Sequence the reads explicitly: tuple components evaluate
         right-to-left in OCaml, which would scramble the header. *)
      let next () =
        try input_char ic with End_of_file -> raise (Buf.Malformed "truncated frame header")
      in
      let b1 = next () in
      let b2 = next () in
      let b3 = next () in
      let len =
        (Char.code b0 lsl 24) lor (Char.code b1 lsl 16) lor (Char.code b2 lsl 8) lor Char.code b3
      in
      if len > max_frame then raise (Buf.Malformed "frame too large");
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
  Array.iter (fun s -> Flat.node_snapshot w s) snaps;
  Buf.contents w

let decode_cluster_state s =
  let r = Buf.reader s in
  let n = Buf.read_count r in
  let snaps = Array.init n (fun _ -> read_node_snapshot r) in
  if not (Buf.at_end r) then raise (Buf.Malformed "trailing bytes");
  snaps
