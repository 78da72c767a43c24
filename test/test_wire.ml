(* Codec tests: roundtrips for every message kind and rejection of
   malformed input. *)

open Dcs_modes
module Msg = Dcs_hlock.Msg
module Codec = Dcs_wire.Codec
module Buf = Dcs_wire.Buf
module Shard_msg = Dcs_wire.Shard_msg
module Q = QCheck2

let checkb = Alcotest.check Alcotest.bool

let gen_request =
  Q.Gen.(
    let* requester = int_bound 200 in
    let* seq = int_bound 10_000 in
    let* mode = Testkit.gen_mode in
    let* upgrade = bool in
    let* timestamp = int_bound 1_000_000 in
    let* priority = int_bound 9 in
    let* hops = int_bound 300 in
    let* tenure = int_bound 100_000 in
    let* owner = int_bound 200 in
    let* path = list_size (int_bound 20) (int_bound 200) in
    return
      {
        Msg.requester;
        seq;
        mode;
        upgrade;
        timestamp;
        priority;
        hops;
        hint_stamp = tenure;
        hint_owner = owner;
        path;
      })

let gen_mode_set = Q.Gen.(map Mode_set.of_list (list_size (int_bound 5) Testkit.gen_mode))

let gen_hlock_msg =
  Q.Gen.(
    oneof
      [
        map (fun r -> Msg.Request r) gen_request;
        (let* req = gen_request in
         let* epoch = int_bound 100_000 in
         let* recorded = Testkit.gen_mode in
         let* frozen = gen_mode_set in
         return (Msg.Grant { req; epoch; recorded; frozen }));
        (let* serving = gen_request in
         let* sender_owned = Testkit.gen_mode_opt in
         let* sender_epoch = int_bound 100_000 in
         let* queue = list_size (int_bound 8) gen_request in
         let* frozen = gen_mode_set in
         return (Msg.Token { serving; sender_owned; sender_epoch; queue; frozen }));
        (let* new_owned = Testkit.gen_mode_opt in
         let* epoch = int_bound 100_000 in
         return (Msg.Release { new_owned; epoch }));
        map (fun frozen -> Msg.Freeze { frozen }) gen_mode_set;
      ])

let gen_envelope =
  Q.Gen.(
    let* src = int_bound 200 in
    let* lock = int_bound 50 in
    let* payload =
      oneof
        [
          map (fun m -> Codec.Hlock m) gen_hlock_msg;
          oneofl
            [
              Codec.Naimi (Dcs_naimi.Naimi.Request { requester = 3; seq = 17 });
              Codec.Naimi Dcs_naimi.Naimi.Token;
            ];
        ]
    in
    return { Codec.src; lock; payload })

let prop_roundtrip =
  Q.Test.make ~name:"encode/decode roundtrip" ~count:2000 gen_envelope (fun env ->
      Codec.decode (Codec.encode env) = env)

let prop_truncation_rejected =
  Q.Test.make ~name:"truncated input raises Malformed" ~count:500 gen_envelope (fun env ->
      let s = Codec.encode env in
      if String.length s < 2 then true
      else
        let cut = String.sub s 0 (String.length s - 1) in
        match Codec.decode cut with
        | _ -> false
        | exception Buf.Malformed _ -> true)

(* Stronger than dropping one byte: every proper prefix must be rejected,
   whatever field boundary the cut lands on. *)
let prop_every_prefix_rejected =
  Q.Test.make ~name:"every proper prefix raises Malformed" ~count:200 gen_envelope (fun env ->
      let s = Codec.encode env in
      let ok = ref true in
      for len = 0 to String.length s - 1 do
        (match Codec.decode (String.sub s 0 len) with
        | _ -> ok := false
        | exception Buf.Malformed _ -> ())
      done;
      !ok)

(* Per-class roundtrips: the mixed generator above could in principle
   drift toward some classes; these pin every wire shape individually. *)
let hlock_envelope m = { Codec.src = 1; lock = 0; payload = Codec.Hlock m }

let per_class_roundtrip name gen =
  Q.Test.make ~name:(name ^ " roundtrip") ~count:500
    Q.Gen.(map hlock_envelope gen)
    (fun env -> Codec.decode (Codec.encode env) = env)

let prop_request_roundtrip =
  per_class_roundtrip "request" Q.Gen.(map (fun r -> Msg.Request r) gen_request)

let prop_grant_roundtrip =
  per_class_roundtrip "grant"
    Q.Gen.(
      let* req = gen_request in
      let* epoch = int_bound 100_000 in
      let* recorded = Testkit.gen_mode in
      let* frozen = gen_mode_set in
      return (Msg.Grant { req; epoch; recorded; frozen }))

let prop_token_roundtrip =
  per_class_roundtrip "token"
    Q.Gen.(
      let* serving = gen_request in
      let* sender_owned = Testkit.gen_mode_opt in
      let* sender_epoch = int_bound 100_000 in
      let* queue = list_size (int_bound 8) gen_request in
      let* frozen = gen_mode_set in
      return (Msg.Token { serving; sender_owned; sender_epoch; queue; frozen }))

let prop_release_roundtrip =
  per_class_roundtrip "release"
    Q.Gen.(
      let* new_owned = Testkit.gen_mode_opt in
      let* epoch = int_bound 100_000 in
      return (Msg.Release { new_owned; epoch }))

let prop_freeze_roundtrip =
  per_class_roundtrip "freeze" Q.Gen.(map (fun frozen -> Msg.Freeze { frozen }) gen_mode_set)

(* {2 Golden bytes}

   The current byte layout, pinned per message class by hex fixtures under
   [golden/], recorded from the [Buffer]-backed reference writer that
   these fixtures replaced. Field values are chosen so that swapping any
   two field writes in the encoder changes the bytes of some case: the
   first case of a class gives every field a value no other field of it
   holds. The other cases cover [None], empty lists and sets, every mode
   and the varint width edges. A deliberate format change edits the
   fixture and bumps [Codec.version] in the same commit. *)

let golden_request =
  {
    Msg.requester = 3;
    seq = 1001;
    mode = Mode.IW;
    upgrade = true;
    timestamp = 70001;
    priority = 5;
    hops = 12;
    hint_stamp = 4242;
    hint_owner = 9;
    path = [ 33; 21; 40 ];
  }

let golden_request_b =
  {
    Msg.requester = 6;
    seq = 2;
    mode = Mode.W;
    upgrade = false;
    timestamp = 131;
    priority = 1;
    hops = 0;
    hint_stamp = 17;
    hint_owner = 8;
    path = [];
  }

let golden_snapshot_a =
  {
    Dcs_hlock.Node.s_token = true;
    s_parent = Some 4;
    s_parent_stamp = 61;
    s_accounted_parent = Some 7;
    s_accounted_epoch = 62;
    s_last_reported = Some Mode.R;
    s_cached = Mode_set.of_list [ Mode.IR; Mode.R ];
    s_children = [ (10, Mode.IW, 63); (12, Mode.IR, 64) ];
    s_queue = [ golden_request_b ];
    s_frozen = Mode_set.singleton Mode.W;
    s_sent_freeze = [ (16, Mode_set.of_list [ Mode.R; Mode.U ]) ];
    s_tenure = 65;
    s_hint = (66, 18);
    s_last_granter = Some 19;
    s_next_seq = 67;
    s_clock = 68;
    s_epoch_counter = 69;
  }

let golden_snapshot_b =
  {
    Dcs_hlock.Node.s_token = false;
    s_parent = None;
    s_parent_stamp = 70;
    s_accounted_parent = None;
    s_accounted_epoch = 71;
    s_last_reported = None;
    s_cached = Mode_set.empty;
    s_children = [];
    s_queue = [];
    s_frozen = Mode_set.empty;
    s_sent_freeze = [];
    s_tenure = 72;
    s_hint = (73, 0);
    s_last_granter = None;
    s_next_seq = 74;
    s_clock = 75;
    s_epoch_counter = 76;
  }

let golden_env payload = { Codec.src = 11; lock = 13; payload }
let golden_hlock m = golden_env (Codec.Hlock m)
let golden_shard m = golden_env (Codec.Shard m)

let golden_cases =
  [
    ( "request",
      [
        ("request", golden_hlock (Msg.Request golden_request));
        ("request-empty-path", golden_hlock (Msg.Request golden_request_b));
      ] );
    ( "grant",
      [
        ( "grant",
          golden_hlock
            (Msg.Grant
               {
                 req = golden_request;
                 epoch = 123457;
                 recorded = Mode.R;
                 frozen = Mode_set.of_list [ Mode.R; Mode.W ];
               })
        );
      ] );
    ( "token",
      [
        ( "token",
          golden_hlock
            (Msg.Token
               {
                 serving = golden_request;
                 sender_owned = Some Mode.U;
                 sender_epoch = 5150;
                 queue = [ golden_request_b; { golden_request_b with requester = 14; seq = 15 } ];
                 frozen = Mode_set.of_list [ Mode.R; Mode.W ];
               }) );
        ( "token-empty",
          golden_hlock
            (Msg.Token
               {
                 serving = golden_request_b;
                 sender_owned = None;
                 sender_epoch = 88;
                 queue = [];
                 frozen = Mode_set.empty;
               }) );
      ] );
    ( "release",
      [
        ("release", golden_hlock (Msg.Release { new_owned = Some Mode.IR; epoch = 99 }));
        ("release-none", golden_hlock (Msg.Release { new_owned = None; epoch = 100 }));
      ] );
    ( "freeze",
      [
        ("freeze", golden_hlock (Msg.Freeze { frozen = Mode_set.of_list [ Mode.IR; Mode.IW ] }));
        ("freeze-empty", golden_hlock (Msg.Freeze { frozen = Mode_set.empty }));
        ("freeze-full", golden_hlock (Msg.Freeze { frozen = Mode_set.full }));
      ] );
    ( "naimi",
      [
        ( "naimi-request",
          golden_env (Codec.Naimi (Dcs_naimi.Naimi.Request { requester = 3; seq = 17 })) );
        ("naimi-token", golden_env (Codec.Naimi Dcs_naimi.Naimi.Token));
      ] );
    ( "shard",
      [
        ("dir-lookup", golden_shard (Shard_msg.Dir_lookup { bucket = 3 }));
        ("dir-info", golden_shard (Shard_msg.Dir_info { bucket = 5; home = 1; version = 4 }));
        ("dir-update", golden_shard (Shard_msg.Dir_update { bucket = 6; home = 2; version = 7 }));
        ( "handoff",
          golden_shard
            (Shard_msg.Handoff
               {
                 bucket = 2;
                 version = 8;
                 entries =
                   [
                     {
                       Shard_msg.set = 9;
                       bursts = 3;
                       grants = 12;
                       msgs = 48;
                       state = [| golden_snapshot_a; golden_snapshot_b |];
                     };
                     { Shard_msg.set = 14; bursts = 1; grants = 4; msgs = 19; state = [||] };
                   ];
                 parked = [ (21, 22); (23, 24) ];
               }) );
        ("handoff-ack", golden_shard (Shard_msg.Handoff_ack { bucket = 25; version = 26 }));
        ( "round-done",
          golden_shard (Shard_msg.Round_done { shard = 1; round = 5; bursts = 9; grants = 36 }) );
      ] );
    ( "boundary",
      (* Varints at every width edge: 0, 127, 128, 16383, 16384, max_int. *)
      ( "varints",
        {
          Codec.src = 16383;
          lock = max_int;
          payload =
            Codec.Hlock
              (Msg.Request
                 {
                   Msg.requester = 0;
                   seq = 127;
                   mode = Mode.IR;
                   upgrade = false;
                   timestamp = 128;
                   priority = 16384;
                   hops = 1;
                   hint_stamp = max_int - 1;
                   hint_owner = 2;
                   path = [ 16384; 127; 128; 0; max_int ];
                 });
        } )
      :: List.map
           (fun m ->
             ( "mode-" ^ Mode.to_string m,
               golden_hlock
                 (Msg.Token
                    {
                      serving = { golden_request with mode = m };
                      sender_owned = Some m;
                      sender_epoch = 0;
                      queue = [];
                      frozen = Mode_set.singleton m;
                    }) ))
           Mode.all );
  ]

(* Cluster-state blobs: the at-rest shard store format. *)
let golden_cluster_states =
  [ ("two-nodes", [| golden_snapshot_a; golden_snapshot_b |]); ("empty", [||]) ]

let to_hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* [golden/<cls>.hex]: [#] comments, then one [<case name> <hex>] line per
   case. *)
let read_fixture cls =
  In_channel.with_open_text (Filename.concat "golden" (cls ^ ".hex")) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ "" ] -> None
         | hash :: _ when hash.[0] = '#' -> None
         | [ name; hex ] -> Some (name, hex)
         | _ -> Alcotest.failf "golden/%s.hex: bad line %S" cls line)

(* Each case encodes to its fixture bytes, and the fixture bytes decode
   back to the case. *)
let check_golden cls encode decode cases =
  Alcotest.check Alcotest.int "wire format version" 8 Codec.version;
  let fixture = read_fixture cls in
  Alcotest.check
    Alcotest.(list string)
    (cls ^ " case names") (List.map fst cases) (List.map fst fixture);
  List.iter2
    (fun (name, v) (_, hex) ->
      Alcotest.check Alcotest.string (name ^ " bytes") hex (to_hex (encode v));
      checkb (name ^ " decodes") true (decode (of_hex hex) = v))
    cases fixture

let golden_envelopes cls () =
  check_golden cls Codec.encode Codec.decode (List.assoc cls golden_cases)

let test_golden_cluster_state () =
  check_golden "cluster_state" Codec.encode_cluster_state Codec.decode_cluster_state
    golden_cluster_states

(* {2 Writer reuse}

   One writer across a stream of frames — reset between frames must make
   it equivalent to a fresh writer every time, including after internal
   growth. *)

let prop_writer_reset_reuse =
  Q.Test.make ~name:"writer reset reuse across frames" ~count:100
    Q.Gen.(list_size (int_bound 20) gen_envelope)
    (fun envs ->
      let w = Buf.writer ~capacity:8 () in
      List.for_all
        (fun env ->
          Buf.reset w;
          Codec.write_envelope w env;
          let via_reuse = Bytes.create (Buf.length w) in
          Buf.blit w via_reuse 0;
          Bytes.to_string via_reuse = Codec.encode env)
        envs)

(* {2 decode_sub honors its slice bounds} *)

let prop_decode_sub_slices =
  Q.Test.make ~name:"decode_sub decodes mid-buffer slices" ~count:200 gen_envelope (fun env ->
      let s = Codec.encode env in
      let len = String.length s in
      (* Embed with garbage on both sides: only the slice must be read. *)
      let b = Bytes.make (len + 7) '\xff' in
      Bytes.blit_string s 0 b 3 len;
      Codec.decode_sub b ~off:3 ~len = env
      && (match Codec.decode_sub b ~off:3 ~len:(len - 1) with
         | _ -> false
         | exception Buf.Malformed _ -> true)
      &&
      match Codec.decode_sub b ~off:3 ~len:(len + 1) with
      | _ -> false
      | exception Buf.Malformed _ -> true)

let test_naimi_roundtrip () =
  List.iter
    (fun payload ->
      let env = { Codec.src = 9; lock = 4; payload } in
      checkb "naimi roundtrip" true (Codec.decode (Codec.encode env) = env))
    [
      Codec.Naimi (Dcs_naimi.Naimi.Request { requester = 3; seq = 17 });
      Codec.Naimi Dcs_naimi.Naimi.Token;
    ]

let prop_trailing_rejected =
  Q.Test.make ~name:"trailing bytes raise Malformed" ~count:500 gen_envelope (fun env ->
      let s = Codec.encode env ^ "\x00" in
      match Codec.decode s with
      | _ -> false
      | exception Buf.Malformed _ -> true)

let test_version_rejected () =
  (* Exhaustive version sweep: only the current version byte decodes;
     every other value 0-255 (including all prior versions, whose request
     layout differs) must raise. *)
  let env = { Codec.src = 0; lock = 0; payload = Codec.Naimi Dcs_naimi.Naimi.Token } in
  let s = Codec.encode env in
  let rest = String.sub s 1 (String.length s - 1) in
  let current = Char.code s.[0] in
  for v = 0 to 255 do
    let doctored = String.make 1 (Char.chr v) ^ rest in
    if v = current then checkb "current version decodes" true (Codec.decode doctored = env)
    else
      checkb
        (Printf.sprintf "version %d rejected" v)
        true
        (match Codec.decode doctored with _ -> false | exception Buf.Malformed _ -> true)
  done

let prop_varint_roundtrip =
  Q.Test.make ~name:"varint roundtrip" ~count:1000
    Q.Gen.(int_bound max_int)
    (fun v ->
      let w = Buf.writer () in
      Buf.varint w v;
      let r = Buf.reader (Buf.contents w) in
      Buf.read_varint r = v && Buf.at_end r)

let test_varint_negative () =
  let w = Buf.writer () in
  Alcotest.check_raises "negative" (Invalid_argument "Buf.varint: negative") (fun () ->
      Buf.varint w (-1))

let prop_string_roundtrip =
  Q.Test.make ~name:"string roundtrip" ~count:500 Q.Gen.string (fun s ->
      let w = Buf.writer () in
      Buf.string w s;
      Buf.read_string (Buf.reader (Buf.contents w)) = s)

let test_frame_roundtrip () =
  (* Through a real pipe. *)
  let env =
    {
      Codec.src = 7;
      lock = 3;
      payload =
        Codec.Hlock
          (Msg.Request
             {
               Msg.requester = 7;
               seq = 1;
               mode = Mode.IW;
               upgrade = false;
               timestamp = 5;
               priority = 0;
               hops = 2;
               hint_stamp = 9;
               hint_owner = 4;
               path = [ 7; 3 ];
             });
    }
  in
  let rd, wr = Unix.pipe () in
  let oc = Unix.out_channel_of_descr wr and ic = Unix.in_channel_of_descr rd in
  Codec.write_frame oc env;
  close_out oc;
  (match Codec.read_frame ic with
  | Some got -> checkb "same envelope" true (got = env)
  | None -> Alcotest.fail "no frame");
  checkb "clean eof" true (Codec.read_frame ic = None);
  close_in ic

(* {2 Hostile bytes}

   Whatever arrives on a socket or sits in a stored blob, every decoder
   raises [Buf.Malformed] and nothing else: another exception would kill
   the transport's reader thread without counting a decode error. *)

let gen_snapshot =
  Q.Gen.(
    let small = int_bound 64 in
    let id_opt = opt (int_bound 63) in
    let* s_token = bool in
    let* s_parent = id_opt in
    let* s_parent_stamp = small in
    let* s_accounted_parent = id_opt in
    let* s_accounted_epoch = small in
    let* s_last_reported = Testkit.gen_mode_opt in
    let* s_cached = gen_mode_set in
    let* s_children = list_size (int_bound 4) (triple (int_bound 63) Testkit.gen_mode small) in
    let* s_queue = list_size (int_bound 3) gen_request in
    let* s_frozen = gen_mode_set in
    let* s_sent_freeze = list_size (int_bound 3) (pair (int_bound 63) gen_mode_set) in
    let* s_tenure = small in
    let* s_hint = pair small (int_bound 63) in
    let* s_last_granter = id_opt in
    let* s_next_seq = small in
    let* s_clock = small in
    let* s_epoch_counter = small in
    return
      {
        Dcs_hlock.Node.s_token;
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
        s_hint;
        s_last_granter;
        s_next_seq;
        s_clock;
        s_epoch_counter;
      })

(* {2 Restore/export identity}

   [Node.restore] turns a snapshot's option-typed ids into -1-coded ints
   and its last-reported mode into an owned code, and [Node.export] turns
   them back. A snapshot node 5 of 64 peers could export — ids in
   [0, 64), copyset and sent-freeze entries in ascending id with no
   repeats, no empty sent-freeze set — restores and exports to itself. *)

let restorable (s : Dcs_hlock.Node.snapshot) =
  let peer x = x mod 64 in
  let request (r : Msg.request) =
    { r with requester = peer r.requester; hint_owner = peer r.hint_owner;
             path = List.map peer r.path }
  in
  { s with
    s_children = List.sort_uniq (fun (a, _, _) (b, _, _) -> compare a b) s.s_children;
    s_sent_freeze =
      List.sort_uniq
        (fun (a, _) (b, _) -> compare a b)
        (List.filter (fun (_, ms) -> not (Mode_set.is_empty ms)) s.s_sent_freeze);
    s_queue = List.map request s.s_queue }

let restore_export (s : Dcs_hlock.Node.snapshot) =
  Dcs_hlock.Node.export (Dcs_hlock.Node.restore ~id:5 ~peers:64 ~send:(fun ~dst:_ _ -> ()) s)

let prop_restore_export_identity =
  Q.Test.make ~name:"restore then export is the identity (64 peers)" ~count:1000
    (Q.Gen.map restorable gen_snapshot)
    (fun s -> restore_export s = s)

(* Every option field as [None] and as [Some], [s_last_reported] over
   every mode, and the hint, each varied alone from one base snapshot. *)
let test_restore_export_fields () =
  let base = restorable (Q.Gen.generate1 ~rand:(Random.State.make [| 7 |]) gen_snapshot) in
  let variants =
    List.concat
      [ List.map
          (fun o -> { base with Dcs_hlock.Node.s_last_reported = o })
          (None :: List.map Option.some Mode.all);
        List.concat_map
          (fun o ->
            [ { base with Dcs_hlock.Node.s_parent = o }; { base with s_accounted_parent = o };
              { base with s_last_granter = o } ])
          [ None; Some 0; Some 63 ];
        List.map (fun h -> { base with Dcs_hlock.Node.s_hint = h }) [ (0, 0); (9, 63) ] ]
  in
  List.iteri
    (fun i s -> checkb (Printf.sprintf "variant %d" i) true (restore_export s = s))
    variants

(* Every payload arm, the snapshot-carrying handoff included. *)
let gen_any_envelope =
  let shard =
    Q.Gen.(
      let* bucket = int_bound 100 in
      let* version = int_bound 100 in
      oneof
        [
          return (Dcs_wire.Shard_msg.Dir_lookup { bucket });
          return (Dcs_wire.Shard_msg.Dir_update { bucket; home = 2; version });
          (let* state = array_size (int_bound 3) gen_snapshot in
           let* parked = list_size (int_bound 3) (pair (int_bound 9) (int_bound 9)) in
           return
             (Dcs_wire.Shard_msg.Handoff
                {
                  bucket;
                  version;
                  entries = [ { set = 1; bursts = 2; grants = 3; msgs = 4; state } ];
                  parked;
                }));
          return
            (Dcs_wire.Shard_msg.Round_done { shard = 1; round = version; bursts = 3; grants = 4 });
        ])
  in
  Q.Gen.(
    oneof
      [
        gen_envelope;
        map (fun m -> { Codec.src = 2; lock = 1; payload = Codec.Shard m }) shard;
      ])

(* [s] with byte [i mod length] replaced by a different value. *)
let mutate s (i, b) =
  let i = i mod String.length s in
  let old = Char.code s.[i] in
  let b = if b = old then (b + 1) land 0xff else b in
  String.mapi (fun j c -> if j = i then Char.chr b else c) s

let gen_mutation = Q.Gen.(pair (int_bound 10_000) (int_bound 255))

(* Random bytes; half of them open with the current version byte, so the
   decoders get past the first check. *)
let gen_hostile =
  Q.Gen.(
    let* body = string_size ~gen:char (int_bound 40) in
    let* versioned = bool in
    return (if versioned then String.make 1 (Char.chr Codec.version) ^ body else body))

(* [`Ok], [`Malformed], or the escaping exception rendered for the
   report. *)
let outcome f =
  match f () with
  | _ -> `Ok
  | exception Buf.Malformed _ -> `Malformed
  | exception e -> `Raised (Printexc.to_string e)

let check_envelope_decoders s =
  let len = String.length s in
  let b = Bytes.make (len + 6) '\xff' in
  Bytes.blit_string s 0 b 3 len;
  let decoded = outcome (fun () -> Codec.decode s) in
  let sub = outcome (fun () -> Codec.decode_sub b ~off:3 ~len) in
  match (decoded, sub) with
  | (`Ok | `Malformed), _ when decoded = sub -> true
  | _ -> Q.Test.fail_reportf "decode/decode_sub disagree or raise on %S" s

let check_cluster_state s =
  match outcome (fun () -> Codec.decode_cluster_state s) with
  | `Ok | `Malformed -> true
  | `Raised e -> Q.Test.fail_reportf "decode_cluster_state raised %s on %S" e s

let prop_hostile_envelope =
  Q.Test.make ~name:"random bytes: envelope decoders raise only Malformed"
    ~count:5000 gen_hostile check_envelope_decoders

let prop_mutated_envelope =
  Q.Test.make ~name:"one mutated byte: envelope decoders raise only Malformed"
    ~count:3000
    Q.Gen.(pair gen_any_envelope gen_mutation)
    (fun (env, m) -> check_envelope_decoders (mutate (Codec.encode env) m))

let prop_hostile_cluster_state =
  Q.Test.make ~name:"random bytes: decode_cluster_state raises only Malformed" ~count:5000
    Q.Gen.(string_size ~gen:char (int_bound 40))
    check_cluster_state

let prop_mutated_cluster_state =
  Q.Test.make ~name:"one mutated byte: decode_cluster_state raises only Malformed" ~count:2000
    Q.Gen.(pair (array_size (int_range 1 3) gen_snapshot) gen_mutation)
    (fun (snaps, m) -> check_cluster_state (mutate (Codec.encode_cluster_state snaps) m))

let malformed name f =
  match f () with
  | _ -> Alcotest.failf "%s: decoded" name
  | exception Buf.Malformed _ -> ()
  | exception e -> Alcotest.failf "%s: raised %s, not Malformed" name (Printexc.to_string e)

(* A varint of nine bytes: eight 0xff continuation bytes, then [last]. *)
let wide_varint last = String.make 8 '\xff' ^ String.make 1 last

(* max_int as a string length: [pos + len] overflows. *)
let test_string_length_overflow () =
  malformed "string length max_int" (fun () ->
      let r = Buf.reader ("\x01" ^ wide_varint '\x3f') in
      ignore (Buf.read_u8 r);
      Buf.read_string r)

(* A negative list count: the list reader must refuse it. *)
let test_negative_list_count () =
  malformed "read" (fun () -> Buf.read_list (Buf.reader (wide_varint '\x7f')) Buf.read_u8)

(* Cluster-state snapshot counts: negative, and max_int ahead of one valid
   snapshot (no allocation may be sized by it). *)
let test_snapshot_count () =
  malformed "negative" (fun () -> Codec.decode_cluster_state (wide_varint '\x7f'));
  let node =
    Dcs_hlock.Node.create ~id:0 ~peers:1 ~is_token:true ~parent:None ~send:(fun ~dst:_ _ -> ()) ()
  in
  let one = Codec.encode_cluster_state [| Dcs_hlock.Node.export node |] in
  let snapshot = String.sub one 1 (String.length one - 1) in
  malformed "max_int" (fun () -> Codec.decode_cluster_state (wide_varint '\x3f' ^ snapshot))

(* A frame of the previous format is refused by its version byte, not
   misread: the v7 bytes of the golden "grant" case, whose request still
   carried the token-only byte (0). *)
let test_old_version () =
  let v7 = of_hex "070b0d000103e9070301f1a204050c0092210903211528c1c4070112" in
  match Codec.decode v7 with
  | _ -> Alcotest.fail "v7 frame decoded"
  | exception Buf.Malformed msg ->
      Alcotest.check Alcotest.string "reason" "unsupported version 7" msg

(* {2 Stream frames} *)

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* A handoff whose snapshots decode cleanly but name a node outside the
   lock's 3-node population, in a field [Node.restore] used to take on
   trust. [Hlock_cluster.create ~restore] must refuse it at the restore,
   not index a missing engine at some later delivery. *)
let test_hostile_handoff_ids () =
  let module HC = Dcs_runtime.Hlock_cluster in
  let create ?restore () =
    let engine = Dcs_sim.Engine.create () in
    let net =
      Dcs_runtime.Net.create ~engine ~latency:(Dcs_sim.Dist.uniform_around 10.0)
        ~rng:(Dcs_sim.Rng.create ~seed:1L) ()
    in
    HC.create ?restore ~net ~nodes:3 ~locks:1 ()
  in
  let state = HC.export_lock (create ()) ~lock:0 in
  let queued =
    { Msg.requester = 2; seq = 0; mode = Mode.R; upgrade = false; timestamp = 1; priority = 0;
      hops = 1; hint_stamp = 0; hint_owner = 0; path = [ 2 ] }
  in
  let via_wire snaps = Codec.decode_cluster_state (Codec.encode_cluster_state snaps) in
  let hostile =
    [ ("hint-owner", 1, fun (s : Dcs_hlock.Node.snapshot) -> { s with s_hint = (0, 3) });
      ("queued requester", 0, fun s -> { s with s_queue = [ { queued with requester = 4 } ] });
      ("queued hint-owner", 0, fun s -> { s with s_queue = [ { queued with hint_owner = 5 } ] });
      ("queued path", 0, fun s -> { s with s_queue = [ { queued with path = [ 2; 3 ] } ] }) ]
  in
  List.iter
    (fun (what, node, corrupt) ->
      let snaps = Array.copy state in
      snaps.(node) <- corrupt snaps.(node);
      checkb (what ^ " refused") true
        (match create ~restore:[| via_wire snaps |] () with
        | _ -> false
        | exception Invalid_argument msg ->
            contains ~sub:"Hlock.Node.restore:" msg && contains ~sub:what msg))
    hostile;
  ignore (create ~restore:[| via_wire state |] ())

(* [f] with an output channel on a fresh temporary file, then [g] with an
   input channel on what [f] wrote. A file, not a pipe: a frame near
   [max_frame] would fill a pipe and block its writer. *)
let via_file f g =
  let path = Filename.temp_file "dcs_wire" ".frames" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path f;
  In_channel.with_open_bin path g

(* A Token whose request path holds 400,000 three-byte ids: a body of
   about 1.2 MB, over [max_frame]. The sender refuses it, naming its size
   and the limit, and writes nothing, so no peer is sent a frame it must
   reject. *)
let test_oversized_frame_refused () =
  let serving = { golden_request with path = List.init 400_000 (fun i -> 16_384 + i) } in
  let env =
    golden_hlock
      (Msg.Token
         { serving; sender_owned = None; sender_epoch = 1; queue = []; frozen = Mode_set.empty })
  in
  let size = String.length (Codec.encode env) in
  checkb "body over max_frame" true (size > Codec.max_frame);
  via_file
    (fun oc ->
      match Codec.write_frame oc env with
      | () -> Alcotest.fail "write_frame wrote an oversized frame"
      | exception Invalid_argument reason ->
          let mentions n = contains ~sub:(string_of_int n) reason in
          checkb "names the size" true (mentions size);
          checkb "names the limit" true (mentions Codec.max_frame))
    (fun ic -> checkb "nothing written" true (Codec.read_frame ic = None));
  let w = Buf.writer () in
  Codec.append_frame w (golden_hlock (Msg.Freeze { frozen = Mode_set.full }));
  let before = Buf.contents w in
  (match Codec.append_frame w env with
  | () -> Alcotest.fail "append_frame appended an oversized frame"
  | exception Invalid_argument _ -> ());
  Alcotest.check Alcotest.string "writer as it was" before (Buf.contents w)

(* A frame body of exactly [max_frame] bytes passes both ends; one byte
   more, or a header with its top bit set, is refused. *)
let test_frame_header_bounds () =
  let header n =
    Bytes.init Codec.frame_header (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff))
  in
  Alcotest.check Alcotest.int "max_frame accepted" Codec.max_frame
    (Codec.frame_length (header Codec.max_frame) ~off:0);
  malformed "max_frame + 1" (fun () -> Codec.frame_length (header (Codec.max_frame + 1)) ~off:0);
  malformed "top bit set" (fun () -> Codec.frame_length (header 0x8000_0005) ~off:0);
  (* A request whose body is exactly [max_frame]: two-byte path ids, one
     one-byte id if the parity needs it. The count stays a 3-byte varint
     either way. *)
  let request path = golden_hlock (Msg.Request { golden_request_b with path }) in
  let room = Codec.max_frame - String.length (Codec.encode (request [])) - 2 in
  let path extra =
    List.init ((room / 2) + (room mod 2) + extra) (fun i -> if i < room / 2 then 200 else 1)
  in
  let exact = request (path 0) and over = request (path 1) in
  Alcotest.check Alcotest.int "exact body" Codec.max_frame (String.length (Codec.encode exact));
  Alcotest.check Alcotest.int "over body" (Codec.max_frame + 1) (String.length (Codec.encode over));
  via_file
    (fun oc -> Codec.write_frame oc exact)
    (fun ic -> checkb "max_frame body read back" true (Codec.read_frame ic = Some exact));
  (match Codec.append_frame (Buf.writer ()) over with
  | () -> Alcotest.fail "max_frame + 1 body appended"
  | exception Invalid_argument _ -> ());
  (* The reader refuses a header before it reads any body. *)
  List.iter
    (fun (name, n) ->
      via_file
        (fun oc -> Out_channel.output_bytes oc (header n))
        (fun ic -> malformed name (fun () -> Codec.read_frame ic)))
    [ ("read max_frame + 1", Codec.max_frame + 1); ("read top bit set", 0x8000_0005) ]

let test_cluster_config () =
  (match Dcs_netkit.Cluster_config.parse ~locks:2 "0:127.0.0.1:7001,1:127.0.0.1:7002" with
  | Ok c ->
      Alcotest.check Alcotest.int "size" 2 (Dcs_netkit.Cluster_config.size c);
      Alcotest.check Alcotest.string "roundtrip" "0:127.0.0.1:7001,1:127.0.0.1:7002"
        (Dcs_netkit.Cluster_config.to_string c)
  | Error e -> Alcotest.fail e);
  checkb "sparse ids rejected" true
    (Result.is_error (Dcs_netkit.Cluster_config.parse ~locks:1 "0:h:1,2:h:2"));
  checkb "garbage rejected" true (Result.is_error (Dcs_netkit.Cluster_config.parse ~locks:1 "x"));
  checkb "no locks rejected" true
    (Result.is_error (Dcs_netkit.Cluster_config.parse ~locks:0 "0:h:1"))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "dcs_wire"
    [
      ( "codec",
        [
          qt prop_roundtrip;
          qt prop_request_roundtrip;
          qt prop_grant_roundtrip;
          qt prop_token_roundtrip;
          qt prop_release_roundtrip;
          qt prop_freeze_roundtrip;
          qt prop_restore_export_identity;
          Alcotest.test_case "restore/export every option" `Quick test_restore_export_fields;
          Alcotest.test_case "naimi roundtrip" `Quick test_naimi_roundtrip;
          qt prop_truncation_rejected;
          qt prop_every_prefix_rejected;
          qt prop_trailing_rejected;
          Alcotest.test_case "version sweep" `Quick test_version_rejected;
          Alcotest.test_case "frame via pipe" `Quick test_frame_roundtrip;
          Alcotest.test_case "oversized frame refused" `Quick test_oversized_frame_refused;
          Alcotest.test_case "frame header bounds" `Quick test_frame_header_bounds;
        ] );
      ( "flat path",
        [
          (* The fixtures are the bytes of the deleted [Buffer]-backed
             writer, hence the names. *)
          Alcotest.test_case "request flat = legacy bytes" `Quick (golden_envelopes "request");
          Alcotest.test_case "grant flat = legacy bytes" `Quick (golden_envelopes "grant");
          Alcotest.test_case "token flat = legacy bytes" `Quick (golden_envelopes "token");
          Alcotest.test_case "release flat = legacy bytes" `Quick (golden_envelopes "release");
          Alcotest.test_case "freeze flat = legacy bytes" `Quick (golden_envelopes "freeze");
          Alcotest.test_case "naimi flat = legacy bytes" `Quick (golden_envelopes "naimi");
          Alcotest.test_case "shard golden bytes" `Quick (golden_envelopes "shard");
          Alcotest.test_case "boundary golden bytes" `Quick (golden_envelopes "boundary");
          Alcotest.test_case "cluster state golden bytes" `Quick test_golden_cluster_state;
          qt prop_writer_reset_reuse;
          qt prop_decode_sub_slices;
        ] );
      ( "buf",
        [
          qt prop_varint_roundtrip;
          Alcotest.test_case "negative varint" `Quick test_varint_negative;
          qt prop_string_roundtrip;
        ] );
      ( "hostile",
        [
          Alcotest.test_case "string length overflow" `Quick test_string_length_overflow;
          Alcotest.test_case "negative list count" `Quick test_negative_list_count;
          Alcotest.test_case "snapshot count" `Quick test_snapshot_count;
          Alcotest.test_case "v7 frame refused" `Quick test_old_version;
          Alcotest.test_case "handoff ids out of range" `Quick test_hostile_handoff_ids;
          qt prop_hostile_envelope;
          qt prop_mutated_envelope;
          qt prop_hostile_cluster_state;
          qt prop_mutated_cluster_state;
        ] );
      ("config", [ Alcotest.test_case "cluster config" `Quick test_cluster_config ]);
    ]
