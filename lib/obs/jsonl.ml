open Dcs_modes
open Dcs_proto

let schema = "dcs-obs/2"

(* ---------- writing ---------- *)

let esc s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let set_to_string s = String.concat "+" (List.map Mode.to_string (Mode_set.to_list s))

(* (name, mode, integer payload, mode set, message class) — the flat
   projection of Event.kind that the fixed "ev" field layout carries. *)
let kind_fields = function
  | Event.Requested { mode; priority } -> ("requested", Mode.to_string mode, priority, "", "")
  | Forwarded { dst } -> ("forwarded", "", dst, "", "")
  | Queued -> ("queued", "", 0, "", "")
  | Granted_local { mode; hops } -> ("granted-local", Mode.to_string mode, hops, "", "")
  | Granted_token { mode; hops } -> ("granted-token", Mode.to_string mode, hops, "", "")
  | Upgraded -> ("upgraded", "", 0, "", "")
  | Released { mode } -> ("released", Mode.to_string mode, 0, "", "")
  | Sent { cls; dst } -> ("sent", "", dst, "", Msg_class.to_string cls)
  | Received { cls; src } -> ("received", "", src, "", Msg_class.to_string cls)
  | Frozen s -> ("frozen", "", 0, set_to_string s, "")
  | Unfrozen s -> ("unfrozen", "", 0, set_to_string s, "")

let output_meta oc meta =
  Printf.fprintf oc "{\"k\":\"meta\",\"schema\":\"%s\"" schema;
  List.iter (fun (k, v) -> Printf.fprintf oc ",\"%s\":\"%s\"" (esc k) (esc v)) meta;
  output_string oc "}\n"

let output_event oc (e : Event.t) =
  let name, mode, arg, set, cls = kind_fields e.kind in
  Printf.fprintf oc "{\"k\":\"ev\",\"t\":%.6f,\"lock\":%d,\"node\":%d" e.time e.lock e.node;
  (match e.scope with
  | Span { requester; seq } ->
      Printf.fprintf oc ",\"scope\":\"span\",\"req\":%d,\"seq\":%d" requester seq
  | Node -> output_string oc ",\"scope\":\"node\"");
  Printf.fprintf oc ",\"ev\":\"%s\",\"mode\":\"%s\",\"arg\":%d,\"set\":\"%s\"" name mode arg set;
  if cls <> "" then Printf.fprintf oc ",\"cls\":\"%s\"" cls;
  output_string oc "}\n"

let output_gauge oc ~time ~name ~value =
  Printf.fprintf oc "{\"k\":\"gauge\",\"t\":%.6f,\"name\":\"%s\",\"value\":%.6g}\n" time (esc name)
    value

let output_metric oc ~time ~name ~mkind ~value =
  Printf.fprintf oc "{\"k\":\"metric\",\"t\":%.6f,\"name\":\"%s\",\"mkind\":\"%s\",\"value\":%.6g}\n"
    time (esc name)
    (match mkind with `Counter -> "counter" | `Gauge -> "gauge")
    value

let output_msgs oc ~counts ~bytes =
  List.iter
    (fun (cls, count) ->
      Printf.fprintf oc "{\"k\":\"msgs\",\"cls\":\"%s\",\"count\":%d,\"bytes\":%d}\n"
        (Msg_class.to_string cls) count
        (List.assoc cls bytes))
    counts

let output_counters oc cs =
  output_string oc "{\"k\":\"counters\"";
  List.iter (fun (c, n) -> Printf.fprintf oc ",\"%s\":%d" (Msg_class.to_string c) n) cs;
  output_string oc "}\n"

(* ---------- parsing ---------- *)

type line =
  | Meta of (string * string) list
  | Ev of Event.t
  | Gauge of { time : float; name : string; value : float }
  | Metric of { time : float; name : string; mkind : [ `Counter | `Gauge ]; value : float }
  | Msgs of { cls : Msg_class.t; count : int; bytes : int }
  | Counters of (Msg_class.t * int) list

exception Bad of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

type jvalue = S of string | F of float

(* Minimal flat-JSON-object reader: one level, string or number values. *)
let parse_obj s =
  let n = String.length s in
  let pos = ref 0 in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let expect c =
    skip_ws ();
    if peek () = Some c then incr pos else bad "expected '%c' at offset %d" c !pos
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then bad "unterminated string";
      let c = s.[!pos] in
      incr pos;
      if c = '"' then Buffer.contents b
      else if c = '\\' then (
        if !pos >= n then bad "truncated escape";
        let e = s.[!pos] in
        incr pos;
        Buffer.add_char b
          (match e with
          | '"' -> '"'
          | '\\' -> '\\'
          | '/' -> '/'
          | 'n' -> '\n'
          | 't' -> '\t'
          | _ -> bad "unsupported escape '\\%c'" e);
        go ())
      else (
        Buffer.add_char b c;
        go ())
    in
    go ()
  in
  let parse_number () =
    skip_ws ();
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    if !pos = start then bad "expected value at offset %d" !pos;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> bad "malformed number at offset %d" start
  in
  expect '{';
  let fields = ref [] in
  skip_ws ();
  (if peek () = Some '}' then incr pos
   else
     let rec loop () =
       skip_ws ();
       let key = parse_string () in
       expect ':';
       skip_ws ();
       let v = if peek () = Some '"' then S (parse_string ()) else F (parse_number ()) in
       fields := (key, v) :: !fields;
       skip_ws ();
       match peek () with
       | Some ',' ->
           incr pos;
           loop ()
       | Some '}' -> incr pos
       | _ -> bad "expected ',' or '}' at offset %d" !pos
     in
     loop ());
  skip_ws ();
  if !pos <> n then bad "trailing characters at offset %d" !pos;
  List.rev !fields

let sget fields k =
  match List.assoc_opt k fields with
  | Some (S s) -> s
  | Some (F _) -> bad "field %S: expected a string" k
  | None -> bad "missing field %S" k

let nget fields k =
  match List.assoc_opt k fields with
  | Some (F f) -> f
  | Some (S _) -> bad "field %S: expected a number" k
  | None -> bad "missing field %S" k

(* Integral and within the native int range; anything else would be
   silently truncated by [int_of_float]. *)
let to_int k f =
  if Float.is_integer f && Float.abs f < 0x1p62 then int_of_float f
  else bad "field %S: expected an integer" k

let iget fields k = to_int k (nget fields k)

let mode_of fields =
  let s = sget fields "mode" in
  match Mode.of_string s with Some m -> m | None -> bad "unknown mode %S" s

let set_of fields =
  match sget fields "set" with
  | "" -> Mode_set.empty
  | s ->
      String.split_on_char '+' s
      |> List.map (fun w ->
             match Mode.of_string w with Some m -> m | None -> bad "unknown mode %S in set" w)
      |> Mode_set.of_list

let cls_of_string s =
  match List.find_opt (fun c -> Msg_class.to_string c = s) Msg_class.all with
  | Some c -> c
  | None -> bad "unknown message class %S" s

let scope_of fields =
  match sget fields "scope" with
  | "span" -> Event.Span { requester = iget fields "req"; seq = iget fields "seq" }
  | "node" -> Event.Node
  | other -> bad "unknown scope %S" other

let typed fields =
  match sget fields "k" with
  | "meta" ->
      Meta
        (List.filter_map
           (fun (k, v) ->
             if k = "k" then None
             else Some (k, match v with S s -> s | F f -> Printf.sprintf "%g" f))
           fields)
  | "ev" ->
      let kind =
        match sget fields "ev" with
        | "requested" -> Event.Requested { mode = mode_of fields; priority = iget fields "arg" }
        | "forwarded" -> Forwarded { dst = iget fields "arg" }
        | "queued" -> Queued
        | "granted-local" -> Granted_local { mode = mode_of fields; hops = iget fields "arg" }
        | "granted-token" -> Granted_token { mode = mode_of fields; hops = iget fields "arg" }
        | "upgraded" -> Upgraded
        | "released" -> Released { mode = mode_of fields }
        | "sent" -> Sent { cls = cls_of_string (sget fields "cls"); dst = iget fields "arg" }
        | "received" -> Received { cls = cls_of_string (sget fields "cls"); src = iget fields "arg" }
        | "frozen" -> Frozen (set_of fields)
        | "unfrozen" -> Unfrozen (set_of fields)
        | other -> bad "unknown event kind %S" other
      in
      Ev
        {
          time = nget fields "t";
          lock = iget fields "lock";
          node = iget fields "node";
          scope = scope_of fields;
          kind;
        }
  | "gauge" ->
      Gauge { time = nget fields "t"; name = sget fields "name"; value = nget fields "value" }
  | "metric" ->
      let mkind =
        match sget fields "mkind" with
        | "counter" -> `Counter
        | "gauge" -> `Gauge
        | other -> bad "unknown metric kind %S" other
      in
      Metric { time = nget fields "t"; name = sget fields "name"; mkind; value = nget fields "value" }
  | "msgs" ->
      Msgs { cls = cls_of_string (sget fields "cls"); count = iget fields "count"; bytes = iget fields "bytes" }
  | "counters" ->
      Counters
        (List.filter_map
           (fun (k, v) ->
             if k = "k" then None
             else
               match v with
               | F f -> Some (cls_of_string k, to_int k f)
               | S _ -> bad "counters field %S: expected a number" k)
           fields)
  | other -> bad "unknown line kind %S" other

let parse_line s = match typed (parse_obj s) with v -> Ok v | exception Bad msg -> Error msg
