open Dcs_modes
open Dcs_proto

type shard = {
  path : string;
  meta : (string * string) list;
  node : int;
  events : Event.t list;
  gauges : (float * string * float) list;
  metrics : (float * string * [ `Counter | `Gauge ] * float) list;
  msgs : (Msg_class.t * (int * int)) list;
  counters : (Msg_class.t * int) list option;
  truncated : bool;
}

(* ---------- loading ---------- *)

let read_lines path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let rec go acc =
        match input_line ic with exception End_of_file -> List.rev acc | l -> go (l :: acc)
      in
      Ok (go [])

let ( let* ) = Result.bind

(* A shard from a killed process legitimately ends mid-line; a parse
   failure anywhere else is corruption and stays a hard error. *)
let load_shard path =
  let* raws = read_lines path in
  let numbered = List.mapi (fun i l -> (i + 1, l)) raws |> List.filter (fun (_, l) -> l <> "") in
  let rec parse acc = function
    | [] -> Ok (List.rev acc, false)
    | [ (_, raw) ] -> (
        match Jsonl.parse_line raw with
        | Ok l -> Ok (List.rev (l :: acc), false)
        | Error _ -> Ok (List.rev acc, true))
    | (i, raw) :: rest -> (
        match Jsonl.parse_line raw with
        | Ok l -> parse (l :: acc) rest
        | Error msg -> Error (Printf.sprintf "line %d: %s" i msg))
  in
  let* lines, truncated = parse [] numbered in
  let* meta, rest =
    match lines with
    | Jsonl.Meta meta :: rest -> Ok (meta, rest)
    | _ -> Error "first line is not a meta line"
  in
  let* () =
    match List.assoc_opt "schema" meta with
    | Some s when s = Jsonl.schema -> Ok ()
    | got ->
        Error
          (Printf.sprintf "schema mismatch (want %S, got %S)" Jsonl.schema
             (Option.value ~default:"<none>" got))
  in
  let* node =
    match List.assoc_opt "node" meta with
    | None -> Ok (-1)
    | Some v -> (
        match int_of_string_opt v with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "meta \"node\": expected an integer, got %S" v))
  in
  let events = ref [] and gauges = ref [] and metrics = ref [] and msgs = ref [] in
  let counters = ref None in
  List.iter
    (function
      | Jsonl.Meta _ -> ()
      | Ev e -> events := e :: !events
      | Gauge { time; name; value } -> gauges := (time, name, value) :: !gauges
      | Metric { time; name; mkind; value } -> metrics := (time, name, mkind, value) :: !metrics
      | Msgs { cls; count; bytes } -> msgs := (cls, (count, bytes)) :: !msgs
      | Counters cs -> counters := Some cs)
    rest;
  Ok
    {
      path;
      meta;
      node;
      events = List.rev !events;
      gauges = List.rev !gauges;
      metrics = List.rev !metrics;
      msgs = List.rev !msgs;
      counters = !counters;
      truncated;
    }

let load paths =
  let rec go shards warnings = function
    | [] -> Ok (List.rev shards, List.rev warnings)
    | path :: rest -> (
        match load_shard path with
        | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
        | Ok s ->
            let warnings =
              if s.truncated then
                Printf.sprintf "%s: truncated final line dropped (partial shard)" path :: warnings
              else warnings
            in
            go (s :: shards) warnings rest)
  in
  go [] [] paths

(* ---------- clock alignment ---------- *)

(* Minimum apparent one-way delay per directed node pair, from matched
   Sent/Received pairs. Matching key: the span id plus message class plus
   the (src, dst) pair plus a per-key occurrence index (k-th send of a key
   matches the k-th receive), so retransmitted-looking traffic cannot
   cross-pair. *)
let edge_delays shards =
  let occ = Hashtbl.create 64 in
  let next key =
    let n = Option.value ~default:0 (Hashtbl.find_opt occ key) in
    Hashtbl.replace occ key (n + 1);
    n
  in
  let sends = Hashtbl.create 256 and recvs = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.node >= 0 then
        List.iter
          (fun (e : Event.t) ->
            match (e.scope, e.kind) with
            | Span { requester; seq }, Sent { cls; dst } ->
                let base = (e.lock, requester, seq, cls, s.node, dst) in
                Hashtbl.replace sends (base, next (`S, base)) e.time
            | Span { requester; seq }, Received { cls; src } ->
                let base = (e.lock, requester, seq, cls, src, s.node) in
                Hashtbl.replace recvs (base, next (`R, base)) e.time
            | _ -> ())
          s.events)
    shards;
  let delays = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (((_, _, _, _, src, dst) as base), k) t_send ->
      match Hashtbl.find_opt recvs (base, k) with
      | None -> ()
      | Some t_recv ->
          let d = t_recv -. t_send in
          let edge = (src, dst) in
          let cur = Hashtbl.find_opt delays edge in
          if cur = None || d < Option.get cur then Hashtbl.replace delays edge d)
    sends;
  delays

let align shards =
  let nodes =
    List.filter_map (fun s -> if s.node >= 0 then Some s.node else None) shards
    |> List.sort_uniq compare
  in
  let delays = edge_delays shards in
  (* rel a b = skew(b) - skew(a): with both directions measured, symmetric
     minimum delay cancels ((d_ab - d_ba) / 2); one-sided, assume the
     minimum observed delay is all skew (biased by the true min delay,
     which TCP on one host keeps well under a millisecond). *)
  let rel a b =
    match (Hashtbl.find_opt delays (a, b), Hashtbl.find_opt delays (b, a)) with
    | Some d_ab, Some d_ba -> Some ((d_ab -. d_ba) /. 2.0)
    | Some d_ab, None -> Some d_ab
    | None, Some d_ba -> Some (-.d_ba)
    | None, None -> None
  in
  let offsets = Hashtbl.create 8 in
  List.iter
    (fun root ->
      if not (Hashtbl.mem offsets root) then begin
        Hashtbl.replace offsets root 0.0;
        let q = Queue.create () in
        Queue.push root q;
        while not (Queue.is_empty q) do
          let a = Queue.pop q in
          let oa = Hashtbl.find offsets a in
          List.iter
            (fun b ->
              if not (Hashtbl.mem offsets b) then
                match rel a b with
                | Some r ->
                    Hashtbl.replace offsets b (oa +. r);
                    Queue.push b q
                | None -> ())
            nodes
        done
      end)
    nodes;
  List.map (fun n -> (n, Option.value ~default:0.0 (Hashtbl.find_opt offsets n))) nodes

let merged_events ?(offsets = []) shards =
  let all =
    List.concat_map
      (fun s ->
        let off = Option.value ~default:0.0 (List.assoc_opt s.node offsets) in
        if off = 0.0 then s.events
        else List.map (fun (e : Event.t) -> { e with time = e.time -. off }) s.events)
      shards
  in
  List.stable_sort (fun (a : Event.t) (b : Event.t) -> compare a.time b.time) all

(* ---------- critical paths ---------- *)

type breakdown = {
  b_lock : int;
  b_requester : int;
  b_seq : int;
  b_mode : Mode.t;
  b_kind : [ `Local | `Token | `Upgrade ];
  b_hops : int;
  b_start : float;
  b_finish : float;
  b_local_ms : float;
  b_queue_ms : float;
  b_freeze_ms : float;
  b_net_ms : float;
  b_token_ms : float;
  b_events : Event.t list;
}

let total_wait b = b.b_local_ms +. b.b_queue_ms +. b.b_freeze_ms +. b.b_net_ms +. b.b_token_ms

(* Per (lock, node): the [start, stop) intervals during which its frozen
   set was non-empty; an unclosed episode extends to infinity. *)
let freeze_episodes events =
  let open_at = Hashtbl.create 8 and sets = Hashtbl.create 8 and acc = Hashtbl.create 8 in
  let push key iv = Hashtbl.replace acc key (iv :: Option.value ~default:[] (Hashtbl.find_opt acc key)) in
  List.iter
    (fun (e : Event.t) ->
      match e.kind with
      | Frozen s | Unfrozen s ->
          let key = (e.lock, e.node) in
          let cur = Option.value ~default:Mode_set.empty (Hashtbl.find_opt sets key) in
          let next =
            match e.kind with
            | Frozen _ -> Mode_set.union cur s
            | _ -> Mode_set.diff cur s
          in
          Hashtbl.replace sets key next;
          let was = not (Mode_set.is_empty cur) and is = not (Mode_set.is_empty next) in
          if (not was) && is then Hashtbl.replace open_at key e.time
          else if was && not is then (
            (match Hashtbl.find_opt open_at key with
            | Some t0 -> push key (t0, e.time)
            | None -> ());
            Hashtbl.remove open_at key)
      | _ -> ())
    events;
  Hashtbl.iter (fun key t0 -> push key (t0, infinity)) open_at;
  acc

let overlap intervals t0 t1 =
  List.fold_left
    (fun acc (a, b) -> acc +. Float.max 0.0 (Float.min t1 b -. Float.max t0 a))
    0.0 intervals

(* Walk a span's events (merged, time-ordered) from Requested to the next
   grant, charging each inter-event gap to one bucket:
   - cross-node gap ending in a token-transfer arrival (or a sim-trace
     Granted_token, which has no transport events) -> token
   - any other cross-node gap -> net
   - same-node gap out of Queued -> queue, minus the portion overlapping
     that (lock, node)'s frozen episodes -> freeze
   - any other same-node gap -> local *)
let classify ~freezes segment =
  let local = ref 0.0 and queue = ref 0.0 and freeze = ref 0.0 and net = ref 0.0 and token = ref 0.0 in
  let rec walk = function
    | (a : Event.t) :: ((b : Event.t) :: _ as rest) ->
        let dt = Float.max 0.0 (b.time -. a.time) in
        (if a.node <> b.node then
           match b.kind with
           | Received { cls = Msg_class.Token_transfer; _ } | Granted_token _ ->
               token := !token +. dt
           | _ -> net := !net +. dt
         else
           match a.kind with
           | Queued ->
               let ivs = Option.value ~default:[] (Hashtbl.find_opt freezes (a.lock, a.node)) in
               let fz = Float.min dt (overlap ivs a.time b.time) in
               freeze := !freeze +. fz;
               queue := !queue +. (dt -. fz)
           | _ -> local := !local +. dt);
        walk rest
    | _ -> ()
  in
  walk segment;
  (!local, !queue, !freeze, !net, !token)

let critical_paths events =
  let freezes = freeze_episodes events in
  let spans = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun (e : Event.t) ->
      match e.scope with
      | Node -> ()
      | Span { requester; seq } ->
          let key = (e.lock, requester, seq) in
          (match Hashtbl.find_opt spans key with
          | None ->
              order := key :: !order;
              Hashtbl.replace spans key [ e ]
          | Some es -> Hashtbl.replace spans key (e :: es)))
    events;
  let breakdowns = ref [] and incomplete = ref 0 in
  List.iter
    (fun ((lock, requester, seq) as key) ->
      let es = List.rev (Hashtbl.find spans key) in
      (* One breakdown per Requested..grant segment; an upgrade on the same
         span id yields a second segment. *)
      let rec scan = function
        | [] -> ()
        | (e : Event.t) :: rest when (match e.kind with Event.Requested _ -> true | _ -> false) ->
            let rec take acc = function
              | [] -> (None, List.rev acc, [])
              | (g : Event.t) :: tl -> (
                  match g.kind with
                  | Event.Granted_local { mode; hops } ->
                      (Some (`Local, mode, hops, g), List.rev (g :: acc), tl)
                  | Granted_token { mode; hops } ->
                      (Some (`Token, mode, hops, g), List.rev (g :: acc), tl)
                  | Upgraded -> (Some (`Upgrade, Mode.W, 0, g), List.rev (g :: acc), tl)
                  | Requested _ -> (None, List.rev acc, g :: tl)
                  | _ -> take (g :: acc) tl)
            in
            let grant, segment, rest' = take [ e ] rest in
            (match grant with
            | None -> incr incomplete
            | Some (b_kind, b_mode, b_hops, g) ->
                let local, queue, freeze, net, token = classify ~freezes segment in
                breakdowns :=
                  {
                    b_lock = lock;
                    b_requester = requester;
                    b_seq = seq;
                    b_mode;
                    b_kind;
                    b_hops;
                    b_start = e.time;
                    b_finish = g.time;
                    b_local_ms = local;
                    b_queue_ms = queue;
                    b_freeze_ms = freeze;
                    b_net_ms = net;
                    b_token_ms = token;
                    b_events = segment;
                  }
                  :: !breakdowns);
            scan rest'
        | _ :: rest -> scan rest
      in
      scan es)
    (List.rev !order);
  (List.rev !breakdowns, !incomplete)

(* ---------- cross-shard totals ---------- *)

let summed_msgs shards =
  List.map
    (fun cls ->
      let count, bytes =
        List.fold_left
          (fun (c, b) s ->
            match List.assoc_opt cls s.msgs with
            | Some (c', b') -> (c + c', b + b')
            | None -> (c, b))
          (0, 0) shards
      in
      (cls, (count, bytes)))
    Msg_class.all

let summed_counters shards =
  if List.for_all (fun s -> s.counters = None) shards then None
  else
    Some
      (List.map
         (fun cls ->
           ( cls,
             List.fold_left
               (fun acc s ->
                 match s.counters with
                 | Some cs -> acc + Option.value ~default:0 (List.assoc_opt cls cs)
                 | None -> acc)
               0 shards ))
         Msg_class.all)

(* Counters in a shard's metric stream are cumulative: the last snapshot
   per name is the shard's total; summing those across shards gives the
   cluster total. *)
let metric_totals shards =
  let totals = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let last = Hashtbl.create 32 in
      List.iter (fun (_, name, _, value) -> Hashtbl.replace last name value) s.metrics;
      Hashtbl.iter
        (fun name value ->
          Hashtbl.replace totals name (value +. Option.value ~default:0.0 (Hashtbl.find_opt totals name)))
        last)
    shards;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) totals []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
