open Dcs_modes
module Event = Dcs_obs.Event

(* ------------------------------------------------------------------ *)
(* Trace conformance                                                   *)

type span_state = Waiting | Granted | Upgrade_waiting | Released

type span = {
  key : int * int * int;  (** lock, requester, seq *)
  mutable state : span_state;
  mutable mode : Mode.t;  (** waiting: requested mode; granted: held mode *)
  mutable wait_mode : Mode.t;  (** mode being waited for (W while upgrading) *)
  mutable priority : int;
  mutable req_idx : int;  (** trace index of the live request *)
  mutable overtakes : int;
  mutable flagged : bool;  (** overtake violation already reported *)
}

type report = {
  events : int;
  spans : int;
  grants : int;
  upgrades : int;
  releases : int;
  max_overtakes_seen : int;
  ungranted : int;
  unreleased : int;
  violations : string list;
}

let max_reported = 20

(* The overtaking bound of every conformance check (see oracle.mli). *)
let max_overtakes = 100

let conformance ?(require_complete = true) ~events () =
  let spans : (int * int * int, span) Hashtbl.t = Hashtbl.create 256 in
  (* Active (non-released) spans per lock, for concurrency checks. *)
  let active : (int, (int * int * int, span) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  let active_for lock =
    match Hashtbl.find_opt active lock with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 64 in
        Hashtbl.add active lock h;
        h
  in
  let violations = ref [] and n_violations = ref 0 in
  let violate fmt =
    Format.kasprintf
      (fun s ->
        incr n_violations;
        if !n_violations <= max_reported then violations := s :: !violations)
      fmt
  in
  let n_events = ref 0
  and n_grants = ref 0
  and n_upgrades = ref 0
  and n_releases = ref 0
  and max_ot = ref 0 in
  let span_name (l, r, s) = Printf.sprintf "lock %d node %d seq %d" l r s in
  let idx = ref 0 in
  List.iter
    (fun (e : Event.t) ->
      incr n_events;
      incr idx;
      match e.scope with
      | Event.Node -> ()
      | Event.Span { requester; seq } -> begin
        let key = (e.lock, requester, seq) in
        let sp = Hashtbl.find_opt spans key in
        match e.kind with
        | Event.Requested { mode; priority } -> (
            match sp with
            | None ->
                let sp =
                  {
                    key;
                    state = Waiting;
                    mode;
                    wait_mode = mode;
                    priority;
                    req_idx = !idx;
                    overtakes = 0;
                    flagged = false;
                  }
                in
                Hashtbl.replace spans key sp;
                Hashtbl.replace (active_for e.lock) key sp
            | Some sp when sp.state = Granted && sp.mode = Mode.U && mode = Mode.W ->
                (* Rule 7: upgrade re-opens the span as a W request. *)
                sp.state <- Upgrade_waiting;
                sp.wait_mode <- Mode.W;
                sp.req_idx <- !idx;
                sp.overtakes <- 0
            | Some _ -> violate "%s: duplicate request on open span" (span_name key))
        | Event.Granted_local { mode; _ } | Event.Granted_token { mode; _ } -> (
            incr n_grants;
            match sp with
            | None -> violate "%s: grant without a request" (span_name key)
            | Some sp when sp.state <> Waiting ->
                violate "%s: grant on a span that is not waiting (double grant?)"
                  (span_name key)
            | Some sp ->
                if mode <> sp.wait_mode then
                  violate "%s: granted %s but requested %s" (span_name key)
                    (Mode.to_string mode)
                    (Mode.to_string sp.wait_mode);
                Hashtbl.iter
                  (fun okey (o : span) ->
                    if okey <> key then begin
                      (match o.state with
                      | Granted | Upgrade_waiting ->
                          (* o holds o.mode (U while upgrading). *)
                          if not (Compat.compatible mode o.mode) then
                            violate
                              "lock %d: incompatible concurrent grants: node %d seq %d \
                               %s with node %d seq %d %s"
                              e.lock requester seq (Mode.to_string mode)
                              (let _, r, _ = okey in
                               r)
                              (let _, _, s = okey in
                               s)
                              (Mode.to_string o.mode)
                      | _ -> ());
                      (* Bounded-overtake fairness: an older waiter jumped by
                         an incompatible, non-outranking grant. *)
                      match o.state with
                      | (Waiting | Upgrade_waiting)
                        when o.req_idx < sp.req_idx
                             && (not (Compat.compatible mode o.wait_mode))
                             && sp.priority <= o.priority ->
                          o.overtakes <- o.overtakes + 1;
                          if o.overtakes > !max_ot then max_ot := o.overtakes;
                          if o.overtakes > max_overtakes && not o.flagged then begin
                            o.flagged <- true;
                            violate
                              "%s: overtaken %d times by incompatible grants (bound %d) \
                               — Rule 6 freezing is not containing newcomers"
                              (span_name okey) o.overtakes max_overtakes
                          end
                      | _ -> ()
                    end)
                  (active_for e.lock);
                sp.state <- Granted;
                sp.mode <- mode)
        | Event.Upgraded -> (
            incr n_upgrades;
            match sp with
            | Some sp when sp.state = Upgrade_waiting ->
                Hashtbl.iter
                  (fun okey (o : span) ->
                    if okey <> key then
                      match o.state with
                      | Granted | Upgrade_waiting ->
                          violate
                            "%s: upgrade completed while node %d seq %d still holds %s \
                             (Rule 7 atomicity)"
                            (span_name key)
                            (let _, r, _ = okey in
                             r)
                            (let _, _, s = okey in
                             s)
                            (Mode.to_string o.mode)
                      | _ -> ())
                  (active_for e.lock);
                sp.state <- Granted;
                sp.mode <- Mode.W;
                sp.wait_mode <- Mode.W
            | Some _ -> violate "%s: upgrade completion without a pending upgrade" (span_name key)
            | None -> violate "%s: upgrade completion on unknown span" (span_name key))
        | Event.Released { mode } -> (
            incr n_releases;
            match sp with
            | Some sp when sp.state = Granted ->
                if mode <> sp.mode then
                  violate "%s: released %s but held %s" (span_name key)
                    (Mode.to_string mode) (Mode.to_string sp.mode);
                sp.state <- Released;
                Hashtbl.remove (active_for e.lock) key
            | Some _ -> violate "%s: release of a span that is not granted" (span_name key)
            | None -> violate "%s: release without a request" (span_name key))
        | Event.Forwarded _ | Event.Queued | Event.Sent _ | Event.Received _ -> ()
        | Event.Frozen _ | Event.Unfrozen _ -> ()
      end)
    events;
  let ungranted = ref 0 and unreleased = ref 0 in
  Hashtbl.iter
    (fun key (sp : span) ->
      match sp.state with
      | Waiting | Upgrade_waiting ->
          incr ungranted;
          if require_complete then
            violate "%s: never granted (waiting for %s at end of trace)" (span_name key)
              (Mode.to_string sp.wait_mode)
      | Granted ->
          incr unreleased;
          if require_complete then
            violate "%s: granted %s but never released" (span_name key)
              (Mode.to_string sp.mode)
      | Released -> ())
    spans;
  if !n_violations > max_reported then
    violations :=
      Printf.sprintf "… and %d more violations" (!n_violations - max_reported)
      :: !violations;
  {
    events = !n_events;
    spans = Hashtbl.length spans;
    grants = !n_grants;
    upgrades = !n_upgrades;
    releases = !n_releases;
    max_overtakes_seen = !max_ot;
    ungranted = !ungranted;
    unreleased = !unreleased;
    violations = List.rev !violations;
  }
