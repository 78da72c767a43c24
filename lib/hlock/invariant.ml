open Dcs_modes

let string_of_owned = function None -> "_" | Some m -> Mode.to_string m

(* The ids of the nodes that retain mode index [i], in array order. *)
let retaining nodes i =
  Array.to_list nodes |> List.filter (fun e -> Node.retained e i > 0) |> List.map Node.id

(* The report of incompatible retained modes of indices [i <= j], naming
   the first node that retains [i] and, against it, the first node that
   retains [j] or, for [i = j], the last. *)
let conflict ~lock nodes i j =
  let first = List.hd (retaining nodes i) and others = retaining nodes j in
  let witness = if i = j then List.nth others (List.length others - 1) else List.hd others in
  Printf.sprintf "lock %d: incompatible retained modes n%d:%s vs n%d:%s" lock first
    (Mode.to_string (Mode.of_index i))
    witness
    (Mode.to_string (Mode.of_index j))

(* The reports of every conflicting pair of retained modes from pair
   [(i, j)] on. [present] is the mask of modes some node retains and
   [multi] of those retained more than once. Nothing is built while no
   pair conflicts. *)
let rec conflicts ~lock nodes ~present ~multi i j =
  if i > 4 then []
  else if j > 4 then conflicts ~lock nodes ~present ~multi (i + 1) (i + 1)
  else if
    present land (1 lsl i) <> 0
    && (if i = j then multi else present) land (1 lsl j) <> 0
    && not (Compat.compatible (Mode.of_index i) (Mode.of_index j))
  then conflict ~lock nodes i j :: conflicts ~lock nodes ~present ~multi i (j + 1)
  else conflicts ~lock nodes ~present ~multi i (j + 1)

(* Never inlined, so its report formatting stays out of the per-event
   code of the oracle's callers. *)
let[@inline never] safety ~lock ~tokens_in_flight nodes =
  (* Compatibility is a property of modes, so tally retained instances per
     mode and test the 15 mode pairs instead of every instance pair:
     O(nodes) rather than quadratic in the copyset. The tally is two
     masks and the token and queue counts, so a clean check allocates
     nothing; witnesses are looked up only for a report. *)
  let holders = ref 0 and present = ref 0 and multi = ref 0 in
  let queued = ref 0 and waiting = ref 0 in
  for k = 0 to Array.length nodes - 1 do
    let e = nodes.(k) in
    if Node.is_token e then incr holders;
    for i = 0 to 4 do
      let n = Node.retained e i in
      if n > 0 then begin
        let bit = 1 lsl i in
        if n > 1 || !present land bit <> 0 then multi := !multi lor bit;
        present := !present lor bit
      end
    done;
    queued := !queued + List.length (Node.queue e);
    waiting := !waiting + Node.waiting e
  done;
  let tokens = !holders + tokens_in_flight in
  let token_report =
    if tokens = 1 then []
    else
      let holders =
        Array.to_list nodes |> List.filter Node.is_token |> List.map Node.id
      in
      [
        Printf.sprintf "lock %d: token multiplicity %d (holders [%s], in flight %d)" lock tokens
          (String.concat "," (List.map string_of_int holders))
          tokens_in_flight;
      ]
  in
  let queue_report =
    if !queued > !waiting then
      [
        Printf.sprintf "lock %d: %d queued requests but only %d client requests waiting" lock
          !queued !waiting;
      ]
    else []
  in
  token_report @ conflicts ~lock nodes ~present:!present ~multi:!multi 0 0 @ queue_report

let quiescent ~lock nodes =
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  Array.iter
    (fun e ->
      let id = Node.id e in
      let queued = List.length (Node.queue e) in
      if queued > 0 then add "lock %d: n%d has %d queued requests" lock id queued;
      if Node.pending e <> None then add "lock %d: n%d has a pending request" lock id;
      if Node.held e <> [] then add "lock %d: n%d still holds modes" lock id;
      (* Copyset records may persist at rest (cached copies), but each must
         match the child's actual owned mode and accounting pointer. *)
      List.iter
        (fun (c, m) ->
          let ce = nodes.(c) in
          (match Node.accounting ce with
          | Some (p, _) when p = id -> ()
          | _ -> add "lock %d: n%d records child n%d, which accounts elsewhere" lock id c);
          match Node.owned ce with
          | Some m' when Mode.equal m m' -> ()
          | o ->
              add "lock %d: n%d records n%d as %s but its owned mode is %s" lock id c
                (Mode.to_string m) (string_of_owned o))
        (Node.children e);
      (match Node.accounting e with
      | Some (p, _) ->
          if not (List.mem_assoc id (Node.children nodes.(p))) then
            add "lock %d: n%d claims accounting parent n%d, which has no record" lock id p
      | None ->
          if (not (Node.is_token e)) && Node.owned e <> None then
            add "lock %d: n%d owns %s with no accounting parent" lock id
              (string_of_owned (Node.owned e)));
      match Node.parent e with
      | Some p when p = id -> add "lock %d: n%d is its own routing parent" lock id
      | Some _ | None -> ())
    nodes;
  List.rev !out
