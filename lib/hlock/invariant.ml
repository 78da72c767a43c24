open Dcs_modes

let string_of_owned = function None -> "_" | Some m -> Mode.to_string m

let safety ~lock ~tokens_in_flight nodes =
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let holders =
    Array.fold_right (fun e acc -> if Node.is_token e then Node.id e :: acc else acc) nodes []
  in
  let tokens = List.length holders + tokens_in_flight in
  if tokens <> 1 then
    add "lock %d: token multiplicity %d (holders [%s], in flight %d)" lock tokens
      (String.concat "," (List.map string_of_int holders))
      tokens_in_flight;
  (* Compatibility is a property of modes, so tally retained instances per
     mode and test the 15 mode pairs instead of every instance pair:
     O(nodes) rather than quadratic in the copyset. [first]/[last] keep a
     witness node for the report. *)
  let count = Array.make 5 0 and first = Array.make 5 0 and last = Array.make 5 0 in
  let retain id m =
    let i = Mode.index m in
    if count.(i) = 0 then first.(i) <- id;
    last.(i) <- id;
    count.(i) <- count.(i) + 1
  in
  let queued = ref 0 and waiting = ref 0 in
  Array.iter
    (fun e ->
      let id = Node.id e in
      List.iter (fun (_, m) -> retain id m) (Node.held e);
      List.iter (retain id) (Node.cached e);
      queued := !queued + List.length (Node.queue e);
      waiting := !waiting + Node.waiting e)
    nodes;
  for i = 0 to 4 do
    if count.(i) > 0 then
      for j = i to 4 do
        let a = Mode.of_index i and b = Mode.of_index j in
        if count.(j) > (if i = j then 1 else 0) && not (Compat.compatible a b) then
          add "lock %d: incompatible retained modes n%d:%s vs n%d:%s" lock first.(i)
            (Mode.to_string a)
            (if i = j then last.(j) else first.(j))
            (Mode.to_string b)
      done
  done;
  if !queued > !waiting then
    add "lock %d: %d queued requests but only %d client requests waiting" lock !queued !waiting;
  List.rev !out

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
