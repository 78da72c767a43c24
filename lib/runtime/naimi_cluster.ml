module Naimi = Dcs_naimi.Naimi

type lock_state = {
  lock : int;
  oracle : bool;
  mutable engines : Naimi.t array;
  mutable tokens_in_flight : int;
}

type t = {
  net : Net.t;
  n : int;
  l : int;
  locks_arr : lock_state array;
}

let safety_violations ls =
  let lock = ls.lock in
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let in_cs = ref [] and holders = ref 0 in
  Array.iter
    (fun e ->
      if Naimi.in_cs e then in_cs := Naimi.id e :: !in_cs;
      if Naimi.has_token e then incr holders)
    ls.engines;
  if List.length !in_cs > 1 then
    add "lock %d: mutual exclusion violated, in CS: [%s]" lock
      (String.concat "," (List.map string_of_int !in_cs));
  let tokens = !holders + ls.tokens_in_flight in
  if tokens <> 1 then add "lock %d: token multiplicity %d" lock tokens;
  List.rev !violations

let quiescent_violations t =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  for lock = 0 to t.l - 1 do
    let ls = t.locks_arr.(lock) in
    (match safety_violations ls with [] -> () | vs -> List.iter (add "%s") vs);
    Array.iter
      (fun e ->
        if Naimi.requesting e then add "lock %d: n%d still requesting" lock (Naimi.id e);
        if Naimi.in_cs e then add "lock %d: n%d still in CS" lock (Naimi.id e);
        if Naimi.next e <> None then add "lock %d: n%d has a dangling next" lock (Naimi.id e))
      ls.engines
  done;
  List.rev !violations

(* The receiving end of one lock's messages, closed over nothing: the
   lock's port carries [ls] as data. *)
let deliver ls src dst msg =
  (match msg with
  | Naimi.Token -> ls.tokens_in_flight <- ls.tokens_in_flight - 1
  | Naimi.Request _ -> ());
  Naimi.handle_msg ls.engines.(dst) ~src msg;
  if ls.oracle then
    match safety_violations ls with
    | [] -> ()
    | vs -> failwith (String.concat "; " vs)

let create ?(oracle = false) ?obs ~net ~nodes:n ~locks:l () =
  if n < 1 then invalid_arg "Naimi_cluster.create: need at least one node";
  let t =
    {
      net;
      n;
      l;
      locks_arr =
        Array.init l (fun lock -> { lock; oracle; engines = [||]; tokens_in_flight = 0 });
    }
  in
  (* A traced send sizes its message by encoding it into one writer reused
     for every send of the cluster. *)
  let traced = Option.map (fun r -> (r, Dcs_wire.Buf.writer ())) obs in
  for lock = 0 to l - 1 do
    let ls = t.locks_arr.(lock) in
    let port =
      Net.port ~env:ls ~deliver ~describe:(fun msg ->
          Format.asprintf "lock%d %a" lock Naimi.pp_msg msg)
    in
    let engines =
      Array.init n (fun id ->
          let send ~dst msg =
            (match traced with
            | None -> ()
            | Some (r, w) ->
                Dcs_wire.Buf.reset w;
                Dcs_wire.Codec.write_envelope w { src = id; lock; payload = Naimi msg };
                Dcs_obs.Recorder.message r ~cls:(Naimi.class_of msg) ~bytes:(Dcs_wire.Buf.length w));
            (match msg with
            | Naimi.Token -> ls.tokens_in_flight <- ls.tokens_in_flight + 1
            | Naimi.Request _ -> ());
            Net.post net port ~src:id ~dst ~cls:(Naimi.class_of msg) msg
          in
          let node_obs =
            match obs with
            | None -> None
            | Some r ->
                Some (fun scope kind -> Dcs_obs.Recorder.record r ~time:(Net.now net) ~lock ~node:id scope kind)
          in
          Naimi.create ?obs:node_obs ~id ~is_root:(id = 0)
            ~father:(if id = 0 then None else Some 0)
            ~send ())
    in
    ls.engines <- engines
  done;
  t

let request t ~node ~lock ~on_acquired = Naimi.request t.locks_arr.(lock).engines.(node) ~on_acquired

let release t ~node ~lock =
  let ls = t.locks_arr.(lock) in
  Naimi.release ls.engines.(node)
