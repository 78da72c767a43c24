open Dcs_modes
module Rng = Dcs_sim.Rng

type kind = Acquire | Acquire_upgrade

type op = {
  at : float;
  node : int;
  lock : int;
  mode : Mode.t;
  priority : int;
  hold : float;
  kind : kind;
}

type t = { nodes : int; locks : int; ops : op list }

(* Mode mix skewed toward conflict: writers and updaters are rare in real
   hierarchies but are where Rules 6/7 live, so oversample them. *)
let draw_mode rng =
  let r = Rng.int rng ~bound:100 in
  if r < 20 then Mode.IR
  else if r < 50 then Mode.R
  else if r < 65 then Mode.U
  else if r < 80 then Mode.IW
  else Mode.W

(* The per-op draw shared by [generate] and [burst]. Every draw is its own
   [let]: OCaml leaves the evaluation order of record fields unspecified.
   The lock is drawn before the node because that is the order every
   script and corpus file recorded so far was drawn in. *)
let draw ~seed ~nodes ~locks ~ops ~draw_lock =
  let rng = Rng.create ~seed in
  let clock = ref 0.0 in
  let op _ =
    (* Bursty arrivals: a short mean inter-arrival keeps several requests
       in flight against the ~150 ms simulated latency. *)
    clock := !clock +. Rng.exponential rng ~mean:30.0;
    let mode = draw_mode rng in
    let kind = if mode = Mode.U && Rng.bool rng then Acquire_upgrade else Acquire in
    let priority = if Rng.int rng ~bound:10 = 0 then 1 + Rng.int rng ~bound:3 else 0 in
    let hold = Float.min 200.0 (Rng.exponential rng ~mean:15.0) in
    let lock = draw_lock rng in
    let node = Rng.int rng ~bound:nodes in
    { at = !clock; node; lock; mode; priority; hold; kind }
  in
  { nodes; locks; ops = List.init ops op }

let generate ?(zipf = 0.0) ~seed ~nodes ~locks ~ops () =
  if nodes < 1 || locks < 1 || ops < 0 then invalid_arg "Script.generate";
  if zipf < 0.0 || zipf >= 1.0 then invalid_arg "Script.generate: zipf must be in [0, 1)";
  let draw_lock =
    if zipf <= 0.0 then fun rng -> Rng.int rng ~bound:locks
    else
      let z = Zipf.create ~n:locks ~theta:zipf in
      fun rng -> Zipf.sample z rng
  in
  draw ~seed ~nodes ~locks ~ops ~draw_lock

let burst ~seed ~nodes ~ops =
  if nodes < 1 || ops < 0 then invalid_arg "Script.burst";
  draw ~seed ~nodes ~locks:1 ~ops ~draw_lock:(fun _ -> 0)

let last_issue t =
  List.fold_left (fun acc (o : op) -> Float.max acc o.at) 0.0 t.ops

let validate t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  if t.nodes < 1 then err "nodes < 1"
  else if t.locks < 1 then err "locks < 1"
  else
    let rec go prev = function
      | [] -> Ok ()
      | o :: rest ->
          if o.node < 0 || o.node >= t.nodes then err "op node %d out of range" o.node
          else if o.lock < 0 || o.lock >= t.locks then err "op lock %d out of range" o.lock
          else if not (Float.is_finite o.at && o.at >= 0.0) then
            err "op time %g must be finite and non-negative" o.at
          else if o.at < prev then err "ops not sorted by time at %g" o.at
          else if o.priority < 0 then err "negative priority"
          else if not (Float.is_finite o.hold && o.hold >= 0.0) then
            err "op hold %g must be finite and non-negative" o.hold
          else if o.kind = Acquire_upgrade && o.mode <> Mode.U then
            err "upgrade op with mode %s" (Mode.to_string o.mode)
          else go o.at rest
    in
    go 0.0 t.ops

let upgrade_ops t =
  List.fold_left (fun n o -> if o.kind = Acquire_upgrade then n + 1 else n) 0 t.ops

(* {1 Driver} *)

type counts = { mutable grants : int; mutable upgrades : int; mutable releases : int }

let drive ~request ~upgrade ~release ~schedule t =
  let c = { grants = 0; upgrades = 0; releases = 0 } in
  let finish o seq () =
    release o ~seq;
    c.releases <- c.releases + 1
  in
  let hold o seq =
    match o.kind with
    | Acquire -> schedule ~after:o.hold (finish o seq)
    | Acquire_upgrade ->
        schedule ~after:(o.hold /. 2.0) (fun () ->
            upgrade o ~seq ~on_upgraded:(fun () ->
                c.upgrades <- c.upgrades + 1;
                schedule ~after:(o.hold /. 2.0) (finish o seq)))
  in
  let issue o () =
    (* A grant inside the request call arrives before its seq is known: it
       is counted there and its hold starts once the call returns. *)
    let seq = ref (-1) and granted_inside = ref false in
    seq :=
      request o ~on_granted:(fun () ->
          c.grants <- c.grants + 1;
          if !seq < 0 then granted_inside := true else hold o !seq);
    if !granted_inside then hold o !seq
  in
  List.iter (fun o -> schedule ~after:o.at (issue o)) t.ops;
  c

let kind_name = function Acquire -> "acquire" | Acquire_upgrade -> "upgrade"

let kind_of_name = function
  | "acquire" -> Some Acquire
  | "upgrade" -> Some Acquire_upgrade
  | _ -> None

let op_to_line o =
  Printf.sprintf "op at=%.3f node=%d lock=%d mode=%s prio=%d hold=%.3f kind=%s"
    o.at o.node o.lock (Mode.to_string o.mode) o.priority o.hold
    (kind_name o.kind)

let op_of_line line =
  let fields = String.split_on_char ' ' (String.trim line) in
  match fields with
  | "op" :: kvs -> (
      let tbl = Hashtbl.create 8 in
      let bad = ref None in
      List.iter
        (fun kv ->
          match String.index_opt kv '=' with
          | Some i ->
              Hashtbl.replace tbl
                (String.sub kv 0 i)
                (String.sub kv (i + 1) (String.length kv - i - 1))
          | None -> if !bad = None then bad := Some kv)
        kvs;
      match !bad with
      | Some kv -> Error (Printf.sprintf "malformed op field %S" kv)
      | None -> (
          let get k = Hashtbl.find_opt tbl k in
          let int k = Option.bind (get k) int_of_string_opt in
          let flt k = Option.bind (get k) float_of_string_opt in
          match
            ( flt "at",
              int "node",
              int "lock",
              Option.bind (get "mode") Mode.of_string,
              int "prio",
              flt "hold",
              Option.bind (get "kind") kind_of_name )
          with
          | Some at, Some node, Some lock, Some mode, Some priority, Some hold, Some kind
            ->
              Ok { at; node; lock; mode; priority; hold; kind }
          | _ -> Error (Printf.sprintf "malformed op line %S" line)))
  | _ -> Error (Printf.sprintf "not an op line: %S" line)

let pp ppf t =
  Format.fprintf ppf "@[<v>script nodes=%d locks=%d ops=%d" t.nodes t.locks
    (List.length t.ops);
  List.iter (fun o -> Format.fprintf ppf "@,%s" (op_to_line o)) t.ops;
  Format.fprintf ppf "@]"
