open Dcs_modes
open Dcs_proto
open Int_only

type request = {
  requester : Node_id.t;
  seq : int;
  mode : Mode.t;
  upgrade : bool;
  timestamp : int;
  priority : int;
  hops : int;
  hint_stamp : int;
  hint_owner : Node_id.t;
  path : Node_id.t list;
}

type t =
  | Request of request
  | Grant of {
      req : request;
      epoch : int;
      recorded : Mode.t;
      frozen : Mode_set.t;
    }
  | Token of {
      serving : request;
      sender_owned : Mode.t option;
      sender_epoch : int;
      queue : request list;
      frozen : Mode_set.t;
    }
  | Release of { new_owned : Mode.t option; epoch : int }
  | Freeze of { frozen : Mode_set.t }

let class_of = function
  | Request _ -> Msg_class.Request
  | Grant _ -> Msg_class.Copy_grant
  | Token _ -> Msg_class.Token_transfer
  | Release _ -> Msg_class.Release
  | Freeze _ -> Msg_class.Freeze

let pp_request ppf r =
  Format.fprintf ppf "{n%d#%d %a%s @@%d%s}" r.requester r.seq Mode.pp r.mode
    (if r.upgrade then "^" else "")
    r.timestamp
    (if r.priority = 0 then "" else Printf.sprintf " p%d" r.priority)

let pp_owned ppf = function
  | None -> Format.pp_print_string ppf "_"
  | Some m -> Mode.pp ppf m

let pp ppf = function
  | Request r -> Format.fprintf ppf "Request %a" pp_request r
  | Grant { req; epoch; recorded; frozen } ->
      Format.fprintf ppf "Grant %a e%d rec=%a frozen=%a" pp_request req epoch Mode.pp recorded
        Mode_set.pp frozen
  | Token { serving; sender_owned; sender_epoch; queue; frozen } ->
      Format.fprintf ppf "Token serving=%a sender_owned=%a e%d |queue|=%d frozen=%a" pp_request
        serving pp_owned sender_owned sender_epoch (List.length queue) Mode_set.pp frozen
  | Release { new_owned; epoch } ->
      Format.fprintf ppf "Release new_owned=%a e%d" pp_owned new_owned epoch
  | Freeze { frozen } -> Format.fprintf ppf "Freeze %a" Mode_set.pp frozen

let request_same a b = a.requester = b.requester && a.seq = b.seq

let request_lt a b =
  a.timestamp < b.timestamp
  || (a.timestamp = b.timestamp
     && (a.requester < b.requester || (a.requester = b.requester && a.seq < b.seq)))

(* Upgrades first, then descending priority, then the [request_lt] order:
   the lexicographic order on [(upgrade?0:1, -priority, timestamp,
   requester, seq)], compared field by field so the queue hot path never
   allocates a key. *)
let service_order a b =
  if a.upgrade && not b.upgrade then -1
  else if b.upgrade && not a.upgrade then 1
  else if a.priority <> b.priority then Int.compare b.priority a.priority
  else if a.timestamp <> b.timestamp then Int.compare a.timestamp b.timestamp
  else if a.requester <> b.requester then Int.compare a.requester b.requester
  else Int.compare a.seq b.seq

let insert_by_service_order r queue =
  let rec go = function
    | [] -> [ r ]
    | head :: rest as q -> if service_order r head < 0 then r :: q else head :: go rest
  in
  go queue

(* Every queue is sorted (insertions go through [insert_by_service_order]),
   so merging equals the stable sort of the concatenation. *)
let merge_queues a b = List.merge service_order a b
