open Dcs_modes
open Dcs_proto

type kind =
  | Requested of { mode : Mode.t; priority : int }
  | Forwarded of { dst : Node_id.t }
  | Queued
  | Granted_local of { mode : Mode.t; hops : int }
  | Granted_token of { mode : Mode.t; hops : int }
  | Upgraded
  | Released of { mode : Mode.t }
  | Sent of { cls : Msg_class.t; dst : Node_id.t }
  | Received of { cls : Msg_class.t; src : Node_id.t }
  | Frozen of Mode_set.t
  | Unfrozen of Mode_set.t

type scope = Span of { requester : Node_id.t; seq : int } | Node

type t = { time : float; lock : int; node : Node_id.t; scope : scope; kind : kind }

let kind_name = function
  | Requested _ -> "requested"
  | Forwarded _ -> "forwarded"
  | Queued -> "queued"
  | Granted_local _ -> "granted-local"
  | Granted_token _ -> "granted-token"
  | Upgraded -> "upgraded"
  | Released _ -> "released"
  | Sent _ -> "sent"
  | Received _ -> "received"
  | Frozen _ -> "frozen"
  | Unfrozen _ -> "unfrozen"

let pp_kind ppf = function
  | Requested { mode; priority } ->
      Format.fprintf ppf "requested %a%s" Mode.pp mode
        (if priority = 0 then "" else Printf.sprintf " p%d" priority)
  | Forwarded { dst } -> Format.fprintf ppf "forwarded ->n%d" dst
  | Queued -> Format.pp_print_string ppf "queued"
  | Granted_local { mode; hops } -> Format.fprintf ppf "granted-local %a hops=%d" Mode.pp mode hops
  | Granted_token { mode; hops } -> Format.fprintf ppf "granted-token %a hops=%d" Mode.pp mode hops
  | Upgraded -> Format.pp_print_string ppf "upgraded"
  | Released { mode } -> Format.fprintf ppf "released %a" Mode.pp mode
  | Sent { cls; dst } -> Format.fprintf ppf "sent %s ->n%d" (Msg_class.to_string cls) dst
  | Received { cls; src } -> Format.fprintf ppf "received %s <-n%d" (Msg_class.to_string cls) src
  | Frozen s -> Format.fprintf ppf "frozen %a" Mode_set.pp s
  | Unfrozen s -> Format.fprintf ppf "unfrozen %a" Mode_set.pp s

let pp ppf t =
  match t.scope with
  | Node -> Format.fprintf ppf "[%10.3f] lock%d n%d %a" t.time t.lock t.node pp_kind t.kind
  | Span { requester; seq } ->
      Format.fprintf ppf "[%10.3f] lock%d n%d {n%d#%d} %a" t.time t.lock t.node requester seq
        pp_kind t.kind
