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
