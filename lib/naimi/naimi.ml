open Dcs_proto

type msg =
  | Request of { requester : Node_id.t; seq : int }
  | Token

let class_of = function
  | Request _ -> Msg_class.Request
  | Token -> Msg_class.Token_transfer

let pp_msg ppf = function
  | Request { requester; seq } -> Format.fprintf ppf "Request n%d#%d" requester seq
  | Token -> Format.pp_print_string ppf "Token"

type t = {
  id : Node_id.t;
  send : dst:Node_id.t -> msg -> unit;
  obs : (Dcs_obs.Event.scope -> Dcs_obs.Event.kind -> unit) option;
  mutable father : Node_id.t option;
  mutable next : Node_id.t option;
  mutable token_present : bool;
  mutable requesting : bool;
  mutable in_cs : bool;
  mutable next_seq : int;
  mutable active : int;  (* seq of our outstanding/held request; -1 if none *)
  mutable on_acquired : (unit -> unit) option;  (* the waiting client's continuation *)
}

let create ?obs ~id ~is_root ~father ~send () =
  if is_root && father <> None then invalid_arg "Naimi.create: root with a father";
  if (not is_root) && father = None then invalid_arg "Naimi.create: non-root without father";
  { id; send; obs; father; next = None; token_present = is_root;
    requesting = false; in_cs = false; next_seq = 0; active = -1; on_acquired = None }

let id t = t.id
let has_token t = t.token_present
let in_cs t = t.in_cs
let requesting t = t.requesting
let father t = t.father
let next t = t.next

(* Naimi locks are exclusive: telemetry records them as mode W. *)
let observe t ~requester ~seq kind =
  match t.obs with None -> () | Some f -> f (Dcs_obs.Event.Span { requester; seq }) kind

let request t ~on_acquired =
  if t.requesting || t.in_cs then invalid_arg "Naimi.request: already requesting or in CS";
  t.requesting <- true;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.active <- seq;
  observe t ~requester:t.id ~seq (Dcs_obs.Event.Requested { mode = Dcs_modes.Mode.W; priority = 0 });
  match t.father with
  | None ->
      (* We are the root holding an idle token: enter immediately. *)
      assert t.token_present;
      t.in_cs <- true;
      observe t ~requester:t.id ~seq
        (Dcs_obs.Event.Granted_local { mode = Dcs_modes.Mode.W; hops = 0 });
      on_acquired ()
  | Some f ->
      t.on_acquired <- Some on_acquired;
      t.send ~dst:f (Request { requester = t.id; seq });
      t.father <- None

let release t =
  if not t.in_cs then invalid_arg "Naimi.release: not in CS";
  t.in_cs <- false;
  t.requesting <- false;
  observe t ~requester:t.id ~seq:t.active (Dcs_obs.Event.Released { mode = Dcs_modes.Mode.W });
  t.active <- -1;
  match t.next with
  | Some n ->
      t.token_present <- false;
      t.next <- None;
      t.send ~dst:n Token
  | None -> ()

let handle_msg t ~src:_ msg =
  match msg with
  | Token -> (
      assert t.requesting;
      t.token_present <- true;
      t.in_cs <- true;
      observe t ~requester:t.id ~seq:t.active
        (Dcs_obs.Event.Granted_token { mode = Dcs_modes.Mode.W; hops = 0 });
      match t.on_acquired with
      | Some k ->
          t.on_acquired <- None;
          k ()
      | None -> ())
  | Request { requester; seq } -> (
      match t.father with
      | Some f ->
          observe t ~requester ~seq (Dcs_obs.Event.Forwarded { dst = f });
          t.send ~dst:f (Request { requester; seq });
          t.father <- Some requester
      | None ->
          if t.requesting || t.in_cs then begin
            (* We are the queue tail: the requester follows us. *)
            assert (t.next = None);
            observe t ~requester ~seq Dcs_obs.Event.Queued;
            t.next <- Some requester
          end
          else begin
            assert t.token_present;
            t.token_present <- false;
            t.send ~dst:requester Token
          end;
          t.father <- Some requester)
