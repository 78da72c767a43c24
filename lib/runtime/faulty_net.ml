type t = {
  net : Net.t;
  shim : Dcs_fault.Reliable.t option;
}

let create ~engine ~latency ?topology ?trace ~seed plan =
  let rng = Dcs_sim.Rng.create ~seed:(Int64.add seed 0x9E37L) in
  let net = Net.create ~engine ~latency ?topology ~rng ?trace () in
  (* The empty plan installs no hook, so its net is a plain [Net]. *)
  (match plan with
  | [] -> ()
  | _ ->
      let plan_rng = Dcs_sim.Rng.create ~seed:(Int64.add seed 0x0FADL) in
      Dcs_fault.Plan.install plan ~engine ~rng:plan_rng ~set_fault:(Net.set_fault net)
        ~flush:(fun () -> Net.flush_held net));
  let shim =
    if Dcs_fault.Plan.needs_shim plan then
      Some
        (Dcs_fault.Reliable.create ~engine
           ~rto:(4.0 *. Dcs_sim.Dist.mean latency)
           ~below:(Net.send net) ())
    else None
  in
  { net; shim }

let transport t = Option.map Dcs_fault.Reliable.send t.shim

let run ?until ?max_events engine =
  match Dcs_sim.Engine.run ?until ?max_events engine with
  | outcome -> Ok outcome
  | exception Failure msg -> Error ("safety: " ^ msg)

let at_rest t cluster =
  let in_flight = Net.in_flight t.net in
  cluster
  @ (match t.shim with Some s -> Dcs_fault.Reliable.quiescent_violations s | None -> [])
  @ if in_flight = 0 then [] else [ Printf.sprintf "net: %d messages still in flight" in_flight ]
