type t = { recorder : Dcs_obs.Recorder.t; net : Net.t }

let attach ~net = Option.map (fun recorder -> { recorder; net })

let message t ~src ~lock ~cls payload =
  Dcs_obs.Recorder.message t.recorder ~cls
    ~bytes:(String.length (Dcs_wire.Codec.encode { Dcs_wire.Codec.src; lock; payload }))

let node_hook t ~lock ~node =
  match t with
  | None -> None
  | Some t ->
      Some
        (fun scope kind ->
          Dcs_obs.Recorder.record t.recorder ~time:(Net.now t.net) ~lock ~node scope kind)
