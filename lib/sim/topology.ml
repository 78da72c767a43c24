type t = {
  label : string;
  factor : int -> int -> float;
}

let uniform = { label = "uniform"; factor = (fun _ _ -> 1.0) }

let racks ~rack_size ~remote_factor =
  if rack_size < 1 then invalid_arg "Topology.racks: rack_size < 1";
  if remote_factor < 1.0 then invalid_arg "Topology.racks: remote_factor < 1";
  {
    label = Printf.sprintf "racks(%d,x%.1f)" rack_size remote_factor;
    factor = (fun src dst -> if src / rack_size = dst / rack_size then 1.0 else remote_factor);
  }

let star ~hub ~spoke_factor =
  if spoke_factor < 1.0 then invalid_arg "Topology.star: spoke_factor < 1";
  {
    label = Printf.sprintf "star(hub=%d,x%.1f)" hub spoke_factor;
    factor = (fun src dst -> if src = hub || dst = hub then 1.0 else spoke_factor);
  }

let factor t ~src ~dst = t.factor src dst

let to_string t = t.label
