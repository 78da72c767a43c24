(* A variant rather than a record of closures: [factor] runs on every
   simulated message, and a match on immediates costs no closure call
   and returns no boxed float. *)
type t =
  | Uniform
  | Racks of { rack_size : int; remote_factor : float }
  | Star of { hub : int; spoke_factor : float }

let uniform = Uniform

let racks ~rack_size ~remote_factor =
  if rack_size < 1 then invalid_arg "Topology.racks: rack_size < 1";
  if remote_factor < 1.0 then invalid_arg "Topology.racks: remote_factor < 1";
  Racks { rack_size; remote_factor }

let star ~hub ~spoke_factor =
  if spoke_factor < 1.0 then invalid_arg "Topology.star: spoke_factor < 1";
  Star { hub; spoke_factor }

let factor t ~src ~dst =
  match t with
  | Uniform -> 1.0
  | Racks { rack_size; remote_factor } ->
      if src / rack_size = dst / rack_size then 1.0 else remote_factor
  | Star { hub; spoke_factor } -> if src = hub || dst = hub then 1.0 else spoke_factor

let to_string = function
  | Uniform -> "uniform"
  | Racks { rack_size; remote_factor } -> Printf.sprintf "racks(%d,x%.1f)" rack_size remote_factor
  | Star { hub; spoke_factor } -> Printf.sprintf "star(hub=%d,x%.1f)" hub spoke_factor
