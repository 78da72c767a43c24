type t =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float }
  | Shifted_exponential of { min : float; mean : float }

let sample d rng =
  let v =
    match d with
    | Constant c -> c
    | Uniform { lo; hi } -> Rng.uniform rng ~lo ~hi
    | Exponential { mean } -> Rng.exponential rng ~mean
    | Shifted_exponential { min; mean } -> min +. Rng.exponential rng ~mean:(mean -. min)
  in
  if v < 0.0 then 0.0 else v

let mean = function
  | Constant c -> c
  | Uniform { lo; hi } -> (lo +. hi) /. 2.0
  | Exponential { mean } -> mean
  | Shifted_exponential { mean; _ } -> mean

let uniform_around m = Uniform { lo = 0.5 *. m; hi = 1.5 *. m }

let of_string s =
  let fail () = Error (Printf.sprintf "Dist.of_string: cannot parse %S" s) in
  match String.split_on_char ':' s with
  | [ "const"; c ] -> (
      match float_of_string_opt c with Some c -> Ok (Constant c) | None -> fail ())
  | [ "uniform"; lo; hi ] -> (
      match (float_of_string_opt lo, float_of_string_opt hi) with
      | Some lo, Some hi when lo <= hi -> Ok (Uniform { lo; hi })
      | _ -> fail ())
  | [ "exp"; m ] -> (
      match float_of_string_opt m with Some mean -> Ok (Exponential { mean }) | None -> fail ())
  | [ "sexp"; min; m ] -> (
      match (float_of_string_opt min, float_of_string_opt m) with
      | Some min, Some mean when mean > min -> Ok (Shifted_exponential { min; mean })
      | _ -> fail ())
  | [ bare ] -> (
      match float_of_string_opt bare with Some m -> Ok (uniform_around m) | None -> fail ())
  | _ -> fail ()

let to_string = function
  | Constant c -> Printf.sprintf "const:%g" c
  | Uniform { lo; hi } -> Printf.sprintf "uniform:%g:%g" lo hi
  | Exponential { mean } -> Printf.sprintf "exp:%g" mean
  | Shifted_exponential { min; mean } -> Printf.sprintf "sexp:%g:%g" min mean
