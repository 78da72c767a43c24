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
  (* Every parameter must be finite, and a distribution that could only
     fail at its first draw (an exponential mean <= 0, a negative bare
     mean) is refused here. *)
  let num x = match float_of_string_opt x with Some v when Float.is_finite v -> Some v | _ -> None in
  match String.split_on_char ':' s with
  | [ "const"; c ] -> ( match num c with Some c -> Ok (Constant c) | None -> fail ())
  | [ "uniform"; lo; hi ] -> (
      match (num lo, num hi) with
      | Some lo, Some hi when lo <= hi -> Ok (Uniform { lo; hi })
      | _ -> fail ())
  | [ "exp"; m ] -> (
      match num m with Some mean when mean > 0.0 -> Ok (Exponential { mean }) | _ -> fail ())
  | [ "sexp"; min; m ] -> (
      match (num min, num m) with
      | Some min, Some mean when mean > min -> Ok (Shifted_exponential { min; mean })
      | _ -> fail ())
  | [ bare ] -> (
      match num bare with Some m when m >= 0.0 -> Ok (uniform_around m) | _ -> fail ())
  | _ -> fail ()

let to_string = function
  | Constant c -> Printf.sprintf "const:%g" c
  | Uniform { lo; hi } -> Printf.sprintf "uniform:%g:%g" lo hi
  | Exponential { mean } -> Printf.sprintf "exp:%g" mean
  | Shifted_exponential { min; mean } -> Printf.sprintf "sexp:%g:%g" min mean
