type t = {
  base : float;
  min_value : float;
  counts : (int, int) Hashtbl.t;  (* bucket index -> count *)
  mutable total : int;
}

let create ?(base = 2.0) ?(min_value = 1.0) () =
  if base <= 1.0 then invalid_arg "Histogram.create: base <= 1";
  if min_value <= 0.0 then invalid_arg "Histogram.create: min_value <= 0";
  { base; min_value; counts = Hashtbl.create 32; total = 0 }

let bucket_of t v =
  if v <= t.min_value then 0
  else 1 + int_of_float (floor (log (v /. t.min_value) /. log t.base))

let bounds t i =
  if i = 0 then (0.0, t.min_value)
  else (t.min_value *. (t.base ** float_of_int (i - 1)), t.min_value *. (t.base ** float_of_int i))

let add t v =
  let i = bucket_of t v in
  Hashtbl.replace t.counts i (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts i));
  t.total <- t.total + 1

let count t = t.total

let buckets t =
  Hashtbl.fold (fun i c acc -> (i, c) :: acc) t.counts []
  |> List.sort compare
  |> List.map (fun (i, c) ->
         let lo, hi = bounds t i in
         (lo, hi, c))

let quantile t q =
  if t.total = 0 then 0.0
  else begin
    let rank = q *. float_of_int t.total in
    let rec go acc = function
      | [] -> 0.0
      | (_, hi, c) :: rest ->
          let acc = acc +. float_of_int c in
          if acc >= rank then hi else go acc rest
    in
    go 0.0 (buckets t)
  end

let render t =
  match buckets t with
  | [] -> "(empty histogram)\n"
  | bs ->
      let width = 50 in
      let max_count = List.fold_left (fun m (_, _, c) -> max m c) 1 bs in
      let b = Buffer.create 256 in
      List.iter
        (fun (lo, hi, c) ->
          let bar = String.make (max 1 (c * width / max_count)) '#' in
          Buffer.add_string b (Printf.sprintf "%10.1f – %-10.1f %6d %s\n" lo hi c bar))
        bs;
      Buffer.contents b
