type t = int

let empty = 0

let full = 0b11111

let bit m = 1 lsl Mode.index m

let singleton m = bit m

let add m s = s lor bit m

let remove m s = s land lnot (bit m)

let mem m s = s land bit m <> 0

let union a b = a lor b

let inter a b = a land b

let diff a b = a land lnot b

let equal (a : t) (b : t) = a = b

let subset a b = a land lnot b = 0

let cardinal s =
  let rec count acc s = if s = 0 then acc else count (acc + (s land 1)) (s lsr 1) in
  count 0 s

let is_empty s = s = 0

let of_list ms = List.fold_left (fun s m -> add m s) empty ms

let to_list s = List.filter (fun m -> mem m s) Mode.all

let pp ppf s =
  Format.fprintf ppf "{%s}" (String.concat "," (List.map Mode.to_string (to_list s)))

let to_bits s = s

let of_bits i = i land full
