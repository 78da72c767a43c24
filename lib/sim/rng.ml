(* The 64-bit state lives in 8 bytes, read and written with the unboxed
   64-bit primitives: a [mutable state : int64] field would allocate a
   fresh boxed Int64 on every draw. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let golden_gamma = 0x9E3779B97F4A7C15L

let reseed t ~seed = set_state t 0 seed

let create ~seed =
  let t = Bytes.create 8 in
  reseed t ~seed;
  t

(* SplitMix64 step (Steele, Lea, Flood 2014). *)
let next_int64 t =
  let z = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let float t =
  (* 53 high-quality bits into the unit interval. The bits fit an OCaml
     int exactly, and [Float.of_int] is one inline conversion where
     [Int64.to_float] calls C; below 2^53 both give the same float. *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Float.of_int (Int64.to_int bits) *. (1.0 /. 9007199254740992.0)

let uniform t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.uniform: lo > hi";
  lo +. ((hi -. lo) *. float t)

let int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* Drop two bits so the value fits OCaml's 63-bit int and stays
     non-negative; modulo bias is negligible for bound << 2^62. *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: mean <= 0";
  let u = 1.0 -. float t in
  -.mean *. log u

let split t = create ~seed:(next_int64 t)

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t ~bound:(List.length l))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
