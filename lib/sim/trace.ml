(* The digest folds the raw IEEE bits of the timestamp (exact, no decimal
   re-rendering), low byte first, then the record text into FNV-1a. *)

type t = { mutable hash : int64 }

let create () = { hash = 0xcbf29ce484222325L }

let fnv_prime = 0x100000001b3L

let hash_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let hash_string h s =
  let h = ref h in
  String.iter (fun c -> h := hash_byte !h (Char.code c)) s;
  !h

let hash_time h time =
  let bits = Int64.bits_of_float time in
  let h = ref h in
  for i = 0 to 7 do
    h := hash_byte !h (Int64.to_int (Int64.shift_right_logical bits (8 * i)))
  done;
  !h

let record t ~time msg =
  let line = msg () in
  t.hash <- hash_string (hash_time t.hash time) line

let digest t = t.hash
