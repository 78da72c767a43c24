(* The tables are built by enumerating the derivational predicates of
   Compat over every (owned code, request mode) cell, so Compat remains the
   single source of truth and this module cannot drift from it. *)

let n_modes = 5

let n_codes = n_modes + 1 (* ⊥ plus the five modes *)

let owned_code = function
  | None -> 0
  | Some m -> 1 + Mode.index m

let code_of_mode m = 1 + Mode.index m

let mode_of_code c = Mode.of_index (c - 1)

let decoded =
  Array.init n_codes (fun c -> if c = 0 then None else Some (mode_of_code c))

let decode_owned c =
  if c < 0 || c >= n_codes then invalid_arg (Printf.sprintf "Decision.decode_owned: %d" c);
  Array.unsafe_get decoded c

let strengths =
  Array.init n_codes (fun c -> if c = 0 then 0 else Mode.strength (mode_of_code c))

let strength_of_code c = strengths.(c)

(* One 5-bit mask per row: bit [Mode.index m] answers the (row, m) cell. *)
let mask_table ~rows cell =
  Array.init rows (fun r ->
      List.fold_left
        (fun acc m -> if cell r m then acc lor (1 lsl Mode.index m) else acc)
        0 Mode.all)

let compat_masks = mask_table ~rows:n_modes (fun r m -> Compat.compatible (Mode.of_index r) m)

let child_grant_masks =
  mask_table ~rows:n_codes (fun c m -> Compat.can_child_grant ~owned:(decode_owned c) m)

let token_grant_masks =
  mask_table ~rows:n_codes (fun c m -> Compat.token_can_grant ~owned:(decode_owned c) m)

let token_transfer_masks =
  mask_table ~rows:n_codes (fun c m -> Compat.token_must_transfer ~owned:(decode_owned c) m)

let queueable_masks =
  mask_table ~rows:n_codes (fun c m -> Compat.queueable ~pending:(decode_owned c) m)

(* Table 2(b): a Mode_set bitmask per (owned code, request mode) cell. *)
let freeze_table =
  Array.init (n_codes * n_modes) (fun i ->
      let c = i / n_modes and m = Mode.of_index (i mod n_modes) in
      Mode_set.to_bits (Compat.freeze_set ~owned:(decode_owned c) m))

let le_strength_masks =
  mask_table ~rows:n_modes (fun r m -> Mode.strength m <= Mode.strength (Mode.of_index r))

let test_bit masks row m = (Array.unsafe_get masks row lsr Mode.index m) land 1 <> 0

let compatible a b = test_bit compat_masks (Mode.index a) b

let compatible_bits m = Mode_set.of_bits compat_masks.(Mode.index m)

let incompatible_bits m = Mode_set.of_bits (lnot compat_masks.(Mode.index m) land 0b11111)

let le_strength_bits m = Mode_set.of_bits le_strength_masks.(Mode.index m)

let can_child_grant ~owned m = test_bit child_grant_masks owned m

let token_can_grant ~owned m = test_bit token_grant_masks owned m

let token_must_transfer ~owned m = test_bit token_transfer_masks owned m

let queueable ~pending m = test_bit queueable_masks pending m

let freeze_set ~owned m =
  Mode_set.of_bits (Array.unsafe_get freeze_table ((owned * n_modes) + Mode.index m))

(* Initialization-time self-check: every cell of every table must agree
   with the derivational Compat predicate it was built from. Cheap (155
   cells) and turns any future encoding slip into a load-time failure. *)
let () =
  List.iter
    (fun m ->
      List.iter
        (fun m' -> assert (compatible m m' = Compat.compatible m m'))
        Mode.all)
    Mode.all;
  for c = 0 to n_codes - 1 do
    let o = decode_owned c in
    List.iter
      (fun m ->
        assert (can_child_grant ~owned:c m = Compat.can_child_grant ~owned:o m);
        assert (token_can_grant ~owned:c m = Compat.token_can_grant ~owned:o m);
        assert (token_must_transfer ~owned:c m = Compat.token_must_transfer ~owned:o m);
        assert (queueable ~pending:c m = Compat.queueable ~pending:o m);
        assert (Mode_set.equal (freeze_set ~owned:c m) (Compat.freeze_set ~owned:o m)))
      Mode.all
  done
