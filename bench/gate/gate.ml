(* The scanner leans on the report's concrete shape: after the
   ["microbench_ns_per_run"] or ["microbench_minor_words_per_run"] key
   comes one brace-delimited object whose members are string keys and
   bare numbers, with no nested objects or escaped quotes inside the
   benchmark names the suite produces. *)

let fail fmt = Printf.ksprintf failwith fmt

let find_key s key =
  let needle = "\"" ^ key ^ "\"" in
  let n = String.length s and m = String.length needle in
  let rec go i =
    if i + m > n then fail "gate: key %S not found" key
    else if String.sub s i m = needle then i + m
    else go (i + 1)
  in
  go 0

let skip_ws s i =
  let n = String.length s in
  let rec go i =
    if i < n && (match s.[i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) then go (i + 1)
    else i
  in
  go i

let expect s i c =
  let i = skip_ws s i in
  if i >= String.length s || s.[i] <> c then fail "gate: expected %C at offset %d" c i;
  i + 1

(* A quoted string without escape handling beyond the report's needs:
   benchmark names contain no quotes or backslashes. *)
let scan_string s i =
  let i = expect s i '"' in
  let j = try String.index_from s i '"' with Not_found -> fail "gate: unterminated string" in
  (String.sub s i (j - i), j + 1)

let scan_number s i =
  let i = skip_ws s i in
  let n = String.length s in
  let j = ref i in
  while
    !j < n
    && match s.[!j] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  do
    incr j
  done;
  if !j = i then fail "gate: expected a number at offset %d" i;
  match float_of_string_opt (String.sub s i (!j - i)) with
  | Some v -> (v, !j)
  | None -> fail "gate: bad number at offset %d" i

let section_of_json key s =
  let i = find_key s key in
  let i = expect s i ':' in
  let i = expect s i '{' in
  let rec members acc i =
    let i = skip_ws s i in
    if i < String.length s && s.[i] = '}' then List.rev acc
    else begin
      let name, i = scan_string s i in
      let i = expect s i ':' in
      let v, i = scan_number s i in
      let i = skip_ws s i in
      if i < String.length s && s.[i] = ',' then members ((name, v) :: acc) (i + 1)
      else if i < String.length s && s.[i] = '}' then List.rev ((name, v) :: acc)
      else fail "gate: expected ',' or '}' at offset %d" i
    end
  in
  members [] i

let microbench_of_json = section_of_json "microbench_ns_per_run"
let minor_words_of_json = section_of_json "microbench_minor_words_per_run"

type verdict = {
  name : string;
  before : float;
  after : float;
  ratio : float;
}

(* Median after/before ratio over the benches present on both sides.
   When the whole machine drifts (shared container, frequency scaling),
   every bench inflates together; dividing each ratio by the median
   cancels the drift while a genuine single-bench regression still
   towers over it. Clamped at 1.0: a machine that got *faster* must not
   turn a within-tolerance slowdown into a verdict. *)
let median_drift ~before ~after =
  let ratios =
    List.filter_map
      (fun (name, a) ->
        match List.assoc_opt name before with
        | Some b when b > 0.0 -> Some (a /. b)
        | _ -> None)
      after
    |> List.sort Float.compare
  in
  match ratios with
  | [] -> 1.0
  | rs -> Float.max 1.0 (List.nth rs (List.length rs / 2))

let regressions ?(drift_correction = false) ~tolerance ~before ~after () =
  let scale = if drift_correction then median_drift ~before ~after else 1.0 in
  List.filter_map
    (fun (name, a) ->
      match List.assoc_opt name before with
      | Some b when b > 0.0 && a /. (b *. scale) > 1.0 +. tolerance ->
          Some { name; before = b; after = a; ratio = a /. (b *. scale) }
      | _ -> None)
    after
  |> List.sort (fun x y -> Float.compare y.ratio x.ratio)

let pp_verdict ppf v =
  Format.fprintf ppf "%s: %.0f -> %.0f ns/run (%+.1f%%)" v.name v.before v.after
    ((v.ratio -. 1.0) *. 100.0)

let zero_slack = 0.5
let alloc_tolerance = 0.10

(* Allocation is a count, so no drift correction: a row that allocated
   nothing may show up to [zero_slack] words/run of fit noise, any other
   row may grow by [alloc_tolerance]. A zero-baseline verdict carries an
   infinite ratio. *)
let allocation_regressions ~before ~after =
  List.filter_map
    (fun (name, a) ->
      match List.assoc_opt name before with
      | Some b when b <= 0.0 && a > zero_slack ->
          Some { name; before = b; after = a; ratio = Float.infinity }
      | Some b when b > 0.0 && a /. b > 1.0 +. alloc_tolerance ->
          Some { name; before = b; after = a; ratio = a /. b }
      | _ -> None)
    after
  |> List.sort (fun x y -> Float.compare y.ratio x.ratio)

let pp_alloc_verdict ppf v =
  Format.fprintf ppf "%s: %.1f -> %.1f minor words/run" v.name v.before v.after
