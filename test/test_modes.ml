(* Unit and property tests for the mode algebra: the paper's Tables 1(a),
   1(b), 2(a), 2(b) and the lemmas the protocol relies on. *)

open Dcs_modes
module Q = QCheck2

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

(* {1 Mode basics} *)

let test_strength_order () =
  check Alcotest.int "IR" 1 (Mode.strength Mode.IR);
  check Alcotest.int "R" 2 (Mode.strength Mode.R);
  check Alcotest.int "U" 3 (Mode.strength Mode.U);
  check Alcotest.int "IW = U" (Mode.strength Mode.U) (Mode.strength Mode.IW);
  check Alcotest.int "W" 4 (Mode.strength Mode.W);
  checkb "bottom weakest" true (Compat.strictly_weaker None (Some Mode.IR))

let test_string_roundtrip () =
  List.iter
    (fun m ->
      check Testkit.mode "roundtrip" m (Option.get (Mode.of_string (Mode.to_string m)));
      check Testkit.mode "lowercase" m
        (Option.get (Mode.of_string (String.lowercase_ascii (Mode.to_string m)))))
    Mode.all;
  check Alcotest.(option Testkit.mode) "garbage" None (Mode.of_string "X")

let test_index_roundtrip () =
  List.iter (fun m -> check Testkit.mode "index" m (Mode.of_index (Mode.index m))) Mode.all;
  Alcotest.check_raises "out of range" (Invalid_argument "Mode.of_index: 9") (fun () ->
      ignore (Mode.of_index 9))

(* {1 Table 1(a): the full compatibility matrix, cell by cell} *)

let expected_conflicts =
  (* (m1, m2) pairs that must conflict, per the OMG concurrency service. *)
  [
    (Mode.IR, Mode.W);
    (Mode.R, Mode.IW);
    (Mode.R, Mode.W);
    (Mode.U, Mode.U);
    (Mode.U, Mode.IW);
    (Mode.U, Mode.W);
    (Mode.IW, Mode.W);
    (Mode.W, Mode.W);
  ]

let conflicts m1 m2 =
  List.exists
    (fun (a, b) -> (Mode.equal a m1 && Mode.equal b m2) || (Mode.equal a m2 && Mode.equal b m1))
    expected_conflicts

let test_compat_matrix () =
  List.iter
    (fun m1 ->
      List.iter
        (fun m2 ->
          checkb
            (Printf.sprintf "%s/%s" (Mode.to_string m1) (Mode.to_string m2))
            (not (conflicts m1 m2))
            (Compat.compatible m1 m2))
        Mode.all)
    Mode.all

let test_compat_symmetric () =
  List.iter
    (fun m1 ->
      List.iter
        (fun m2 -> checkb "symmetric" (Compat.compatible m1 m2) (Compat.compatible m2 m1))
        Mode.all)
    Mode.all

let test_bottom_compatible_with_all () =
  List.iter (fun m -> checkb "bottom" true (Compat.compatible_owned None m)) Mode.all

(* Definition 1: strictly stronger modes are compatible with strictly fewer
   modes (U and IW tie in strength and cardinality but differ in set). *)
let test_strength_vs_compat_cardinality () =
  let card m = Mode_set.cardinal (Compat.compatible_set m) in
  List.iter
    (fun m1 ->
      List.iter
        (fun m2 ->
          if Mode.strength m1 < Mode.strength m2 then
            checkb
              (Printf.sprintf "|compat %s| > |compat %s|" (Mode.to_string m1) (Mode.to_string m2))
              true
              (card m1 > card m2))
        Mode.all)
    Mode.all

(* {1 Table 1(b): non-token grants} *)

let test_child_grant_table () =
  (* ⊥ grants nothing. *)
  List.iter (fun m -> checkb "bottom grants nothing" false (Compat.can_child_grant ~owned:None m)) Mode.all;
  (* U and W can never be granted by a non-token node. *)
  List.iter
    (fun owned ->
      checkb "no child grant of U" false (Compat.can_child_grant ~owned:(Some owned) Mode.U);
      checkb "no child grant of W" false (Compat.can_child_grant ~owned:(Some owned) Mode.W))
    Mode.all;
  (* The expected positive cells. *)
  let expect_yes =
    [
      (Mode.IR, Mode.IR);
      (Mode.R, Mode.IR);
      (Mode.R, Mode.R);
      (Mode.U, Mode.IR);
      (Mode.U, Mode.R);
      (Mode.IW, Mode.IR);
      (Mode.IW, Mode.IW);
    ]
  in
  List.iter
    (fun owned ->
      List.iter
        (fun m ->
          let expected = List.exists (fun (a, b) -> Mode.equal a owned && Mode.equal b m) expect_yes in
          checkb
            (Printf.sprintf "grant %s under %s" (Mode.to_string m) (Mode.to_string owned))
            expected
            (Compat.can_child_grant ~owned:(Some owned) m))
        Mode.all)
    Mode.all

(* Rule 3.2: token node grants iff compatible; transfers iff strictly
   stronger than owned. U and W can only ever be served by transfer. *)
let test_token_grant_and_transfer () =
  List.iter
    (fun owned ->
      List.iter
        (fun m ->
          checkb "token grant = compat" (Compat.compatible owned m)
            (Compat.token_can_grant ~owned:(Some owned) m))
        Mode.all)
    Mode.all;
  List.iter (fun m -> checkb "bottom token grant" true (Compat.token_can_grant ~owned:None m)) Mode.all;
  List.iter
    (fun m -> checkb "transfer from bottom" true (Compat.token_must_transfer ~owned:None m))
    Mode.all;
  (* Whenever a U or W is token-grantable, it must be by transfer. *)
  List.iter
    (fun owned ->
      List.iter
        (fun m ->
          if Compat.token_can_grant ~owned m then
            match m with
            | Mode.U | Mode.W -> checkb "U/W always transfer" true (Compat.token_must_transfer ~owned m)
            | Mode.IR | Mode.R | Mode.IW -> ())
        [ Mode.U; Mode.W ])
    (None :: List.map Option.some Mode.all)

(* {1 Table 2(a): queue or forward} *)

let test_queueable_table () =
  List.iter (fun m -> checkb "no pending, forward" false (Compat.queueable ~pending:None m)) Mode.all;
  (* W row: queue everything (token-bound). *)
  List.iter (fun m -> checkb "W queues all" true (Compat.queueable ~pending:(Some Mode.W) m)) Mode.all;
  (* U row: queue IR, R, U; forward IW, W. *)
  let u_row = [ (Mode.IR, true); (Mode.R, true); (Mode.U, true); (Mode.IW, false); (Mode.W, false) ] in
  List.iter
    (fun (m, expected) ->
      checkb (Printf.sprintf "U row %s" (Mode.to_string m)) expected
        (Compat.queueable ~pending:(Some Mode.U) m))
    u_row;
  (* Copy-bound rows follow the child-grant rule. *)
  List.iter
    (fun pending ->
      List.iter
        (fun m ->
          checkb "copy-bound row" (Compat.can_child_grant ~owned:(Some pending) m)
            (Compat.queueable ~pending:(Some pending) m))
        Mode.all)
    [ Mode.IR; Mode.R; Mode.IW ]

(* Custody-cycle freedom: cross-mode queueability strictly descends, so any
   absorption cycle would have to be same-mode (then broken by the age
   rule). This is the lemma the deadlock-freedom argument rests on. *)
let test_queueable_acyclic_across_modes () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if not (Mode.equal a b) then
            checkb
              (Printf.sprintf "%s/%s not mutually queueable" (Mode.to_string a) (Mode.to_string b))
              false
              (Compat.queueable ~pending:(Some a) b && Compat.queueable ~pending:(Some b) a))
        Mode.all)
    Mode.all

(* {1 Table 2(b): frozen modes} *)

(* Every legible cell of the paper's Table 2(b). *)
let test_freeze_table_paper_cells () =
  let cell owned m = Compat.freeze_set ~owned:(Some owned) m in
  let set = Mode_set.of_list in
  check Testkit.mode_set "R/IW" (set [ Mode.R; Mode.U ]) (cell Mode.R Mode.IW);
  check Testkit.mode_set "U/IW" (set [ Mode.R ]) (cell Mode.U Mode.IW);
  check Testkit.mode_set "IW/R" (set [ Mode.IW ]) (cell Mode.IW Mode.R);
  check Testkit.mode_set "IW/U" (set [ Mode.IW ]) (cell Mode.IW Mode.U);
  check Testkit.mode_set "IR/W"
    (set [ Mode.IR; Mode.R; Mode.U; Mode.IW ])
    (cell Mode.IR Mode.W);
  check Testkit.mode_set "R/W" (set [ Mode.IR; Mode.R; Mode.U ]) (cell Mode.R Mode.W);
  check Testkit.mode_set "U/W" (set [ Mode.IR; Mode.R ]) (cell Mode.U Mode.W);
  check Testkit.mode_set "IW/W" (set [ Mode.IR; Mode.IW ]) (cell Mode.IW Mode.W)

let test_freeze_set_properties () =
  List.iter
    (fun owned ->
      List.iter
        (fun m ->
          let frozen = Compat.freeze_set ~owned m in
          (* Frozen modes are grantable under owned... *)
          Mode_set.to_list frozen
          |> List.iter (fun x -> checkb "frozen grantable" true (Compat.compatible_owned owned x));
          (* ...and conflict with the waiting request. *)
          Mode_set.to_list frozen
          |> List.iter (fun x -> checkb "frozen conflicts" false (Compat.compatible x m)))
        Mode.all)
    (None :: List.map Option.some Mode.all)

(* {1 The local-knowledge safety lemma (paper §3.4)} *)

let gen_compatible_multiset =
  (* Random multiset of pairwise-compatible modes, built greedily. *)
  Q.Gen.(
    list_size (int_bound 6) Testkit.gen_mode >|= fun candidates ->
    List.fold_left
      (fun acc m -> if List.for_all (fun h -> Compat.compatible h m) acc then m :: acc else acc)
      [] candidates)

let prop_local_knowledge =
  Q.Test.make ~name:"compat with strongest implies compat with all" ~count:2000
    Q.Gen.(pair gen_compatible_multiset Testkit.gen_mode)
    (fun (held, m) ->
      match Compat.strongest held with
      | None -> true
      | Some strongest ->
          (not (Compat.compatible strongest m)) || Compat.compatible_with_all held m)

let prop_strongest_is_member =
  Q.Test.make ~name:"strongest returns a held mode of maximal strength" ~count:1000
    Q.Gen.(list_size (int_bound 8) Testkit.gen_mode)
    (fun held ->
      match Compat.strongest held with
      | None -> held = []
      | Some s ->
          List.exists (Mode.equal s) held
          && List.for_all (fun m -> Mode.strength m <= Mode.strength s) held)

(* {1 Mode_set vs a list model} *)

let prop_mode_set_model =
  Q.Test.make ~name:"Mode_set agrees with a sorted-list model" ~count:1000
    Q.Gen.(pair (list_size (int_bound 10) Testkit.gen_mode) (list_size (int_bound 10) Testkit.gen_mode))
    (fun (xs, ys) ->
      let a = Mode_set.of_list xs and b = Mode_set.of_list ys in
      let model l = List.sort_uniq Mode.compare l in
      let to_l s = Mode_set.to_list s in
      to_l (Mode_set.union a b) = model (xs @ ys)
      && to_l (Mode_set.inter a b) = model (List.filter (fun m -> List.mem m ys) xs)
      && to_l (Mode_set.diff a b) = model (List.filter (fun m -> not (List.mem m ys)) xs)
      && Mode_set.cardinal a = List.length (model xs)
      && Mode_set.subset (Mode_set.inter a b) a
      && Mode_set.equal a (Mode_set.of_bits (Mode_set.to_bits a)))

let prop_mode_set_mem =
  Q.Test.make ~name:"add/remove/mem laws" ~count:500
    Q.Gen.(pair Testkit.gen_mode (list_size (int_bound 10) Testkit.gen_mode))
    (fun (m, xs) ->
      let s = Mode_set.of_list xs in
      Mode_set.mem m (Mode_set.add m s)
      && (not (Mode_set.mem m (Mode_set.remove m s)))
      && Mode_set.is_empty Mode_set.empty
      && Mode_set.cardinal Mode_set.full = 5)

(* {1 Table rendering} *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_render_tables () =
  let t1a = Compat.render_table `Compat in
  checkb "1a mentions IR" true (contains ~needle:"IR" t1a);
  let t2b = Compat.render_table `Freeze in
  checkb "2b has the IW/R cell" true (contains ~needle:"IW" t2b);
  List.iter
    (fun k -> checkb "non-empty" true (String.length (Compat.render_table k) > 50))
    [ `Compat; `Child_grant; `Queue_forward; `Freeze ]

(* {1 Decision fast path}

   The precomputed bitmask tables must agree with the derivational Compat
   predicates on every cell: all 6 owned codes (⊥ plus the five modes) ×
   all 5 request modes per code-indexed table, and all 25 mode pairs for
   compatibility. Decision asserts this itself at init; these tests keep
   the cross-check visible and cover the bit-set helpers too. *)

let owned_options = None :: List.map (fun m -> Some m) Mode.all

let test_decision_codes () =
  List.iter
    (fun o ->
      let c = Decision.owned_code o in
      checkb "code in range" true (c >= 0 && c <= 5);
      check Alcotest.(option Testkit.mode) "decode/encode" o (Decision.decode_owned c);
      check Alcotest.int "strength" (Compat.strength o) (Decision.strength_of_code c))
    owned_options;
  List.iter
    (fun m ->
      check Alcotest.int "code_of_mode" (Decision.owned_code (Some m)) (Decision.code_of_mode m))
    Mode.all

let test_decision_agrees_with_compat () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          checkb
            (Printf.sprintf "compatible %s %s" (Mode.to_string a) (Mode.to_string b))
            (Compat.compatible a b) (Decision.compatible a b))
        Mode.all)
    Mode.all;
  List.iter
    (fun o ->
      let c = Decision.owned_code o in
      let label fn m =
        Printf.sprintf "%s owned=%s req=%s" fn
          (match o with None -> "_" | Some m -> Mode.to_string m)
          (Mode.to_string m)
      in
      List.iter
        (fun m ->
          checkb (label "can_child_grant" m)
            (Compat.can_child_grant ~owned:o m)
            (Decision.can_child_grant ~owned:c m);
          checkb (label "token_can_grant" m)
            (Compat.token_can_grant ~owned:o m)
            (Decision.token_can_grant ~owned:c m);
          checkb (label "token_must_transfer" m)
            (Compat.token_must_transfer ~owned:o m)
            (Decision.token_must_transfer ~owned:c m);
          checkb (label "queueable" m)
            (Compat.queueable ~pending:o m)
            (Decision.queueable ~pending:c m);
          check Alcotest.int (label "freeze_set" m)
            (Mode_set.to_bits (Compat.freeze_set ~owned:o m))
            (Mode_set.to_bits (Decision.freeze_set ~owned:c m)))
        Mode.all)
    owned_options

let test_decision_bit_sets () =
  List.iter
    (fun m ->
      List.iter
        (fun x ->
          checkb "compatible_bits" (Compat.compatible x m)
            (Mode_set.mem x (Decision.compatible_bits m));
          checkb "incompatible_bits" (not (Compat.compatible x m))
            (Mode_set.mem x (Decision.incompatible_bits m));
          checkb "le_strength_bits"
            (Mode.strength x <= Mode.strength m)
            (Mode_set.mem x (Decision.le_strength_bits m)))
        Mode.all)
    Mode.all

(* Property form of the agreement check: any (owned, request) cell drawn
   at random decides identically through either path. *)
let prop_decision_matches_compat =
  Q.Test.make ~name:"decision tables match Compat on random cells" ~count:500
    (Q.Gen.pair (Q.Gen.int_range 0 5) (Q.Gen.int_range 0 4))
    (fun (code, mi) ->
      let o = Decision.decode_owned code in
      let m = Mode.of_index mi in
      Compat.can_child_grant ~owned:o m = Decision.can_child_grant ~owned:code m
      && Compat.token_can_grant ~owned:o m = Decision.token_can_grant ~owned:code m
      && Compat.token_must_transfer ~owned:o m = Decision.token_must_transfer ~owned:code m
      && Compat.queueable ~pending:o m = Decision.queueable ~pending:code m
      && Mode_set.to_bits (Compat.freeze_set ~owned:o m)
         = Mode_set.to_bits (Decision.freeze_set ~owned:code m))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "dcs_modes"
    [
      ( "mode",
        [
          Alcotest.test_case "strength order" `Quick test_strength_order;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "index roundtrip" `Quick test_index_roundtrip;
        ] );
      ( "table-1a",
        [
          Alcotest.test_case "full matrix" `Quick test_compat_matrix;
          Alcotest.test_case "symmetric" `Quick test_compat_symmetric;
          Alcotest.test_case "bottom compatible" `Quick test_bottom_compatible_with_all;
          Alcotest.test_case "strength vs cardinality" `Quick test_strength_vs_compat_cardinality;
        ] );
      ( "table-1b",
        [
          Alcotest.test_case "child grant cells" `Quick test_child_grant_table;
          Alcotest.test_case "token grant and transfer" `Quick test_token_grant_and_transfer;
        ] );
      ( "table-2a",
        [
          Alcotest.test_case "queue/forward cells" `Quick test_queueable_table;
          Alcotest.test_case "no cross-mode custody cycles" `Quick test_queueable_acyclic_across_modes;
        ] );
      ( "table-2b",
        [
          Alcotest.test_case "paper cells" `Quick test_freeze_table_paper_cells;
          Alcotest.test_case "freeze-set properties" `Quick test_freeze_set_properties;
        ] );
      ( "properties",
        [
          qt prop_local_knowledge;
          qt prop_strongest_is_member;
          qt prop_mode_set_model;
          qt prop_mode_set_mem;
        ] );
      ( "decision",
        [
          Alcotest.test_case "owned codes" `Quick test_decision_codes;
          Alcotest.test_case "agrees with Compat on all cells" `Quick
            test_decision_agrees_with_compat;
          Alcotest.test_case "bit-set helpers" `Quick test_decision_bit_sets;
          qt prop_decision_matches_compat;
        ] );
      ("render", [ Alcotest.test_case "ascii tables" `Quick test_render_tables ]);
    ]
