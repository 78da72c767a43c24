(* Tests for the statistics library. *)

open Dcs_stats
module Q = QCheck2

let checkb = Alcotest.check Alcotest.bool
let checkf msg = Alcotest.check (Alcotest.float 1e-6) msg

let naive_mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let naive_variance l =
  let m = naive_mean l in
  List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 l /. float_of_int (List.length l - 1)

let gen_floats = Q.Gen.(list_size (int_range 2 50) (float_bound_inclusive 1000.0))

let prop_summary_matches_naive =
  Q.Test.make ~name:"summary matches naive mean/variance" ~count:300 gen_floats (fun l ->
      let s = Summary.create () in
      List.iter (Summary.add s) l;
      Float.abs (Summary.mean s -. naive_mean l) < 1e-6
      && Float.abs (Summary.variance s -. naive_variance l) < 1e-4
      && Summary.min s = List.fold_left Float.min infinity l
      && Summary.max s = List.fold_left Float.max neg_infinity l
      && Summary.count s = List.length l)

let prop_summary_merge =
  Q.Test.make ~name:"merge equals adding everything to one" ~count:300
    Q.Gen.(pair gen_floats gen_floats)
    (fun (a, b) ->
      let s1 = Summary.create () and s2 = Summary.create () and all = Summary.create () in
      List.iter (Summary.add s1) a;
      List.iter (Summary.add s2) b;
      List.iter (Summary.add all) (a @ b);
      Summary.merge_into ~dst:s1 ~src:s2;
      Float.abs (Summary.mean s1 -. Summary.mean all) < 1e-6
      && Float.abs (Summary.variance s1 -. Summary.variance all) < 1e-3
      && Summary.count s1 = Summary.count all)

let test_summary_empty () =
  let s = Summary.create () in
  checkf "mean" 0.0 (Summary.mean s);
  checkf "variance" 0.0 (Summary.variance s);
  Alcotest.check Alcotest.int "count" 0 (Summary.count s)

(* {1 Sample / percentiles} *)

let test_percentiles () =
  let s = Sample.create () in
  List.iter (Sample.add s) [ 10.0; 20.0; 30.0; 40.0; 50.0 ];
  checkf "p0" 10.0 (Sample.percentile s 0.0);
  checkf "p100" 50.0 (Sample.percentile s 100.0);
  checkf "median" 30.0 (Sample.median s);
  checkf "p25" 20.0 (Sample.percentile s 25.0);
  checkf "p10 interpolates" 14.0 (Sample.percentile s 10.0)

let prop_percentile_bounds =
  Q.Test.make ~name:"percentiles stay within min/max" ~count:300
    Q.Gen.(pair gen_floats (float_bound_inclusive 100.0))
    (fun (l, p) ->
      let s = Sample.create () in
      List.iter (Sample.add s) l;
      let v = Sample.percentile s p in
      v >= List.fold_left Float.min infinity l && v <= List.fold_left Float.max neg_infinity l)

let prop_sample_mean =
  Q.Test.make ~name:"sample mean matches naive" ~count:200 gen_floats (fun l ->
      let s = Sample.create () in
      List.iter (Sample.add s) l;
      Float.abs (Sample.mean s -. naive_mean l) < 1e-6)

(* {1 Fit} *)

let test_fit_linear_exact () =
  let points = List.init 20 (fun i -> (float_of_int i, (2.0 *. float_of_int i) +. 1.0)) in
  let { Fit.a; b; r2 } = Fit.linear points in
  checkf "slope" 2.0 a;
  checkf "intercept" 1.0 b;
  checkf "r2" 1.0 r2

let test_fit_log_exact () =
  let points = List.init 20 (fun i -> (float_of_int (i + 1), (3.0 *. log (float_of_int (i + 1))) +. 0.5)) in
  let { Fit.a; b; r2 } = Fit.logarithmic points in
  checkf "slope" 3.0 a;
  checkf "intercept" 0.5 b;
  checkf "r2" 1.0 r2

let test_fit_degenerate () =
  Alcotest.check_raises "one point" (Invalid_argument "Fit: need at least two points") (fun () ->
      ignore (Fit.linear [ (1.0, 1.0) ]));
  Alcotest.check_raises "same x" (Invalid_argument "Fit: x values are all equal") (fun () ->
      ignore (Fit.linear [ (1.0, 1.0); (1.0, 2.0) ]));
  Alcotest.check_raises "log of non-positive" (Invalid_argument "Fit.logarithmic: x <= 0")
    (fun () -> ignore (Fit.logarithmic [ (0.0, 1.0); (1.0, 2.0) ]))

(* Fits distinguish shapes: a logarithmic series is fit much better by the
   log model than a linear series is, and vice versa. Used by the
   experiment harness to verify the paper's asymptote claims. *)
let test_fit_discriminates () =
  let log_series = List.init 30 (fun i -> (float_of_int (i + 2), log (float_of_int (i + 2)))) in
  let lin_series = List.init 30 (fun i -> (float_of_int (i + 2), float_of_int (i + 2))) in
  let log_on_log = (Fit.logarithmic log_series).Fit.r2 in
  let lin_on_log = (Fit.linear log_series).Fit.r2 in
  checkb "log fits log better" true (log_on_log > lin_on_log);
  let lin_on_lin = (Fit.linear lin_series).Fit.r2 in
  checkf "line fits line" 1.0 lin_on_lin

(* {1 Histogram} *)

let test_histogram_buckets () =
  let h = Histogram.create ~base:2.0 ~min_value:1.0 () in
  List.iter (Histogram.add h) [ 0.5; 1.5; 3.0; 3.9; 100.0 ];
  Alcotest.check Alcotest.int "count" 5 (Histogram.count h);
  let bs = Histogram.buckets h in
  checkb "bucket (0,1] holds 0.5" true (List.exists (fun (lo, hi, c) -> lo = 0.0 && hi = 1.0 && c = 1) bs);
  checkb "bucket (2,4] holds two" true (List.exists (fun (_, hi, c) -> hi = 4.0 && c = 2) bs);
  checkb "quantile monotone" true (Histogram.quantile h 0.2 <= Histogram.quantile h 0.9);
  checkb "render non-empty" true (String.length (Histogram.render h) > 10);
  Alcotest.check Alcotest.string "empty render" "(empty histogram)\n"
    (Histogram.render (Histogram.create ()))

let prop_histogram_count =
  Q.Test.make ~name:"histogram total equals insertions" ~count:200 gen_floats (fun l ->
      let h = Histogram.create ~min_value:0.5 () in
      List.iter (fun v -> Histogram.add h (Float.abs v +. 0.1)) l;
      Histogram.count h = List.length l
      && List.fold_left (fun acc (_, _, c) -> acc + c) 0 (Histogram.buckets h) = List.length l)

let test_histogram_validation () =
  checkb "bad base" true
    (try ignore (Histogram.create ~base:1.0 ()); false with Invalid_argument _ -> true);
  checkb "bad min" true
    (try ignore (Histogram.create ~min_value:0.0 ()); false with Invalid_argument _ -> true)

(* {1 Table rendering} *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_table_render () =
  let out = Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  checkb "contains cells" true (contains ~needle:"333" out);
  checkb "has separator" true (contains ~needle:"-+-" out);
  Alcotest.check_raises "ragged" (Invalid_argument "Table.render: ragged row") (fun () ->
      ignore (Table.render ~header:[ "a" ] [ [ "1"; "2" ] ]))

let test_csv_quoting () =
  let out = Table.csv ~header:[ "x" ] [ [ "a,b" ]; [ "say \"hi\"" ] ] in
  checkb "comma quoted" true (contains ~needle:"\"a,b\"" out);
  checkb "quote doubled" true (contains ~needle:"\"say \"\"hi\"\"\"" out)

let test_ascii_plot () =
  let out =
    Table.ascii_plot
      ~series:[ ("ours", [ (1.0, 1.0); (2.0, 2.0) ]); ("base", [ (1.0, 2.0); (2.0, 4.0) ]) ]
  in
  checkb "legend" true (contains ~needle:"ours" out);
  checkb "nonempty" true (String.length out > 100);
  Alcotest.check Alcotest.string "empty plot" "(empty plot)\n" (Table.ascii_plot ~series:[])

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "dcs_stats"
    [
      ( "summary",
        [
          Alcotest.test_case "empty" `Quick test_summary_empty;
          qt prop_summary_matches_naive;
          qt prop_summary_merge;
        ] );
      ( "sample",
        [
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          qt prop_percentile_bounds;
          qt prop_sample_mean;
        ] );
      ( "fit",
        [
          Alcotest.test_case "linear exact" `Quick test_fit_linear_exact;
          Alcotest.test_case "log exact" `Quick test_fit_log_exact;
          Alcotest.test_case "degenerate" `Quick test_fit_degenerate;
          Alcotest.test_case "discriminates shapes" `Quick test_fit_discriminates;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "buckets" `Quick test_histogram_buckets;
          qt prop_histogram_count;
          Alcotest.test_case "validation" `Quick test_histogram_validation;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "csv quoting" `Quick test_csv_quoting;
          Alcotest.test_case "ascii plot" `Quick test_ascii_plot;
        ] );
    ]
