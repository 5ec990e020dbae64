module Online = Stratify_stats.Online
module Discrete = Stratify_stats.Discrete
module Series = Stratify_stats.Series
module Table = Stratify_stats.Table

let test_online_basic () =
  let acc = Online.create () in
  Alcotest.(check int) "empty count" 0 (Online.count acc);
  Helpers.check_close "empty mean" 0. (Online.mean acc);
  Online.add_many acc [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |];
  Helpers.check_close "mean" 5. (Online.mean acc);
  Helpers.check_close "variance" (32. /. 7.) (Online.variance acc);
  Helpers.check_close "min" 2. (Online.min_value acc);
  Helpers.check_close "max" 9. (Online.max_value acc)

let test_online_merge () =
  let xs = Array.init 101 (fun i -> sin (float_of_int i)) in
  let whole = Online.create () in
  Online.add_many whole xs;
  let a = Online.create () and b = Online.create () in
  Array.iteri (fun i x -> Online.add (if i < 37 then a else b) x) xs;
  let merged = Online.merge a b in
  Alcotest.(check int) "count" (Online.count whole) (Online.count merged);
  Helpers.check_close "mean" (Online.mean whole) (Online.mean merged);
  Helpers.check_close "variance" (Online.variance whole) (Online.variance merged);
  Helpers.check_close "min" (Online.min_value whole) (Online.min_value merged)

let test_online_merge_empty () =
  let a = Online.create () in
  Online.add a 3.;
  let m = Online.merge a (Online.create ()) in
  Helpers.check_close "merge with empty" 3. (Online.mean m);
  let m2 = Online.merge (Online.create ()) a in
  Helpers.check_close "empty with merge" 3. (Online.mean m2)

let test_discrete_basics () =
  let d = Discrete.of_weights [| 0.1; 0.; 0.3; 0.2 |] in
  Helpers.check_close "total" 0.6 (Discrete.total_mass d);
  Helpers.check_close "missing" 0.4 (Discrete.missing_mass d);
  Alcotest.(check int) "mode" 2 (Discrete.mode d);
  Helpers.check_close "cdf 2" 0.4 (Discrete.cdf d 2);
  let n = Discrete.normalize d in
  Helpers.check_close "normalized total" 1. (Discrete.total_mass n);
  (* conditional mean: (0*0.1 + 2*0.3 + 3*0.2)/0.6 = 2 *)
  Helpers.check_close "mean" 2. (Discrete.mean d);
  Helpers.check_close "expectation" (0.6 *. 2.) (Discrete.expectation d float_of_int)

let test_discrete_uniform_point () =
  let u = Discrete.uniform 4 in
  Helpers.check_close "uniform mean" 1.5 (Discrete.mean u);
  Helpers.check_close "uniform var" 1.25 (Discrete.variance u);
  let pt = Discrete.point ~n:5 3 in
  Helpers.check_close "point mean" 3. (Discrete.mean pt);
  Helpers.check_close "point var" 0. (Discrete.variance pt)

let test_discrete_tv_and_map () =
  let a = Discrete.of_weights [| 0.5; 0.5; 0. |] in
  let b = Discrete.of_weights [| 0.; 0.5; 0.5 |] in
  Helpers.check_close "tv" 0.5 (Discrete.total_variation a b);
  let folded = Discrete.map_support a (fun k -> k / 2) 2 in
  Helpers.check_close "mapped mass 0" 1. (Discrete.mass folded 0)

let test_discrete_invalid () =
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Discrete.of_weights: negative or NaN weight") (fun () ->
      ignore (Discrete.of_weights [| 0.1; -0.2 |]));
  Alcotest.check_raises "normalize zero" (Invalid_argument "Discrete.normalize: zero total mass")
    (fun () -> ignore (Discrete.normalize (Discrete.of_weights [| 0.; 0. |])))

let test_series_eval () =
  let s = Series.make "s" [| (0., 0.); (1., 10.); (3., 30.) |] in
  Helpers.check_close "at point" 10. (Series.eval s 1.);
  Helpers.check_close "interp" 20. (Series.eval s 2.);
  Helpers.check_close "clamp low" 0. (Series.eval s (-1.));
  Helpers.check_close "clamp high" 30. (Series.eval s 99.);
  Helpers.check_close "final" 30. (Series.final_value s);
  Helpers.check_close "max" 30. (Series.max_y s);
  Helpers.check_close "min" 0. (Series.min_y s)

let test_series_of_ys_and_map () =
  let s = Series.of_ys "s" ~x0:5. ~dx:2. [| 1.; 2.; 3. |] in
  Alcotest.(check int) "length" 3 (Series.length s);
  Helpers.check_close "x spacing" 2. (Series.eval s 7.);
  let doubled = Series.map_y (fun y -> 2. *. y) s in
  Helpers.check_close "mapped" 4. (Series.eval doubled 7.)

let test_series_threshold_and_area () =
  let a = Series.of_ys "a" [| 4.; 3.; 2.; 1.; 0. |] in
  let b = Series.of_ys "b" [| 4.; 3.; 2.; 1.; 0. |] in
  Helpers.check_close "area identical" 0. (Series.area_between a b);
  (match Series.first_x_below a 1.5 with
  | Some x -> Helpers.check_close "first below" 3. x
  | None -> Alcotest.fail "expected threshold crossing");
  Alcotest.(check bool) "never below" true (Series.first_x_below a (-1.) = None)

let test_series_csv () =
  let s = Series.of_ys "s" [| 1.5; 2.5 |] in
  Alcotest.(check (list string)) "csv rows" [ "0,1.5"; "1,2.5" ] (Series.to_csv_rows s)

let test_table_render () =
  let t = Table.create [ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b" ];
  let rendered = Table.render t in
  Alcotest.(check bool) "has header" true
    (String.length rendered > 0
    && String.sub rendered 0 4 = "name");
  let csv = Table.to_csv t in
  Alcotest.(check bool) "csv rows" true
    (String.split_on_char '\n' csv = [ "name,value"; "alpha,1"; "b," ])

let test_table_csv_quoting () =
  let t = Table.create [ "a" ] in
  Table.add_row t [ "x,y" ];
  Alcotest.(check bool) "quoted" true
    (String.split_on_char '\n' (Table.to_csv t) = [ "a"; "\"x,y\"" ])

let test_table_overflow () =
  let t = Table.create [ "a" ] in
  Alcotest.check_raises "too many cells" (Invalid_argument "Table.add_row: more cells than headers")
    (fun () -> Table.add_row t [ "1"; "2" ])

let suite =
  [
    Alcotest.test_case "online accumulator" `Quick test_online_basic;
    Alcotest.test_case "online merge" `Quick test_online_merge;
    Alcotest.test_case "online merge with empty" `Quick test_online_merge_empty;
    Alcotest.test_case "discrete basics" `Quick test_discrete_basics;
    Alcotest.test_case "discrete uniform/point" `Quick test_discrete_uniform_point;
    Alcotest.test_case "discrete TV and map_support" `Quick test_discrete_tv_and_map;
    Alcotest.test_case "discrete invalid input" `Quick test_discrete_invalid;
    Alcotest.test_case "series evaluation" `Quick test_series_eval;
    Alcotest.test_case "series constructors and map" `Quick test_series_of_ys_and_map;
    Alcotest.test_case "series threshold and area" `Quick test_series_threshold_and_area;
    Alcotest.test_case "series csv" `Quick test_series_csv;
    Alcotest.test_case "table rendering" `Quick test_table_render;
    Alcotest.test_case "table csv quoting" `Quick test_table_csv_quoting;
    Alcotest.test_case "table overflow" `Quick test_table_overflow;
  ]

(* ------------------------------------------------------------------ *)
(* Correlation / Linreg                                                *)

module Correlation = Stratify_stats.Correlation
module Linreg = Stratify_stats.Linreg

let test_pearson () =
  let exact = Array.init 20 (fun i -> (float_of_int i, 2. *. float_of_int i +. 1.)) in
  Helpers.check_close "perfect line" 1. (Correlation.pearson exact);
  let anti = Array.map (fun (x, y) -> (x, -.y)) exact in
  Helpers.check_close "anti" (-1.) (Correlation.pearson anti);
  Helpers.check_close "degenerate" 0. (Correlation.pearson [| (1., 2.) |]);
  Helpers.check_close "constant x" 0. (Correlation.pearson [| (1., 2.); (1., 5.); (1., 9.) |])

let test_spearman_monotone_invariance () =
  let pairs = Array.init 30 (fun i -> (float_of_int i, exp (float_of_int i /. 5.))) in
  Helpers.check_close "monotone -> 1" 1. (Correlation.spearman pairs);
  (* Ties handled by average ranks: a tied block should not break the
     coefficient's bounds. *)
  let tied = [| (1., 1.); (1., 2.); (2., 3.); (3., 3.) |] in
  let r = Correlation.spearman tied in
  Alcotest.(check bool) "in [-1,1]" true (r >= -1. && r <= 1.)

let test_kendall () =
  let inc = Array.init 10 (fun i -> (float_of_int i, float_of_int (i * i))) in
  Helpers.check_close "concordant" 1. (Correlation.kendall inc);
  let dec = Array.map (fun (x, y) -> (x, -.y)) inc in
  Helpers.check_close "discordant" (-1.) (Correlation.kendall dec)

let test_autocorrelation () =
  let period4 = Array.init 64 (fun i -> if i mod 4 < 2 then 1. else -1.) in
  Alcotest.(check bool) "lag 4 high" true (Correlation.autocorrelation period4 ~lag:4 > 0.8);
  Alcotest.(check bool) "lag 2 negative" true (Correlation.autocorrelation period4 ~lag:2 < -0.8);
  Helpers.check_close "lag 0" 1. (Correlation.autocorrelation period4 ~lag:0)

let test_linreg_exact () =
  let f = Linreg.fit [| (0., 1.); (1., 3.); (2., 5.) |] in
  Helpers.check_close "slope" 2. f.Linreg.slope;
  Helpers.check_close "intercept" 1. f.Linreg.intercept;
  Helpers.check_close "r2" 1. f.Linreg.r_squared;
  Helpers.check_close "predict" 9. (Linreg.predict f 4.)

let test_linreg_loglog () =
  (* y = 3 x^2 -> slope 2 in log-log. *)
  let pts = Array.init 20 (fun i -> let x = float_of_int (i + 1) in (x, 3. *. x *. x)) in
  let f = Linreg.fit_loglog pts in
  Helpers.check_close ~eps:1e-9 "exponent" 2. f.Linreg.slope;
  Helpers.check_close ~eps:1e-9 "prefactor" (log 3.) f.Linreg.intercept

let test_linreg_guards () =
  Alcotest.check_raises "one point" (Invalid_argument "Linreg.fit: need at least two points")
    (fun () -> ignore (Linreg.fit [| (1., 1.) |]));
  Alcotest.check_raises "same x"
    (Invalid_argument "Linreg.fit: need at least two distinct x values") (fun () ->
      ignore (Linreg.fit [| (1., 1.); (1., 2.) |]))

let extra_suite =
  [
    Alcotest.test_case "pearson" `Quick test_pearson;
    Alcotest.test_case "spearman monotone invariance" `Quick test_spearman_monotone_invariance;
    Alcotest.test_case "kendall tau" `Quick test_kendall;
    Alcotest.test_case "autocorrelation" `Quick test_autocorrelation;
    Alcotest.test_case "linreg exact fit" `Quick test_linreg_exact;
    Alcotest.test_case "linreg log-log power law" `Quick test_linreg_loglog;
    Alcotest.test_case "linreg guards" `Quick test_linreg_guards;
  ]

let suite = suite @ extra_suite
