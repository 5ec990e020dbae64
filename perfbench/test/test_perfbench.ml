(* Self-tests of the benchmark: deterministic inputs, the percentile
   helper, the result line, and a tiny-size smoke of every workload
   through its output oracle (untraced and traced). *)

open Perfbench
module Matrix = Stratify_net_plan.Matrix
module Jsonx = Stratify_obs.Jsonx

let test_scripts_deterministic () =
  let a = Serve_mixed.script_text Serve_mixed.tiny ~seed:5 in
  let b = Serve_mixed.script_text Serve_mixed.tiny ~seed:5 in
  let c = Serve_mixed.script_text Serve_mixed.tiny ~seed:6 in
  Alcotest.(check bool) "same seed, same bytes" true (String.equal a b);
  Alcotest.(check bool) "other seed, other script" false (String.equal a c)

let test_script_shape () =
  let s = Serve_mixed.generate Serve_mixed.full ~seed:1 in
  let reqs = s.Stratify_serve.Request.requests in
  Alcotest.(check bool) ">= 10^5 requests" true (Array.length reqs >= 100_000);
  Alcotest.(check bool) ">= 200 ticks" true (s.Stratify_serve.Request.horizon >= 200.);
  Array.iter
    (fun (r : Stratify_serve.Request.t) ->
      if Float.is_integer r.Stratify_serve.Request.at then
        Alcotest.failf "request stamped on a tick time %g" r.Stratify_serve.Request.at)
    reqs;
  let announces =
    Array.fold_left
      (fun acc (r : Stratify_serve.Request.t) ->
        match r.Stratify_serve.Request.kind with
        | Stratify_serve.Request.Announce _ -> acc + 1
        | _ -> acc)
      0 reqs
  in
  let share = float_of_int announces /. float_of_int (Array.length reqs) in
  Alcotest.(check bool) "~80% announces" true (share > 0.78 && share < 0.82)

let test_cells_deterministic () =
  let names cells = Array.to_list (Array.map (fun c -> (c.Matrix.name, c.Matrix.seed)) cells) in
  let a = Matrix.generate ~seed:9 and b = Matrix.generate ~seed:9 in
  Alcotest.(check (list (pair string int))) "same cell list" (names a) (names b);
  Alcotest.(check int) "108 cells" 108 (Array.length a)

let test_nearest_rank () =
  let s = Timing.samples () in
  for i = 100 downto 1 do
    Timing.add s (float_of_int i)
  done;
  let p q = (Timing.percentile s q).Timing.value in
  Alcotest.(check (float 0.)) "p50 of 1..100" 50. (p 50.);
  Alcotest.(check (float 0.)) "p99 of 1..100" 99. (p 99.);
  Alcotest.(check (float 0.)) "p100 of 1..100" 100. (p 100.);
  Alcotest.(check int) "sample count" 100 (Timing.percentile s 50.).Timing.count;
  let five = Timing.samples () in
  List.iter (Timing.add five) [ 30.; 10.; 50.; 20.; 40. ];
  Alcotest.(check (float 0.)) "p90 of five = max" 50. (Timing.percentile five 90.).Timing.value;
  Alcotest.(check (float 0.)) "p50 of five" 30. (Timing.percentile five 50.).Timing.value;
  Alcotest.(check (float 0.)) "p20 of five" 10. (Timing.percentile five 20.).Timing.value;
  Alcotest.check_raises "empty" (Invalid_argument "Timing.nearest_rank: no samples") (fun () ->
      ignore (Timing.percentile (Timing.samples ()) 50.));
  Alcotest.(check (float 0.)) "median of even list" 2.5 (Timing.median [ 4.; 1.; 3.; 2. ]);
  (* a burst in one iteration's second segment is dropped segment-wise *)
  Alcotest.(check (float 0.)) "sum of segment medians" 3.
    (Timing.segment_sum Timing.median [ [| 1.; 2. |]; [| 1.; 9. |]; [| 1.; 2. |] ]);
  Alcotest.(check (float 0.)) "sum of segment minima" 3.
    (Timing.segment_sum Timing.fastest [ [| 1.; 2. |]; [| 1.; 9. |]; [| 3.; 2. |] ]);
  Alcotest.(check (float 1e-12)) "a reference-speed probe leaves a time as it is" 2.
    (Timing.at_ref ~probe:Timing.probe_ref_s 2.);
  Alcotest.(check (float 1e-12)) "a probe twice as slow halves it" 1.
    (Timing.at_ref ~probe:(2. *. Timing.probe_ref_s) 2.);
  Alcotest.(check bool) "the probe takes time" true (Timing.probe () > 0.);
  let per_iteration = [ s; five; s ] in
  let m = Timing.combined_percentile Timing.median per_iteration 50. in
  Alcotest.(check (float 0.)) "median of per-iteration p50s" 50. m.Timing.value;
  Alcotest.(check int) "samples over all iterations" 205 m.Timing.count

let test_result_line () =
  let o =
    { Metrics.correct = true; attempted = 3; failed = 0; values = [ ("wall_ref_s", 1.25) ]; report = [] }
  in
  let j = Jsonx.of_string (Metrics.result_line ~traced:false o) in
  Alcotest.(check (list string)) "keys" [ "correct"; "attempted"; "failed"; "metrics" ]
    (List.map fst (Jsonx.get_obj j));
  let metrics = Jsonx.get_obj (Jsonx.member "metrics" j) in
  Alcotest.(check (list string)) "every end-to-end metric"
    (List.map fst Metrics.end_to_end) (List.map fst metrics);
  Alcotest.(check (float 0.)) "value" 1.25
    (Jsonx.get_float (Jsonx.member "value" (List.assoc "wall_ref_s" metrics)));
  let names = List.map fst Metrics.per_layer in
  Alcotest.(check int) "per-layer names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "per-layer catalogue <= 128" true (List.length names <= 128)

let smoke workload traced () =
  let cfg =
    {
      Harness.seed = 3;
      seconds = 0.;
      traced;
      size = Harness.Tiny;
      tmp = Printf.sprintf ".bench_tmp_%s_%b" workload traced;
      git = "test";
      baseline = "baseline.json";
    }
  in
  let o = Workloads.run workload cfg in
  if not o.Metrics.correct then
    Alcotest.failf "%s oracle failed:\n%s" workload (String.concat "\n" o.Metrics.report);
  Alcotest.(check int) "nothing failed" 0 o.Metrics.failed;
  Alcotest.(check bool) "attempted" true (o.Metrics.attempted >= 1);
  Alcotest.(check bool) "scratch removed" false (Sys.file_exists cfg.Harness.tmp)

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "same seed, identical script" `Quick test_scripts_deterministic;
          Alcotest.test_case "script shape" `Quick test_script_shape;
          Alcotest.test_case "same seed, identical cells" `Quick test_cells_deterministic;
        ] );
      ( "measure",
        [
          Alcotest.test_case "nearest-rank percentiles and medians" `Quick test_nearest_rank;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
      ( "smoke",
        List.concat_map
          (fun w ->
            [
              Alcotest.test_case (w ^ " untraced") `Quick (smoke w false);
              Alcotest.test_case (w ^ " traced") `Quick (smoke w true);
            ])
          Workloads.names );
    ]
