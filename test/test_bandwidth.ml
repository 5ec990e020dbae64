module Rng = Stratify_prng.Rng
module Profile = Stratify_bandwidth.Profile
module Saroiu = Stratify_bandwidth.Saroiu
module Series = Stratify_stats.Series
open Stratify_core

let simple_profile =
  Profile.of_points [| (10., 0.); (100., 0.5); (1000., 1.) |]

let test_profile_validation () =
  let invalid name points =
    match Profile.of_points points with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s should be rejected" name
  in
  invalid "too few" [| (1., 0.) |];
  invalid "non-increasing bw" [| (10., 0.); (10., 1.) |];
  invalid "decreasing frac" [| (10., 0.); (20., 0.5); (30., 0.4); (40., 1.) |];
  invalid "frac not 0..1" [| (10., 0.1); (20., 1.) |];
  invalid "non-positive bw" [| (0., 0.); (10., 1.) |]

let test_cdf_quantile_inverse () =
  let p = simple_profile in
  Helpers.check_close "cdf lo" 0. (Profile.cdf p 10.);
  Helpers.check_close "cdf mid" 0.5 (Profile.cdf p 100.);
  Helpers.check_close "cdf hi" 1. (Profile.cdf p 1000.);
  Helpers.check_close "cdf clamp" 0. (Profile.cdf p 1.);
  Helpers.check_close "quantile mid" 100. (Profile.quantile p 0.5);
  (* log-linear midpoint of [10,100] at u=0.25 *)
  Helpers.check_close ~eps:1e-9 "log-linear interp" (sqrt 1000.) (Profile.quantile p 0.25);
  for i = 0 to 50 do
    let u = float_of_int i /. 50. in
    Helpers.check_close ~eps:1e-9 "inverse" u (Profile.cdf p (Profile.quantile p u))
  done

let test_density_integrates_to_one () =
  let p = Saroiu.profile in
  let lo, hi = Profile.support p in
  let steps = 200_000 in
  let llo = log lo and lhi = log hi in
  let integral = ref 0. in
  for k = 0 to steps - 1 do
    let x0 = exp (llo +. (float_of_int k /. float_of_int steps *. (lhi -. llo))) in
    let x1 = exp (llo +. (float_of_int (k + 1) /. float_of_int steps *. (lhi -. llo))) in
    let xm = sqrt (x0 *. x1) in
    integral := !integral +. (Profile.density p xm *. (x1 -. x0))
  done;
  Helpers.check_close ~eps:1e-3 "density integral" 1. !integral

let test_sampling_matches_cdf () =
  let p = Saroiu.profile in
  let rng = Rng.create 7 in
  let samples = Array.init 20_000 (fun _ -> Profile.sample p rng) in
  let ks = Helpers.ks_distance_to samples (Profile.cdf p) in
  Alcotest.(check bool) (Printf.sprintf "KS %.4f small" ks) true (ks < 0.02)

let test_rank_bandwidths_decreasing () =
  let bw = Profile.rank_bandwidths Saroiu.profile ~n:500 in
  Alcotest.(check int) "length" 500 (Array.length bw);
  for r = 1 to 499 do
    Alcotest.(check bool) "non-increasing" true (bw.(r) <= bw.(r - 1))
  done;
  Alcotest.(check bool) "best is fast" true (bw.(0) > 10_000.);
  Alcotest.(check bool) "worst is slow" true (bw.(499) < 100.)

let test_rank_bandwidths_validation () =
  List.iter
    (fun n ->
      match Profile.rank_bandwidths Saroiu.profile ~n with
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (Printf.sprintf "n=%d names the offending value: %s" n msg)
            true
            (Helpers.contains msg (string_of_int n))
      | _ -> Alcotest.failf "n=%d: expected Invalid_argument" n)
    [ 1; 0; -3 ]

let test_series_export () =
  let s = Profile.to_series simple_profile ~points:11 in
  Alcotest.(check int) "points" 11 (Series.length s);
  Helpers.check_close "starts at 0%" 0. (snd s.Series.points.(0));
  Helpers.check_close "ends at 100%" 100. (Series.final_value s)

let test_saroiu_shape () =
  let p = Saroiu.profile in
  (* Fig 10's gross shape: a wide distribution over four decades. *)
  Alcotest.(check bool) "some hosts below 64kbps" true (Profile.cdf p 64. > 0.05);
  Alcotest.(check bool) "most hosts below 10Mbps" true (Profile.cdf p 10_000. > 0.85);
  Alcotest.(check bool) "median in DSL/cable range" true
    (Saroiu.median_upstream > 100. && Saroiu.median_upstream < 2000.);
  (* Density peaks are local maxima relative to their surroundings. *)
  Array.iter
    (fun peak ->
      let at = Profile.density p peak in
      let below = Profile.density p (peak /. 1.6) in
      Alcotest.(check bool)
        (Printf.sprintf "peak %.0f denser than %.0f" peak (peak /. 1.6))
        true (at > below))
    Saroiu.density_peaks

(* ------------------------------------------------------------------ *)
(* Share ratio (§6, Fig 11)                                            *)

let fig11_result =
  lazy
    (Share_ratio.compute
       { Share_ratio.n = 500; b0 = 3; d = 20.; profile = Saroiu.profile })

let test_fig11_best_peers_suffer () =
  let r = Lazy.force fig11_result in
  Alcotest.(check bool)
    (Printf.sprintf "best peer ratio %.3f < 1" (Share_ratio.best_peer_ratio r))
    true
    (Share_ratio.best_peer_ratio r < 1.)

let test_fig11_worst_peers_thrive () =
  let r = Lazy.force fig11_result in
  let worst = Share_ratio.worst_peer_ratio r in
  Alcotest.(check bool) (Printf.sprintf "worst peer ratio %.3f > 1.2" worst) true (worst > 1.2);
  Alcotest.(check bool) "but bounded" true (worst < 4.)

let test_fig11_density_peaks_near_one () =
  let r = Lazy.force fig11_result in
  (* Peers sitting inside a density peak exchange mostly with equals:
     ratio close to 1 (checked on interior peaks). *)
  List.iter
    (fun peak_bw ->
      let ratio = Share_ratio.ratio_near r ~bandwidth_per_slot:(peak_bw /. 3.) in
      Alcotest.(check bool)
        (Printf.sprintf "ratio %.3f near 1 at peak %.0f" ratio peak_bw)
        true
        (ratio > 0.7 && ratio < 1.45))
    [ 56.; 129.; 257.; 650. ]

let test_fig11_expected_mates_bounded () =
  let r = Lazy.force fig11_result in
  Array.iter
    (fun m -> Alcotest.(check bool) "mates <= b0" true (m <= 3. +. 1e-9))
    r.Share_ratio.expected_mates;
  (* Middle peers are nearly full with d = 20 acceptable peers. *)
  Alcotest.(check bool) "mid peer nearly full" true (r.Share_ratio.expected_mates.(250) > 2.5)

let test_fig11_series_monotone_x () =
  let r = Lazy.force fig11_result in
  let s = Share_ratio.to_series r in
  let pts = s.Series.points in
  for k = 1 to Array.length pts - 1 do
    Alcotest.(check bool) "x non-decreasing" true (fst pts.(k) >= fst pts.(k - 1))
  done

let test_rational_peer_prefers_fewer_slots () =
  (* §6's Nash-equilibrium argument: for a typical peer, cutting slots
     raises the expected share ratio. *)
  let sweep =
    Share_ratio.sweep_slots ~n:400 ~d:20. ~profile:Saroiu.profile
      ~my_upload:(Saroiu.median_upstream *. 3. /. 3. *. 3.)
      ~slots:[| 1; 2; 3 |] ()
  in
  let ratio s = snd (Array.get sweep (s - 1)) in
  Alcotest.(check bool)
    (Printf.sprintf "1 slot (%.3f) beats 3 slots (%.3f)" (ratio 1) (ratio 3))
    true
    (ratio 1 > ratio 3)

let test_top_peer_slot_scaling () =
  (* §6: a top peer's expected D/U climbs towards (and past) 1 as extra
     slots pull its per-slot bandwidth down into the strata below. *)
  let top = Profile.quantile Saroiu.profile 0.999 in
  let sweep =
    Share_ratio.sweep_slots_scaled ~n:400 ~d:20. ~profile:Saroiu.profile ~my_upload:top
      ~slots:[| 3; 12; 48 |]
  in
  let ratio k = snd sweep.(k) in
  Alcotest.(check bool)
    (Printf.sprintf "monotone recovery: %.2f < %.2f < %.2f" (ratio 0) (ratio 1) (ratio 2))
    true
    (ratio 0 < ratio 1 && ratio 1 < ratio 2);
  Alcotest.(check bool) "starts spoiled" true (ratio 0 < 0.5);
  Alcotest.(check bool) "recovers past fair" true (ratio 2 > 1.)

let test_nash_one_slot_equilibrium () =
  (* §6's claim: "a Nash equilibrium where all peers have just one TFT
     slot". All-1 is an equilibrium; the default-like profiles are not,
     with deviations pointing at 1 slot. *)
  let analyse b0 =
    Nash.symmetric_profile_analysis ~n:300 ~d:20. ~profile:Saroiu.profile ~population_b0:b0
      ~candidates:[| 1; 2; 3; 4 |] ()
  in
  let eq1 = analyse 1 in
  Alcotest.(check bool) "all-1 is an equilibrium" true eq1.Nash.is_equilibrium;
  let eq3 = analyse 3 in
  Alcotest.(check bool) "all-3 is not" false eq3.Nash.is_equilibrium;
  (* Every profitable deviation at b0=3 reduces the slot count. *)
  Array.iter
    (fun (_, best_s, status_quo, best_ratio) ->
      if best_ratio > status_quo *. 1.05 then
        Alcotest.(check bool) "deviations cut slots" true (best_s < 3))
    eq3.Nash.deviations

let test_nash_guards () =
  Alcotest.check_raises "candidates must include b0"
    (Invalid_argument "Nash.symmetric_profile_analysis: candidates must include population_b0")
    (fun () ->
      ignore
        (Nash.symmetric_profile_analysis ~n:50 ~d:10. ~profile:Saroiu.profile ~population_b0:3
           ~candidates:[| 1; 2 |] ()))

let test_share_ratio_guards () =
  Alcotest.check_raises "n too small" (Invalid_argument "Share_ratio.compute: need n >= 2")
    (fun () ->
      ignore
        (Share_ratio.compute { Share_ratio.n = 1; b0 = 3; d = 5.; profile = Saroiu.profile }))

let suite =
  [
    Alcotest.test_case "profile validation" `Quick test_profile_validation;
    Alcotest.test_case "cdf/quantile inverse" `Quick test_cdf_quantile_inverse;
    Alcotest.test_case "density integrates to 1" `Slow test_density_integrates_to_one;
    Alcotest.test_case "sampling matches cdf" `Slow test_sampling_matches_cdf;
    Alcotest.test_case "rank bandwidths decreasing" `Quick test_rank_bandwidths_decreasing;
    Alcotest.test_case "rank bandwidths validation" `Quick test_rank_bandwidths_validation;
    Alcotest.test_case "series export (Fig 10)" `Quick test_series_export;
    Alcotest.test_case "Saroiu profile shape (Fig 10)" `Quick test_saroiu_shape;
    Alcotest.test_case "Fig 11: best peers suffer" `Slow test_fig11_best_peers_suffer;
    Alcotest.test_case "Fig 11: worst peers thrive" `Slow test_fig11_worst_peers_thrive;
    Alcotest.test_case "Fig 11: density peaks give ratio ~ 1" `Slow
      test_fig11_density_peaks_near_one;
    Alcotest.test_case "Fig 11: expected mates bounded" `Slow test_fig11_expected_mates_bounded;
    Alcotest.test_case "Fig 11 series x-monotone" `Slow test_fig11_series_monotone_x;
    Alcotest.test_case "rational peers prefer fewer slots" `Slow
      test_rational_peer_prefers_fewer_slots;
    Alcotest.test_case "top peers recover via more slots" `Slow test_top_peer_slot_scaling;
    Alcotest.test_case "Nash: 1-slot equilibrium (§6)" `Slow test_nash_one_slot_equilibrium;
    Alcotest.test_case "Nash guards" `Quick test_nash_guards;
    Alcotest.test_case "share-ratio guards" `Quick test_share_ratio_guards;
  ]
