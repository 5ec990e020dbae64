(* Tests for the general-utility framework (§7), the classical capacitated
   substrates, gossip peer sampling, the alpha-indexed fluid limit, and the
   flash-crowd scenario. *)

module Rng = Stratify_prng.Rng
module Gen = Stratify_graph.Gen
module Spatial = Stratify_graph.Spatial
module U = Stratify_graph.Undirected
module Components = Stratify_graph.Components
module Series = Stratify_stats.Series
module Bt = Stratify_bittorrent
open Stratify_core

(* ------------------------------------------------------------------ *)
(* Utility                                                             *)

let test_utility_global_ranking () =
  let ranking = Ranking.of_scores [| 5.; 9.; 1. |] in
  let u = Utility.global_ranking ranking in
  Helpers.check_close "value = score" 9. (Utility.value u 0 1);
  Helpers.check_close "independent of judge" (Utility.value u 0 2) (Utility.value u 1 2)

let test_utility_blend_and_symmetry () =
  let a = Utility.of_function (fun p q -> float_of_int (p + q)) in
  let b = Utility.of_function (fun p q -> float_of_int (p * q)) in
  let mixed = Utility.blend a b ~alpha:0.25 in
  Helpers.check_close "blend" ((0.25 *. 5.) +. (0.75 *. 6.)) (Utility.value mixed 2 3);
  Alcotest.(check bool) "symmetric" true (Utility.is_symmetric mixed ~n:6);
  let asym = Utility.of_function (fun p q -> float_of_int (p - q)) in
  Alcotest.(check bool) "asymmetric" false (Utility.is_symmetric asym ~n:3);
  Alcotest.check_raises "alpha range" (Invalid_argument "Utility.blend: alpha must be in [0,1]")
    (fun () -> ignore (Utility.blend a b ~alpha:1.5))

let test_utility_preference_lists () =
  let u = Utility.of_function (fun _ q -> -.float_of_int q) in
  (* prefers lower ids *)
  let lists = Utility.preference_lists u ~acceptance:[| [| 2; 1 |]; [| 0; 2 |]; [| 0; 1 |] |] in
  Alcotest.(check (array int)) "sorted" [| 1; 2 |] lists.(0);
  Alcotest.(check (array int)) "sorted 2" [| 0; 1 |] lists.(2)

(* ------------------------------------------------------------------ *)
(* General_matching                                                    *)

let test_general_of_instance_matches_greedy () =
  let rng = Helpers.rng () in
  for _ = 1 to 40 do
    let n = 2 + Rng.int rng 12 in
    let inst = Helpers.random_instance rng ~n ~p:0.6 ~bmax:2 in
    let g = General_matching.of_instance inst in
    match General_matching.best_response_run g rng with
    | General_matching.Converged _ -> ()
    | General_matching.Cycled _ ->
        Alcotest.fail "global-ranking instances cannot cycle (Theorem 1)"
  done

let odd_cycle_general () =
  (* Cyclic utilities on K3: u(0,1)=u(1,2)=u(2,0)=2, reverse = 1. *)
  let u =
    Utility.of_function (fun p q -> if (p + 1) mod 3 = q then 2. else 1.)
  in
  let acceptance = [| [| 1; 2 |]; [| 0; 2 |]; [| 0; 1 |] |] in
  General_matching.create ~utility:u ~acceptance ~b:[| 1; 1; 1 |]

let test_general_odd_cycle_has_no_stable () =
  let g = odd_cycle_general () in
  Alcotest.(check bool) "no stable configuration" false (General_matching.exists_stable g);
  let rng = Helpers.rng () in
  match General_matching.best_response_run g ~max_steps:2000 rng with
  | General_matching.Cycled _ -> ()
  | General_matching.Converged _ -> Alcotest.fail "cannot converge without a stable config"

let test_general_exists_stable_on_rankings () =
  let rng = Helpers.rng ~seed:3 () in
  for _ = 1 to 25 do
    let n = 1 + Rng.int rng 6 in
    let inst = Helpers.random_instance rng ~n ~p:0.7 ~bmax:2 in
    Alcotest.(check bool) "always exists" true
      (General_matching.exists_stable (General_matching.of_instance inst))
  done

let test_general_guards () =
  Alcotest.check_raises "asymmetric acceptance"
    (Invalid_argument "General_matching: acceptance is not symmetric") (fun () ->
      ignore
        (General_matching.create
           ~utility:(Utility.of_function (fun _ q -> float_of_int q))
           ~acceptance:[| [| 1 |]; [||] |] ~b:[| 1; 1 |]))

let test_general_state_operations () =
  let g = odd_cycle_general () in
  let s = General_matching.State.empty g in
  General_matching.State.connect s 0 1;
  Alcotest.(check (list int)) "mates" [ 1 ] (General_matching.State.mates s 0);
  Alcotest.(check int) "edges" 1 (General_matching.State.edge_count s);
  (* 2 blocks with 1 (1 prefers 2 to 0). *)
  Alcotest.(check bool) "blocking" true (General_matching.is_blocking g s 1 2);
  Alcotest.(check (list (pair int int))) "pairs" [ (1, 2) ]
    (General_matching.blocking_pairs g s);
  General_matching.satisfy g s 1 2;
  Alcotest.(check bool) "1-2 now" true (General_matching.State.mated s 1 2);
  Alcotest.(check bool) "0 dropped" false (General_matching.State.mated s 0 1)

(* ------------------------------------------------------------------ *)
(* Symmetric_greedy                                                    *)

let random_symmetric_case rng n bmax =
  let positions = Spatial.random_positions rng ~n in
  let u = Utility.symmetric_distance (Spatial.distance positions) in
  let graph = Gen.gnp rng ~n ~p:0.7 in
  let acceptance = U.adjacency_arrays graph in
  let b = Array.init n (fun _ -> 1 + Rng.int rng bmax) in
  (General_matching.create ~utility:u ~acceptance ~b, u, positions)

let test_symmetric_greedy_stable () =
  let rng = Helpers.rng ~seed:8 () in
  for _ = 1 to 60 do
    let n = 2 + Rng.int rng 20 in
    let g, u, _ = random_symmetric_case rng n 3 in
    let s = Symmetric_greedy.stable_state g ~utility:u in
    Alcotest.(check bool) "stable" true (General_matching.is_stable g s)
  done

let test_symmetric_greedy_proximity () =
  (* Latency clustering: chosen partners are much closer than random
     pairs. *)
  let rng = Helpers.rng ~seed:9 () in
  let n = 120 in
  let positions = Spatial.random_positions rng ~n in
  let u = Utility.symmetric_distance (Spatial.distance positions) in
  let acceptance = U.adjacency_arrays (Gen.complete n) in
  let g = General_matching.create ~utility:u ~acceptance ~b:(Array.make n 2) in
  let s = Symmetric_greedy.stable_state g ~utility:u in
  let partner_dist = ref 0. and partner_edges = ref 0 in
  for p = 0 to n - 1 do
    List.iter
      (fun q ->
        partner_dist := !partner_dist +. Spatial.distance positions p q;
        incr partner_edges)
      (General_matching.State.mates s p)
  done;
  let mean_partner = !partner_dist /. float_of_int !partner_edges in
  (* Mean distance of uniform pairs in the unit square is ~0.52. *)
  Alcotest.(check bool)
    (Printf.sprintf "partners close: %.3f << 0.52" mean_partner)
    true (mean_partner < 0.2)

let test_symmetric_dynamics_converge () =
  (* Best-response dynamics also converge for symmetric utilities (no
     preference cycles are possible). *)
  let rng = Helpers.rng ~seed:10 () in
  for _ = 1 to 25 do
    let n = 2 + Rng.int rng 12 in
    let g, _, _ = random_symmetric_case rng n 2 in
    match General_matching.best_response_run g ~max_steps:20_000 rng with
    | General_matching.Converged _ -> ()
    | General_matching.Cycled _ -> Alcotest.fail "symmetric utilities should not cycle"
  done

(* ------------------------------------------------------------------ *)
(* Gossip                                                              *)

let check_view_validity g =
  for p = 0 to Gossip.n g - 1 do
    let v = Gossip.view g p in
    Alcotest.(check bool) "view bounded" true (Array.length v <= Gossip.view_size g);
    let seen = Hashtbl.create 8 in
    Array.iter
      (fun q ->
        Alcotest.(check bool) "no self" true (q <> p);
        Alcotest.(check bool) "in range" true (q >= 0 && q < Gossip.n g);
        Alcotest.(check bool) "distinct" false (Hashtbl.mem seen q);
        Hashtbl.replace seen q ())
      v
  done

let test_gossip_views_valid () =
  let rng = Helpers.rng ~seed:20 () in
  let g = Gossip.create rng ~n:80 ~view_size:8 in
  check_view_validity g;
  for _ = 1 to 30 do
    Gossip.round g
  done;
  check_view_validity g

let test_gossip_coverage_and_balance () =
  let rng = Helpers.rng ~seed:21 () in
  let g = Gossip.create rng ~n:100 ~view_size:10 in
  for _ = 1 to 20 do
    Gossip.round g
  done;
  Helpers.check_close ~eps:0.02 "coverage ~ c/(n-1)" (10. /. 99.) (Gossip.view_coverage g);
  (* In-degree stays balanced (uniform random would give sd ~ sqrt(c)). *)
  Alcotest.(check bool) "balanced in-degree" true (Gossip.indegree_stddev g < 3. *. sqrt 10.)

let test_gossip_graph_connected () =
  let rng = Helpers.rng ~seed:22 () in
  let g = Gossip.create rng ~n:60 ~view_size:6 in
  for _ = 1 to 10 do
    Gossip.round g
  done;
  let comps = Components.of_graph (Gossip.acceptance_graph g) in
  Alcotest.(check int) "one component" 1 comps.Components.count

let test_gossip_supports_matching () =
  (* The paper's point: the initiative dynamics run fine on a
     gossip-maintained acceptance graph. *)
  let rng = Helpers.rng ~seed:23 () in
  let g = Gossip.create rng ~n:80 ~view_size:10 in
  for _ = 1 to 10 do
    Gossip.round g
  done;
  let inst = Instance.create ~graph:(Gossip.acceptance_graph g) ~b:(Array.make 80 1) () in
  let stable = Greedy.stable_config inst in
  Alcotest.(check bool) "stable on gossip view" true (Blocking.is_stable stable);
  Alcotest.(check bool) "most peers matched" true (Config.edge_count stable > 30)

let test_gossip_rank_discovery () =
  (* The paper's stated use of gossip: peers discover their global rank by
     sampling views.  Error shrinks with more rounds. *)
  let rng = Helpers.rng ~seed:24 () in
  let n = 200 in
  let scores = Array.init n (fun i -> 1000. -. float_of_int i) in
  let g = Gossip.create rng ~n ~view_size:10 in
  let est = Gossip.Rank_estimator.create ~n in
  Gossip.Rank_estimator.observe est g ~scores;
  let early = Gossip.Rank_estimator.mean_absolute_error est ~scores in
  for _ = 1 to 40 do
    Gossip.round g;
    Gossip.Rank_estimator.observe est g ~scores
  done;
  let late = Gossip.Rank_estimator.mean_absolute_error est ~scores in
  Alcotest.(check bool)
    (Printf.sprintf "error shrinks: %.1f -> %.1f ranks" early late)
    true (late < early);
  (* Binomial sampling over ~40 rounds x 10 samples: a few ranks of
     error out of 200. *)
  Alcotest.(check bool) (Printf.sprintf "final error %.1f small" late) true (late < 15.);
  (* Extremes are easy: the best peer sees nobody better. *)
  Alcotest.(check bool) "best peer knows it" true
    (Gossip.Rank_estimator.estimated_rank est 0 < 5.)

let test_optimal_schedule () =
  (* Theorem 1, constructive half: the schedule is all-active and reaches
     the stable configuration in exactly edge-count initiatives (<= B/2). *)
  let rng = Helpers.rng ~seed:25 () in
  for _ = 1 to 50 do
    let n = 2 + Rng.int rng 20 in
    let inst = Helpers.random_instance rng ~n ~p:0.5 ~bmax:3 in
    let schedule = Sim.optimal_schedule inst in
    let stable = Greedy.stable_config inst in
    Alcotest.(check int) "length = stable edges" (Config.edge_count stable)
      (List.length schedule);
    Alcotest.(check bool) "within B/2" true
      (2 * List.length schedule <= Instance.slot_total inst);
    (* replay_schedule raises if any step fails to block. *)
    let replayed = Sim.replay_schedule inst schedule in
    Alcotest.(check bool) "reaches the stable configuration" true (Config.equal replayed stable)
  done

(* ------------------------------------------------------------------ *)
(* Fluid at general alpha                                              *)

let test_fluid_offset_mass () =
  let n = 600 and d = 10. in
  let s = Fluid.offset_series ~n ~d ~alpha:0.5 in
  (* Sum of n*D over offsets times 1/n = total match probability ~ 1. *)
  let mass =
    Array.fold_left (fun acc (_, y) -> acc +. (y /. float_of_int n)) 0. s.Series.points
  in
  Helpers.check_close ~eps:0.02 "mass ~ 1" 1. mass

let test_fluid_shift_invariance () =
  let n = 1200 and d = 10. in
  let mid = Fluid.shift_invariance_gap ~n ~d ~alpha1:0.4 ~alpha2:0.6 in
  let edge = Fluid.shift_invariance_gap ~n ~d ~alpha1:0.0 ~alpha2:0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "mid-range shift-invariant: %.3f << %.3f" mid edge)
    true
    (mid < 0.25 *. edge);
  Alcotest.check_raises "alpha range"
    (Invalid_argument "Fluid.offset_series: alpha must be in [0,1]") (fun () ->
      ignore (Fluid.offset_series ~n:100 ~d:5. ~alpha:1.5))

(* ------------------------------------------------------------------ *)
(* Flash crowd scenario                                                *)

let test_flash_crowd_completes () =
  let rng = Helpers.rng ~seed:30 () in
  let n = 40 in
  let uploads = Array.make n 20. in
  uploads.(0) <- 80.;
  let result =
    Bt.Scenario.flash_crowd rng ~uploads ~pieces:60 ~piece_size:4. ~d:12. ~max_ticks:3000
  in
  let completed =
    Array.fold_left (fun acc t -> if t <> None then acc + 1 else acc) 0 result.Bt.Scenario.completion_ticks
  in
  Alcotest.(check bool) (Printf.sprintf "most complete (%d/%d)" completed n) true
    (completed > n / 2);
  (* Completion curve is non-decreasing. *)
  let pts = result.Bt.Scenario.completed_curve.Series.points in
  for i = 1 to Array.length pts - 1 do
    Alcotest.(check bool) "monotone" true (snd pts.(i) >= snd pts.(i - 1))
  done

let test_flash_crowd_stratifies_completion () =
  (* The file must be large relative to per-tick bandwidth: stratification
     needs many rechoke periods to form before anyone completes. *)
  let rng = Helpers.rng ~seed:31 () in
  let n = 50 in
  let uploads = Array.init n (fun i -> if i = 0 then 200. else 80. *. Float.pow 0.92 (float_of_int i)) in
  let result =
    Bt.Scenario.flash_crowd rng ~uploads ~pieces:300 ~piece_size:40. ~d:15. ~max_ticks:20_000
  in
  let corr = Bt.Scenario.completion_capacity_correlation result ~uploads in
  Alcotest.(check bool)
    (Printf.sprintf "faster peers finish earlier (rho = %.2f)" corr)
    true (corr < -0.15);
  (* Decile contrast: the fastest decile completes before the slowest. *)
  let t i =
    match result.Bt.Scenario.completion_ticks.(i) with
    | Some t -> float_of_int t
    | None -> float_of_int 20_000
  in
  let mean lo hi =
    let s = ref 0. in
    for i = lo to hi do
      s := !s +. t i
    done;
    !s /. float_of_int (hi - lo + 1)
  in
  Alcotest.(check bool) "top decile beats bottom decile" true (mean 1 10 < mean 40 49)

let suite =
  [
    Alcotest.test_case "utility: global ranking" `Quick test_utility_global_ranking;
    Alcotest.test_case "utility: blend and symmetry" `Quick test_utility_blend_and_symmetry;
    Alcotest.test_case "utility: preference lists" `Quick test_utility_preference_lists;
    Alcotest.test_case "general matching embeds global ranking" `Quick
      test_general_of_instance_matches_greedy;
    Alcotest.test_case "odd utility cycle: no stable config, dynamics cycle" `Quick
      test_general_odd_cycle_has_no_stable;
    Alcotest.test_case "exists_stable on global rankings" `Quick
      test_general_exists_stable_on_rankings;
    Alcotest.test_case "general matching guards" `Quick test_general_guards;
    Alcotest.test_case "general matching state ops" `Quick test_general_state_operations;
    Alcotest.test_case "symmetric greedy is stable" `Quick test_symmetric_greedy_stable;
    Alcotest.test_case "latency matching clusters by proximity" `Quick
      test_symmetric_greedy_proximity;
    Alcotest.test_case "symmetric dynamics converge" `Quick test_symmetric_dynamics_converge;
    Alcotest.test_case "gossip views stay valid" `Quick test_gossip_views_valid;
    Alcotest.test_case "gossip coverage and balance" `Quick test_gossip_coverage_and_balance;
    Alcotest.test_case "gossip graph is connected" `Quick test_gossip_graph_connected;
    Alcotest.test_case "matching on gossip views" `Quick test_gossip_supports_matching;
    Alcotest.test_case "gossip rank discovery" `Quick test_gossip_rank_discovery;
    Alcotest.test_case "optimal B/2 schedule (Thm 1)" `Quick test_optimal_schedule;
    Alcotest.test_case "fluid offset mass" `Quick test_fluid_offset_mass;
    Alcotest.test_case "fluid shift invariance (stratification)" `Quick
      test_fluid_shift_invariance;
    Alcotest.test_case "flash crowd completes" `Slow test_flash_crowd_completes;
    Alcotest.test_case "flash crowd: completion order stratifies" `Slow
      test_flash_crowd_stratifies_completion;
  ]
