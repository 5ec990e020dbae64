module Rng = Stratify_prng.Rng
module Gen = Stratify_graph.Gen
module Series = Stratify_stats.Series
open Stratify_core

let line_instance n b = Instance.create ~graph:(Gen.path n) ~b:(Array.make n b) ()

(* ------------------------------------------------------------------ *)
(* Initiative                                                          *)

let test_perform_drops_worst () =
  let inst = Instance.create ~graph:(Gen.complete 3) ~b:[| 1; 1; 1 |] () in
  let c = Config.of_pairs inst [ (1, 2) ] in
  (* 0 and 1 block; performing must break 1-2. *)
  Initiative.perform c 0 1;
  Alcotest.(check bool) "0-1 mated" true (Config.mated c 0 1);
  Alcotest.(check bool) "1-2 broken" false (Config.mated c 1 2);
  Alcotest.(check int) "2 alone" 0 (Config.degree c 2)

let test_perform_rejects_non_blocking () =
  let inst = line_instance 4 1 in
  let c = Config.of_pairs inst [ (0, 1) ] in
  Alcotest.check_raises "not blocking" (Invalid_argument "Initiative.perform: pair does not block")
    (fun () -> Initiative.perform c 1 2)

let test_best_mate_attempt () =
  let inst = Instance.create ~graph:(Gen.complete 4) ~b:[| 1; 1; 1; 1 |] () in
  let c = Config.empty inst in
  let st = Initiative.create_state inst in
  let rng = Helpers.rng () in
  Alcotest.(check bool) "active" true (Initiative.attempt c st Initiative.Best_mate rng 3);
  (* Peer 3's best blocking mate in the empty config is peer 0. *)
  Alcotest.(check bool) "3-0 mated" true (Config.mated c 3 0);
  (* Paired with the best peer, 3 cannot improve: the next attempt is
     inactive. *)
  Alcotest.(check bool) "no further improvement" false
    (Initiative.attempt c st Initiative.Best_mate rng 3);
  (* But peer 1 blocks with 0 (0 prefers 1 to its worst mate 3) and steals
     it, orphaning 3. *)
  Alcotest.(check bool) "1 is active" true (Initiative.attempt c st Initiative.Best_mate rng 1);
  Alcotest.(check bool) "0-1 mated" true (Config.mated c 0 1);
  Alcotest.(check int) "3 orphaned" 0 (Config.degree c 3)

let test_decremental_scans_circularly () =
  let inst = Instance.create ~graph:(Gen.complete 3) ~b:[| 1; 1; 1 |] () in
  let c = Config.empty inst in
  let st = Initiative.create_state inst in
  let rng = Helpers.rng () in
  (* First decremental initiative of peer 2 starts at list position 0 ->
     proposes to 0. *)
  Alcotest.(check bool) "active" true (Initiative.attempt c st Initiative.Decremental rng 2);
  Alcotest.(check bool) "2-0" true (Config.mated c 2 0);
  ignore (Config.drop_worst c 2);
  (* Cursor advanced past 0; next scan starts at 1. *)
  Alcotest.(check bool) "active 2" true (Initiative.attempt c st Initiative.Decremental rng 2);
  Alcotest.(check bool) "2-1 now" true (Config.mated c 2 1)

let test_random_initiative_eventually_connects () =
  let inst = line_instance 2 1 in
  let c = Config.empty inst in
  let st = Initiative.create_state inst in
  let rng = Helpers.rng () in
  let active = ref false in
  for _ = 1 to 20 do
    if (not !active) && Initiative.attempt c st Initiative.Random rng 0 then active := true
  done;
  Alcotest.(check bool) "eventually active" true !active;
  Alcotest.(check bool) "stable now" true (Blocking.is_stable c)

(* ------------------------------------------------------------------ *)
(* Disorder                                                            *)

let test_disorder_identity () =
  let inst = line_instance 6 1 in
  let c = Greedy.stable_config inst in
  Helpers.check_close "self distance" 0. (Disorder.distance c c)

let test_disorder_normalisation () =
  (* Paper's normalisation: perfect matching vs empty = 1. *)
  let n = 8 in
  let inst = Instance.create ~graph:(Gen.complete n) ~b:(Array.make n 1) () in
  let pairs = List.init (n / 2) (fun k -> (2 * k, (2 * k) + 1)) in
  let perfect = Config.of_pairs inst pairs in
  let empty = Config.empty inst in
  Helpers.check_close "empty vs perfect" 1. (Disorder.distance perfect empty);
  Helpers.check_close "symmetric" (Disorder.distance perfect empty)
    (Disorder.distance empty perfect)

let test_disorder_normalisation_any_perfect_matching () =
  (* The identity holds for any perfect matching, not just adjacent pairs. *)
  let n = 6 in
  let inst = Instance.create ~graph:(Gen.complete n) ~b:(Array.make n 1) () in
  let crossed = Config.of_pairs inst [ (0, 3); (1, 4); (2, 5) ] in
  Helpers.check_close "crossed vs empty" 1. (Disorder.distance crossed (Config.empty inst))

let test_disorder_on_subset () =
  let n = 4 in
  let inst = Instance.create ~graph:(Gen.complete n) ~b:(Array.make n 1) () in
  let c1 = Config.of_pairs inst [ (0, 1) ] in
  let c2 = Config.empty inst in
  let only_23 = [| false; false; true; true |] in
  Helpers.check_close "masked peers identical" 0. (Disorder.distance_on ~present:only_23 c1 c2);
  let only_01 = [| true; true; false; false |] in
  Alcotest.(check bool) "unmasked difference seen" true
    (Disorder.distance_on ~present:only_01 c1 c2 > 0.)

(* ------------------------------------------------------------------ *)
(* Theorem 1                                                           *)

let prop_active_initiatives_never_repeat =
  Helpers.qtest ~count:100 "active initiatives never revisit a configuration (Thm 1)"
    Helpers.instance_params (fun (seed, n, p, bmax) ->
      let rng = Rng.create seed in
      let inst = Helpers.random_instance rng ~n ~p ~bmax in
      let c = Config.empty inst in
      let st = Initiative.create_state inst in
      let seen = Hashtbl.create 64 in
      Hashtbl.add seen (Config.signature c) ();
      let steps = ref 0 in
      let ok = ref true in
      (* Random peers, random strategy mix; only active initiatives change
         the signature. *)
      let strategies = [| Initiative.Best_mate; Initiative.Decremental; Initiative.Random |] in
      while !ok && !steps < 50 * (n + 1) && not (Blocking.is_stable c) do
        incr steps;
        let p' = Rng.int rng n in
        let strat = strategies.(Rng.int rng 3) in
        if Initiative.attempt c st strat rng p' then begin
          let s = Config.signature c in
          if Hashtbl.mem seen s then ok := false else Hashtbl.add seen s ()
        end
      done;
      !ok && Blocking.is_stable c)

let prop_converges_to_greedy_config =
  Helpers.qtest ~count:100 "initiative dynamics converge to Algorithm 1's configuration"
    Helpers.instance_params (fun (seed, n, p, bmax) ->
      let rng = Rng.create seed in
      let inst = Helpers.random_instance rng ~n ~p ~bmax in
      let stable = Greedy.stable_config inst in
      let sim = Sim.create inst rng in
      match Sim.run_until_stable sim ~stable ~max_units:200 with
      | Some _ -> true
      | None -> false)

let prop_incremental_stability_matches_naive =
  (* Regression for the O(n)-scan-per-step bug: [run_until_stable]'s
     incremental divergence tracker must report exactly the step count of
     the naive check-[Config.equal]-before-every-step loop it replaced. *)
  Helpers.qtest ~count:60 "incremental stability detection matches naive scan"
    Helpers.instance_params (fun (seed, n, p, bmax) ->
      let rng = Rng.create seed in
      let inst = Helpers.random_instance rng ~n ~p ~bmax in
      let stable = Greedy.stable_config inst in
      let max_units = 50 in
      let naive =
        let sim = Sim.create inst (Rng.create (seed + 1)) in
        let limit = max_units * Instance.n inst in
        let rec loop () =
          if Config.equal (Sim.config sim) stable then Some (Sim.steps sim)
          else if Sim.steps sim >= limit then None
          else begin
            ignore (Sim.step sim);
            loop ()
          end
        in
        loop ()
      in
      let incremental =
        let sim = Sim.create inst (Rng.create (seed + 1)) in
        Sim.run_until_stable sim ~stable ~max_units
      in
      naive = incremental)

let test_run_until_stable_timeout () =
  (* A target the dynamics can never reach: both implementations must agree
     on [None] after exactly [max_units] base units. *)
  let inst = line_instance 6 1 in
  (* Unreachable target: 0-1 is not the stable edge set of the path. *)
  let unreachable = Config.of_pairs inst [ (1, 2); (3, 4) ] in
  let sim = Sim.create inst (Helpers.rng ~seed:5 ()) in
  Alcotest.(check bool) "times out" true
    (Sim.run_until_stable sim ~stable:unreachable ~max_units:3 = None);
  Alcotest.(check int) "stopped after max_units" 18 (Sim.steps sim)

let test_theorem1_bound_achievable () =
  (* On a complete graph the best-mate schedule realises B/2 connections;
     active count should be modest (>= edge count of stable config). *)
  let n = 20 in
  let inst = Instance.create ~graph:(Gen.complete n) ~b:(Array.make n 2) () in
  let rng = Helpers.rng ~seed:3 () in
  match Sim.count_active_to_stability inst ~strategy:Initiative.Best_mate rng ~max_steps:100_000 with
  | None -> Alcotest.fail "did not converge"
  | Some active ->
      let stable_edges = Config.edge_count (Greedy.stable_config inst) in
      Alcotest.(check bool)
        (Printf.sprintf "active=%d >= stable edges=%d" active stable_edges)
        true (active >= stable_edges);
      Alcotest.(check bool) "and within a small multiple" true (active <= 8 * stable_edges)

(* ------------------------------------------------------------------ *)
(* Sim                                                                 *)

let test_sim_trajectory_reaches_zero () =
  let rng = Helpers.rng ~seed:9 () in
  let graph = Gen.gnd rng ~n:100 ~d:10. in
  let inst = Instance.create ~graph ~b:(Array.make 100 1) () in
  let stable = Greedy.stable_config inst in
  let sim = Sim.create inst rng in
  let traj = Sim.disorder_trajectory sim ~stable ~units:15 ~samples_per_unit:2 in
  Alcotest.(check bool) "starts disordered" true (snd traj.Series.points.(0) > 0.);
  Helpers.check_close "ends stable" 0. (Series.final_value traj);
  (* Monotone trend: the last quarter is below the first quarter. *)
  let quarter = Array.length traj.Series.points / 4 in
  let avg lo hi =
    let s = ref 0. in
    for i = lo to hi - 1 do
      s := !s +. snd traj.Series.points.(i)
    done;
    !s /. float_of_int (hi - lo)
  in
  Alcotest.(check bool) "decreasing trend" true
    (avg (3 * quarter) (4 * quarter) < avg 0 quarter)

let test_sim_counters () =
  let inst = line_instance 10 1 in
  let rng = Helpers.rng () in
  let sim = Sim.create inst rng in
  Sim.run_units sim 3;
  Alcotest.(check int) "steps" 30 (Sim.steps sim);
  Alcotest.(check bool) "some active" true (Sim.active_count sim > 0);
  Alcotest.(check bool) "active <= steps" true (Sim.active_count sim <= Sim.steps sim)

let test_sim_converges_under_all_strategies () =
  List.iter
    (fun strategy ->
      let rng = Helpers.rng ~seed:11 () in
      let graph = Gen.gnd rng ~n:60 ~d:8. in
      let inst = Instance.create ~graph ~b:(Array.make 60 1) () in
      let stable = Greedy.stable_config inst in
      let sim = Sim.create ~strategy inst rng in
      match Sim.run_until_stable sim ~stable ~max_units:500 with
      | Some _ -> ()
      | None ->
          Alcotest.failf "strategy %s did not converge" (Initiative.strategy_name strategy))
    [ Initiative.Best_mate; Initiative.Decremental; Initiative.Random ]

(* ------------------------------------------------------------------ *)
(* Churn                                                               *)

let test_removal_recovery () =
  let rng = Helpers.rng ~seed:17 () in
  let traj =
    Churn.removal_trajectory rng ~n:200 ~d:10. ~b:1 ~remove:0 ~units:12 ~samples_per_unit:2
  in
  (* The system starts near the old stable config: small but non-trivial
     disorder, and recovers to ~0 within d base units. *)
  Alcotest.(check bool) "initial disorder small" true (snd traj.Series.points.(0) < 0.1);
  Helpers.check_close ~eps:1e-9 "recovered" 0. (Series.final_value traj)

let test_removing_good_peer_hurts_more () =
  (* Domino effect: averaged over seeds, removing the best peer creates at
     least as much disruption as removing the worst. *)
  let total_area remove =
    let acc = ref 0. in
    for seed = 0 to 14 do
      let rng = Rng.create (1000 + seed) in
      let traj =
        Churn.removal_trajectory rng ~n:150 ~d:8. ~b:1 ~remove ~units:8 ~samples_per_unit:2
      in
      Array.iter (fun (_, y) -> acc := !acc +. y) traj.Series.points
    done;
    !acc
  in
  let best = total_area 0 and worst = total_area 149 in
  Alcotest.(check bool)
    (Printf.sprintf "best-peer removal (%.4f) >= worst-peer removal (%.4f)" best worst)
    true (best >= worst)

let test_churn_zero_rate_converges () =
  let rng = Helpers.rng ~seed:23 () in
  let params =
    {
      Churn.n = 120;
      d = 10.;
      b = 1;
      rate = 0.;
      units = 15;
      samples_per_unit = 2;
      strategy = Initiative.Best_mate;
      scheduler = Scheduler.Random_poll;
    }
  in
  let traj = Churn.run rng params in
  Helpers.check_close "no churn converges" 0. (Series.final_value traj)

let test_churn_disorder_grows_with_rate () =
  let tail rate seed =
    let rng = Rng.create seed in
    let params =
      {
        Churn.n = 120;
        d = 10.;
        b = 1;
        rate;
        units = 16;
        samples_per_unit = 2;
        strategy = Initiative.Best_mate;
        scheduler = Scheduler.Random_poll;
      }
    in
    Churn.mean_disorder_tail (Churn.run rng params) ~skip_units:8.
  in
  let avg rate = (tail rate 1 +. tail rate 2 +. tail rate 3) /. 3. in
  let low = avg 0.003 and high = avg 0.03 in
  Alcotest.(check bool)
    (Printf.sprintf "plateau grows with churn (%.4f < %.4f)" low high)
    true (low < high);
  Alcotest.(check bool) "disorder stays under control" true (high < 0.5)

let test_churn_keeps_population () =
  (* A long churn run must not crash nor leave the system inconsistent;
     final disorder is finite and in [0, 1.5]. *)
  let rng = Helpers.rng ~seed:31 () in
  let params =
    {
      Churn.n = 80;
      d = 6.;
      b = 2;
      rate = 0.05;
      units = 10;
      samples_per_unit = 1;
      strategy = Initiative.Decremental;
      scheduler = Scheduler.Random_poll;
    }
  in
  let traj = Churn.run rng params in
  Array.iter
    (fun (_, y) ->
      Alcotest.(check bool) "finite" true (Float.is_finite y);
      Alcotest.(check bool) "bounded" true (y >= 0. && y < 1.5))
    traj.Series.points

(* Reference pick, generic over the mask's element type: fold to count,
   one draw, then a full scan for the chosen match. *)
let reference_member rng mask value =
  let count = Array.fold_left (fun acc x -> if x = value then acc + 1 else acc) 0 mask in
  if count = 0 then None
  else begin
    let target = Rng.int rng count in
    let idx = ref (-1) and seen = ref 0 in
    Array.iteri
      (fun i x ->
        if x = value then begin
          if !seen = target then idx := i;
          incr seen
        end)
      mask;
    Some !idx
  end

let test_random_member_reference () =
  let gen = Rng.create 11 in
  for trial = 0 to 199 do
    let n = Rng.int gen 40 in
    let density = Rng.unit_float gen in
    let mask = Array.init n (fun _ -> Rng.unit_float gen < density) in
    List.iter
      (fun value ->
        let a = Rng.create trial and b = Rng.create trial in
        for _ = 1 to 5 do
          Alcotest.(check (option int))
            "same pick" (reference_member a mask value) (Churn.random_member b mask value)
        done;
        Alcotest.(check int) "same number of draws" (Rng.bits30 a) (Rng.bits30 b))
      [ true; false ]
  done;
  let rng = Rng.create 3 in
  let before = Rng.copy rng in
  Alcotest.(check (option int)) "all-false mask" None
    (Churn.random_member rng (Array.make 10 false) true);
  Alcotest.(check int) "no draw without a match" (Rng.bits30 before) (Rng.bits30 rng)

let suite =
  [
    Alcotest.test_case "perform drops worst mates" `Quick test_perform_drops_worst;
    Alcotest.test_case "perform rejects non-blocking pairs" `Quick test_perform_rejects_non_blocking;
    Alcotest.test_case "best-mate attempt" `Quick test_best_mate_attempt;
    Alcotest.test_case "decremental circular scan" `Quick test_decremental_scans_circularly;
    Alcotest.test_case "random initiative" `Quick test_random_initiative_eventually_connects;
    Alcotest.test_case "disorder of identical configs" `Quick test_disorder_identity;
    Alcotest.test_case "disorder normalisation (paper)" `Quick test_disorder_normalisation;
    Alcotest.test_case "normalisation holds for any perfect matching" `Quick
      test_disorder_normalisation_any_perfect_matching;
    Alcotest.test_case "disorder on peer subsets" `Quick test_disorder_on_subset;
    prop_active_initiatives_never_repeat;
    prop_converges_to_greedy_config;
    prop_incremental_stability_matches_naive;
    Alcotest.test_case "run_until_stable timeout" `Quick test_run_until_stable_timeout;
    Alcotest.test_case "Theorem 1 bound scale" `Quick test_theorem1_bound_achievable;
    Alcotest.test_case "trajectory decreases to zero" `Slow test_sim_trajectory_reaches_zero;
    Alcotest.test_case "sim counters" `Quick test_sim_counters;
    Alcotest.test_case "all strategies converge" `Slow test_sim_converges_under_all_strategies;
    Alcotest.test_case "removal recovery (Fig 2)" `Slow test_removal_recovery;
    Alcotest.test_case "good-peer removal hurts more" `Slow test_removing_good_peer_hurts_more;
    Alcotest.test_case "zero churn converges (Fig 3)" `Slow test_churn_zero_rate_converges;
    Alcotest.test_case "disorder grows with churn rate (Fig 3)" `Slow
      test_churn_disorder_grows_with_rate;
    Alcotest.test_case "long churn run stays consistent" `Slow test_churn_keeps_population;
    Alcotest.test_case "random_member = generic pick" `Quick test_random_member_reference;
  ]
