module Rng = Stratify_prng.Rng
open Stratify_core

(* ------------------------------------------------------------------ *)
(* MMO                                                                 *)

let test_mmo_closed_form_table1 () =
  (* Table 1's constant-b0 MMO row: 1.67 2.5 3.2 4 4.71 5.5 *)
  Helpers.check_close ~eps:0.005 "b0=2" 1.67 (Mmo.closed_form 2);
  Helpers.check_close "b0=3" 2.5 (Mmo.closed_form 3);
  Helpers.check_close "b0=4" 3.2 (Mmo.closed_form 4);
  Helpers.check_close "b0=5" 4. (Mmo.closed_form 5);
  Helpers.check_close ~eps:0.005 "b0=6" 4.714 (Mmo.closed_form 6);
  Helpers.check_close "b0=7" 5.5 (Mmo.closed_form 7)

let test_mmo_asymptote () =
  Helpers.check_close "asymptote 8" 6. (Mmo.asymptote 8);
  (* closed_form(b0)/b0 -> 3/4 *)
  let ratio = Mmo.closed_form 400 /. 400. in
  Helpers.check_close ~eps:0.002 "limit 3/4" 0.75 ratio

let test_mmo_empirical_matches_closed_form () =
  (* Large complete-graph b0-matching: empirical MMO equals the block
     closed form when (b0+1) divides n. *)
  List.iter
    (fun b0 ->
      let n = 60 / (b0 + 1) * (b0 + 1) in
      let adj = Cluster.collaboration_graph ~b:(Array.make n b0) () in
      Helpers.check_close ~eps:1e-9
        (Printf.sprintf "b0=%d" b0)
        (Mmo.closed_form b0) (Mmo.of_adjacency adj))
    [ 1; 2; 3; 4; 5 ]

let test_mmo_unmated_contribute_zero () =
  Helpers.check_close "all isolated" 0. (Mmo.of_adjacency [| [||]; [||]; [||] |]);
  Helpers.check_close "empty graph" 0. (Mmo.of_adjacency [||])

(* ------------------------------------------------------------------ *)
(* Flat-row readers = adjacency readers                                *)

(* The same isolated and empty cases, read from configurations. *)
let test_flat_readers_isolated_and_empty () =
  let isolated = Cluster.stable_config ~b:[| 0; 0; 0 |] () in
  Helpers.check_close "all isolated" 0. (Mmo.of_config isolated);
  Alcotest.(check int) "three singleton clusters" 3 (Cluster.analyze_config isolated).Cluster.count;
  Alcotest.(check bool) "isolated peers are b0 = 0 blocks" true
    (Cluster.config_matches_block_structure ~b0:0 isolated);
  let empty = Cluster.stable_config ~b:[||] () in
  Helpers.check_close "empty graph" 0. (Mmo.of_config empty);
  Alcotest.(check int) "no clusters" 0 (Cluster.analyze_config empty).Cluster.count;
  Alcotest.(check bool) "empty graph has no wrong block" true
    (Cluster.config_matches_block_structure ~b0:2 empty)

let prop_flat_readers_match_adjacency =
  Helpers.qtest ~count:150 "flat-row clusters, MMO and block check = adjacency forms"
    QCheck.(
      make
        ~print:(fun (seed, n, s, bands) ->
          Printf.sprintf "seed=%d n=%d sigma_idx=%d bands=%d" seed n s bands)
        Gen.(
          let* seed = int_bound 1_000_000 in
          let* n = int_range 0 80 in
          let* s = int_range 0 2 in
          let* bands = int_range 1 4 in
          return (seed, n, s, bands)))
    (fun (seed, n, s, bands) ->
      let rng = Rng.create seed in
      let sigma = [| 0.; 0.2; 1. |].(s) in
      let b0 = 1 + Rng.int rng 4 in
      let b =
        if sigma = 0. then Normal_b.constant ~n ~b0
        else Normal_b.rounded_normal rng ~n ~mean:(float_of_int b0) ~sigma
      in
      (* Zero budgets in half the draws; the other half keeps σ = 0 on
         the exact block structure. *)
      if Rng.int rng 2 = 0 then Array.iteri (fun i _ -> if Rng.int rng 5 = 0 then b.(i) <- 0) b;
      let config = Cluster.stable_config ~bands:(Int.min bands (Int.max 1 n)) ~b () in
      let adj = Config.to_adjacency config in
      (* union-find over the same pairs: the independent oracle for the
         breadth-first segment kernel both forms share *)
      let graph = Stratify_graph.Undirected.of_edges n (fun add -> Config.iter_pairs add config) in
      Union_find.components graph
      = Stratify_graph.Components.of_segments ~off:(Config.raw_off config)
          ~deg:(Config.raw_deg config) ~data:(Config.raw_data config)
      && Cluster.analyze_config config = Cluster.analyze adj
      && Int64.bits_of_float (Mmo.of_config config) = Int64.bits_of_float (Mmo.of_adjacency adj)
      && List.for_all
           (fun b0 ->
             Cluster.config_matches_block_structure ~b0 config
             = Cluster.matches_block_structure ~n ~b0 adj)
           [ 0; b0; b0 + 1 ])

(* ------------------------------------------------------------------ *)
(* Cluster                                                             *)

let test_cluster_block_structure () =
  (* Fig 4 for several (n, b0), with and without truncated remainder. *)
  List.iter
    (fun (n, b0) ->
      let adj = Cluster.collaboration_graph ~b:(Array.make n b0) () in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d b0=%d" n b0)
        true
        (Cluster.matches_block_structure ~n ~b0 adj))
    [ (9, 2); (12, 3); (10, 3); (7, 2); (20, 4); (5, 0) ]

let test_cluster_analysis () =
  let a = Cluster.analyze_budgets ~b:(Array.make 9 2) in
  Alcotest.(check int) "three triangles" 3 a.Cluster.count;
  Alcotest.(check int) "largest" 3 a.Cluster.largest;
  Helpers.check_close "mean" 3. a.Cluster.mean_size;
  Alcotest.(check (array int)) "sizes sorted" [| 3; 3; 3 |] a.Cluster.component_sizes

let test_cluster_truncated_remainder () =
  (* n = 8, b0 = 2: two triangles + a pair. *)
  let a = Cluster.analyze_budgets ~b:(Array.make 8 2) in
  Alcotest.(check (array int)) "sizes" [| 3; 3; 2 |] a.Cluster.component_sizes

let test_predicted_block () =
  Alcotest.(check (list int)) "first block" [ 0; 1; 2 ] (Cluster.predicted_block ~n:9 ~b0:2 ~peer:1);
  Alcotest.(check (list int)) "last truncated" [ 6; 7 ] (Cluster.predicted_block ~n:8 ~b0:2 ~peer:7);
  Alcotest.(check (list int)) "b0=0 singleton" [ 5 ] (Cluster.predicted_block ~n:9 ~b0:0 ~peer:5)

let test_extra_connection_connects_fig5 () =
  (* Fig 5: b0 = 2 everywhere plus one extra slot on peer 0 chains all
     clusters together. *)
  let n = 8 in
  let b = Normal_b.with_extra (Normal_b.constant ~n ~b0:2) ~peer:0 in
  let analysis = Cluster.analyze_budgets ~b in
  Alcotest.(check int) "single component" 1 analysis.Cluster.count;
  Alcotest.(check int) "spans everyone" n analysis.Cluster.largest;
  (* Without the extra slot: disconnected (Fig 4). *)
  let base = Cluster.analyze_budgets ~b:(Normal_b.constant ~n ~b0:2) in
  Alcotest.(check bool) "baseline disconnected" true (base.Cluster.count > 1)

let test_connectivity_lower_bound () =
  (* §4.1's remark: 1-regular collaboration graphs can never be connected
     beyond a pair, and b0 = 2 gives cycles at best. *)
  let a1 = Cluster.analyze_budgets ~b:(Array.make 10 1) in
  Alcotest.(check int) "pairs only" 2 a1.Cluster.largest;
  let a2 = Cluster.analyze_budgets ~b:(Array.make 10 2) in
  Alcotest.(check bool) "b0=2 clusters of 3" true (a2.Cluster.largest <= 3)

(* ------------------------------------------------------------------ *)
(* Normal_b                                                            *)

let test_normal_b_constant_and_extra () =
  Alcotest.(check (array int)) "constant" [| 3; 3; 3 |] (Normal_b.constant ~n:3 ~b0:3);
  let b = Normal_b.with_extra [| 2; 2 |] ~peer:1 in
  Alcotest.(check (array int)) "extra" [| 2; 3 |] b

let test_normal_b_sampling () =
  let rng = Helpers.rng () in
  let b = Normal_b.rounded_normal rng ~n:5000 ~mean:6. ~sigma:0.2 in
  Array.iter (fun x -> Alcotest.(check bool) "positive" true (x >= 1)) b;
  let mean = Array.fold_left ( + ) 0 b |> float_of_int in
  Helpers.check_close ~eps:0.1 "mean near 6" 6. (mean /. 5000.);
  (* sigma = 0.2 gives mostly 6s with some 5s and 7s. *)
  let distinct = List.sort_uniq compare (Array.to_list b) in
  Alcotest.(check bool) "a few values" true (List.length distinct <= 4)

(* ------------------------------------------------------------------ *)
(* Phase transition                                                    *)

let test_phase_sigma_zero_matches_constant () =
  let rng = Helpers.rng () in
  let point = Phase.measure rng ~n:700 ~mean_b:6. ~sigma:0. ~replicates:1 in
  Helpers.check_close "cluster size b0+1" 7. point.Phase.mean_cluster_size;
  Helpers.check_close ~eps:0.01 "MMO closed form" (Mmo.closed_form 6) point.Phase.mmo

let test_phase_transition_explodes () =
  let rng = Helpers.rng ~seed:5 () in
  (* b̄ = 3 keeps cluster sizes small enough for a quick test. *)
  let points =
    Phase.sweep rng ~n:4000 ~mean_b:3. ~sigmas:[| 0.; 0.1; 0.3; 0.6 |] ~replicates:3
  in
  let base = points.(0) and after = points.(2) in
  Alcotest.(check bool)
    (Printf.sprintf "explosion: %.1f -> %.1f" base.Phase.mean_cluster_size
       after.Phase.mean_cluster_size)
    true
    (after.Phase.mean_cluster_size > 3. *. base.Phase.mean_cluster_size);
  (* MMO decreases across the transition (Fig 6's contrast). *)
  Alcotest.(check bool)
    (Printf.sprintf "MMO falls: %.2f -> %.2f" base.Phase.mmo after.Phase.mmo)
    true (after.Phase.mmo < base.Phase.mmo);
  match Phase.transition_sigma points ~threshold:2. with
  | Some s -> Alcotest.(check bool) "transition below 0.4" true (s <= 0.4)
  | None -> Alcotest.fail "no transition found"

let test_phase_invalid () =
  let rng = Helpers.rng () in
  Alcotest.check_raises "replicates" (Invalid_argument "Phase.measure: need replicates > 0")
    (fun () -> ignore (Phase.measure rng ~n:10 ~mean_b:2. ~sigma:0.1 ~replicates:0))

(* Sizes of random collaboration graphs (normal budgets fuse clusters
   of many sizes) against a comparison sort, largest first. *)
let test_cluster_sizes_sorted () =
  let rng = Rng.create 21 in
  for _ = 1 to 30 do
    let n = 1 + Rng.int rng 400 in
    let adj =
      Cluster.collaboration_graph ~b:(Normal_b.rounded_normal rng ~n ~mean:3. ~sigma:1.) ()
    in
    let a = Cluster.analyze adj in
    let expected = Array.copy (Stratify_graph.Components.of_adjacency adj).sizes in
    Array.sort (fun x y -> compare y x) expected;
    Alcotest.(check (array int)) "descending sizes" expected a.Cluster.component_sizes;
    Alcotest.(check int) "largest" expected.(0) a.Cluster.largest
  done

(* Reference block check, by list comparison. *)
let reference_blocks ~n ~b0 adj =
  Array.length adj = n
  && List.for_all
       (fun peer ->
         Array.to_list adj.(peer)
         = List.filter (fun q -> q <> peer) (Cluster.predicted_block ~n ~b0 ~peer))
       (List.init n Fun.id)

let test_block_structure_rejects () =
  let blocks n = Cluster.collaboration_graph ~b:(Array.make n 2) () in
  let with_row adj peer row =
    let adj = Array.copy adj in
    adj.(peer) <- row;
    adj
  in
  let adj = blocks 9 in
  let check what expected ~n adj =
    Alcotest.(check bool) what expected (Cluster.matches_block_structure ~n ~b0:2 adj);
    Alcotest.(check bool) (what ^ " (reference)") expected (reference_blocks ~n ~b0:2 adj)
  in
  check "the blocks" true ~n:9 adj;
  check "row too long" false ~n:9 (with_row adj 4 [| 3; 5; 6 |]);
  check "row too short" false ~n:9 (with_row adj 4 [| 3 |]);
  check "wrong mate" false ~n:9 (with_row adj 4 [| 3; 6 |]);
  check "mates out of order" false ~n:9 (with_row adj 4 [| 5; 3 |]);
  check "wrong population" false ~n:10 adj;
  (* A last block cut short where n leaves room for a full one. *)
  let short = with_row (with_row (with_row adj 6 [| 7 |]) 7 [| 6 |]) 8 [||] in
  check "short last block" false ~n:9 short;
  (* The truncated remainder n = 8 predicts is accepted, a full one is not. *)
  check "truncated remainder" true ~n:8 (blocks 8);
  check "no remainder truncation" false ~n:8 (with_row (blocks 8) 7 [| 6; 8 |]);
  Alcotest.(check bool) "b0 = 0: empty rows" true
    (Cluster.matches_block_structure ~n:3 ~b0:0 [| [||]; [||]; [||] |]);
  Alcotest.(check bool) "b0 = 0: any mate" false
    (Cluster.matches_block_structure ~n:3 ~b0:0 [| [| 1 |]; [| 0 |]; [||] |])

let suite =
  [
    Alcotest.test_case "MMO closed form (Table 1)" `Quick test_mmo_closed_form_table1;
    Alcotest.test_case "MMO asymptote 3b0/4" `Quick test_mmo_asymptote;
    Alcotest.test_case "empirical MMO = closed form" `Quick test_mmo_empirical_matches_closed_form;
    Alcotest.test_case "MMO of isolated peers" `Quick test_mmo_unmated_contribute_zero;
    Alcotest.test_case "Fig 4 block structure" `Quick test_cluster_block_structure;
    Alcotest.test_case "cluster analysis" `Quick test_cluster_analysis;
    Alcotest.test_case "truncated remainder block" `Quick test_cluster_truncated_remainder;
    Alcotest.test_case "predicted blocks" `Quick test_predicted_block;
    Alcotest.test_case "Fig 5: one extra slot reconnects" `Quick test_extra_connection_connects_fig5;
    Alcotest.test_case "connectivity lower bound (b0 >= 3)" `Quick test_connectivity_lower_bound;
    Alcotest.test_case "budget constructors" `Quick test_normal_b_constant_and_extra;
    Alcotest.test_case "rounded-normal sampling" `Quick test_normal_b_sampling;
    Alcotest.test_case "sigma = 0 reduces to constant matching" `Quick
      test_phase_sigma_zero_matches_constant;
    Alcotest.test_case "phase transition (Fig 6)" `Slow test_phase_transition_explodes;
    Alcotest.test_case "phase validation" `Quick test_phase_invalid;
    Alcotest.test_case "cluster sizes sorted largest first" `Quick test_cluster_sizes_sorted;
    Alcotest.test_case "block check rejects near misses" `Quick test_block_structure_rejects;
    Alcotest.test_case "flat readers: isolated and empty" `Quick
      test_flat_readers_isolated_and_empty;
    prop_flat_readers_match_adjacency;
  ]
