(* Rank-banded sharded matching: the cluster-cut renewal scan, band
   snapping, and the headline property — the sharded solve is identical
   to the unsharded greedy for any band count and backend (Theorem 1's
   uniqueness makes "blocking-pair-free" mean "equal"); sparse backends
   get there by not banding at all. *)

module Rng = Stratify_prng.Rng
module Obs = Stratify_obs
open Stratify_core

let expect_invalid what f =
  match f () with
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s names the offence: %s" what msg)
        true
        (String.length msg > 0)
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what

let test_band_validation () =
  let inst = Instance.complete ~n:6 ~b:(Array.make 6 1) () in
  expect_invalid "stable_config jobs = 0" (fun () -> Shard.stable_config ~jobs:0 inst);
  expect_invalid "stable_config bands = 0" (fun () -> Shard.stable_config ~bands:0 inst);
  expect_invalid "stable_config bands > n" (fun () -> Shard.stable_config ~bands:7 inst);
  (* A sparse backend ignores [bands] but still validates it. *)
  let sparse = Helpers.random_instance (Rng.create 3) ~n:6 ~p:0.5 ~bmax:2 in
  expect_invalid "sparse bands = 0" (fun () -> Shard.stable_config ~bands:0 sparse);
  expect_invalid "sparse bands > n" (fun () -> Shard.stable_config ~bands:7 sparse)

(* ------------------------------------------------------------------ *)
(* Cluster cuts (renewal points)                                       *)

let test_cuts_constant_budgets () =
  (* Constant b0: §4's block structure — cuts at every multiple of b0+1. *)
  let n = 17 and b0 = 2 in
  let inst = Instance.complete ~n ~b:(Array.make n b0) () in
  let expected = List.init ((n / (b0 + 1)) + 1) (fun i -> i * (b0 + 1)) @ [ n ] in
  let expected = List.sort_uniq Int.compare expected in
  Alcotest.(check (list int)) "multiples of b0+1" expected
    (Array.to_list (Shard.cluster_cuts inst))

let prop_cuts_are_crossing_free =
  Helpers.qtest ~count:120 "no stable pair crosses a cut (complete family)"
    QCheck.(
      make
        ~print:(fun (seed, n, bmax, removals) ->
          Printf.sprintf "seed=%d n=%d bmax=%d removals=%d" seed n bmax removals)
        Gen.(
          let* seed = int_bound 1_000_000 in
          let* n = int_range 1 60 in
          let* bmax = int_range 0 4 in
          let* removals = int_range 0 5 in
          return (seed, n, bmax, removals)))
    (fun (seed, n, bmax, removals) ->
      let rng = Rng.create seed in
      let b = Array.init n (fun _ -> Rng.int rng (bmax + 1)) in
      let removed = List.init (min removals n) (fun _ -> Rng.int rng n) in
      let inst =
        if removals = 0 then Instance.complete ~n ~b ()
        else Instance.complete_minus ~n ~b ~removed ()
      in
      let cuts = Shard.cluster_cuts inst in
      let stable = Greedy.stable_config inst in
      Array.for_all
        (fun s ->
          let crossed = ref false in
          Config.iter_pairs (fun p q -> if p < s && q >= s then crossed := true) stable;
          not !crossed)
        cuts
      && cuts.(0) = 0
      && cuts.(Array.length cuts - 1) = n)

let test_snap_ranges_dedup () =
  (* Cuts sparser than bands: snapped boundaries collapse and the
     effective band count drops instead of splitting a cluster. *)
  let ranges = Shard.snap_ranges ~n:12 ~bands:6 [| 0; 6; 12 |] in
  Alcotest.(check int) "two effective bands" 2 (Array.length ranges);
  Alcotest.(check (list (pair int int)))
    "bands partition [0, n) at the cut"
    [ (0, 6); (6, 12) ]
    (Array.to_list (Array.map (fun r -> (r.Shard.lo, r.Shard.hi)) ranges));
  (* One giant cluster: everything collapses to a single band. *)
  Alcotest.(check int) "giant cluster -> one band" 1
    (Array.length (Shard.snap_ranges ~n:12 ~bands:6 [| 0; 12 |]))

(* ------------------------------------------------------------------ *)
(* Sharded = unsharded (the headline invariance)                       *)

let check_sharded_equal inst ~bands =
  let reference = Greedy.stable_config inst in
  let sharded = Shard.stable_config ~bands inst in
  Blocking.is_stable sharded
  && Config.signature sharded = Config.signature reference
  && Config.edge_count sharded = Config.edge_count reference
  && Config.raw_thresh sharded = Config.raw_thresh reference
  (* two domains filling disjoint rows of one configuration *)
  && Config.equal (Shard.stable_config ~jobs:2 ~bands inst) sharded

let shard_params =
  QCheck.make
    ~print:(fun (seed, n, bmax, bands) ->
      Printf.sprintf "seed=%d n=%d bmax=%d bands=%d" seed n bmax bands)
    QCheck.Gen.(
      let* seed = int_bound 1_000_000 in
      let* n = int_range 1 60 in
      let* bands = int_range 1 8 in
      let* bmax = int_range 0 4 in
      return (seed, n, bmax, min bands (max 1 n)))

let prop_complete_band_invariance =
  Helpers.qtest ~count:150 "complete: sharded = greedy for any bands" shard_params
    (fun (seed, n, bmax, bands) ->
      let rng = Rng.create seed in
      let b = Array.init n (fun _ -> Rng.int rng (bmax + 1)) in
      check_sharded_equal (Instance.complete ~n ~b ()) ~bands)

let prop_complete_minus_band_invariance =
  Helpers.qtest ~count:150 "complete_minus: sharded = greedy for any bands" shard_params
    (fun (seed, n, bmax, bands) ->
      let rng = Rng.create seed in
      let b = Array.init n (fun _ -> Rng.int rng (bmax + 1)) in
      let removed = List.init (Rng.int rng (1 + (n / 3))) (fun _ -> Rng.int rng n) in
      check_sharded_equal (Instance.complete_minus ~n ~b ~removed ()) ~bands)

let prop_dense_band_invariance =
  Helpers.qtest ~count:150 "dense: sharded = greedy for any bands" shard_params
    (fun (seed, n, bmax, bands) ->
      check_sharded_equal (Helpers.random_instance (Rng.create seed) ~n ~p:0.4 ~bmax) ~bands)

let test_sparse_routing () =
  (* A sparse acceptance graph has no rank cuts: [bands] is validated
     and then ignored, so a banded call is exactly one greedy build. *)
  let count name = Obs.Counter.value (Obs.Counter.make name) in
  let rng = Rng.create 13 in
  let dense = Helpers.random_instance rng ~n:40 ~p:0.3 ~bmax:3 in
  let dynamic = Churn.world_instance (Churn.make_world rng ~n:40 ~d:5. ~b:2) in
  List.iter
    (fun (what, kind, inst) ->
      Alcotest.(check bool) (what ^ " backend") true (Instance.backend_kind inst = kind);
      let reference = Greedy.stable_config inst in
      let builds = count "greedy.stable_config" and bands = count "shard.bands" in
      let sharded =
        Obs.Control.with_enabled true (fun () -> Shard.stable_config ~bands:4 inst)
      in
      Alcotest.(check bool) (what ^ ": equals the greedy") true (Config.equal sharded reference);
      Alcotest.(check int) (what ^ ": one greedy build") 1
        (count "greedy.stable_config" - builds);
      Alcotest.(check int) (what ^ ": no bands") 0 (count "shard.bands" - bands))
    [ ("dense", `Dense, dense); ("dynamic", `Dynamic, dynamic) ]

(* ------------------------------------------------------------------ *)
(* Churn: sharded solve of a live dynamic world                        *)

let test_churn_repair_under_sharding () =
  (* Drive a dynamic-backend world through churn, then check the
     sharded solve of the live instance against the world's own
     incremental stable reference. *)
  let rng = Rng.create 77 in
  let n = 36 and d = 5. and b = 2 in
  let w = Churn.make_world rng ~n ~d ~b in
  let p = d /. float_of_int (n - 1) in
  for _ = 1 to 20 do
    Churn.churn_event rng w ~p;
    for _ = 1 to 2 do
      Churn.initiative_step rng w Initiative.Best_mate
    done
  done;
  let inst = Churn.world_instance w in
  let reference = Config.signature (Churn.world_stable w) in
  List.iter
    (fun bands ->
      Alcotest.(check string)
        (Printf.sprintf "%d bands match the churn-repaired reference" bands)
        reference
        (Config.signature (Shard.stable_config ~bands inst)))
    [ 1; 2; 5 ]

(* ------------------------------------------------------------------ *)
(* Arena reuse: scratch buffers must never change a result             *)

let prop_arena_reuse_identical =
  (* One arena threaded through many differently-sized solves: the
     scratch arrays carry stale contents from the previous instance, so
     any dependence on initial buffer state would show up as a
     signature mismatch against the fresh-allocation path. *)
  let arena = Greedy.create_arena () in
  Helpers.qtest ~count:100 "reused arena = fresh allocation (greedy + sharded)" shard_params
    (fun (seed, n, bmax, bands) ->
      let rng = Rng.create seed in
      let b = Array.init n (fun _ -> Rng.int rng (bmax + 1)) in
      let inst = Instance.complete ~n ~b () in
      Config.signature (Greedy.stable_config ~arena inst)
      = Config.signature (Greedy.stable_config inst)
      && Config.signature (Shard.stable_config ~bands ~arena inst)
         = Config.signature (Shard.stable_config ~bands inst)
      && Shard.cluster_cuts ~arena inst = Shard.cluster_cuts inst)

let test_churn_repair_arena_identical () =
  (* The same arena re-solves the live world after every churn batch;
     each solve must match the arena-free solve, for both the pure
     greedy path (bands = 1) and the banded path. *)
  let rng = Rng.create 91 in
  let n = 36 and d = 5. and b = 2 in
  let w = Churn.make_world rng ~n ~d ~b in
  let p = d /. float_of_int (n - 1) in
  let arena = Greedy.create_arena () in
  for epoch = 1 to 5 do
    for _ = 1 to 4 do
      Churn.churn_event rng w ~p;
      Churn.initiative_step rng w Initiative.Best_mate
    done;
    let inst = Churn.world_instance w in
    List.iter
      (fun bands ->
        Alcotest.(check string)
          (Printf.sprintf "epoch %d, %d bands: arena solve = fresh solve" epoch bands)
          (Config.signature (Shard.stable_config ~bands inst))
          (Config.signature (Shard.stable_config ~bands ~arena inst)))
      [ 1; 3; 5 ]
  done

let suite =
  [
    Alcotest.test_case "named validation errors" `Quick test_band_validation;
    Alcotest.test_case "cuts on constant budgets" `Quick test_cuts_constant_budgets;
    prop_cuts_are_crossing_free;
    Alcotest.test_case "snap_ranges dedup" `Quick test_snap_ranges_dedup;
    prop_complete_band_invariance;
    prop_complete_minus_band_invariance;
    prop_dense_band_invariance;
    Alcotest.test_case "sparse backends solve unsharded" `Quick test_sparse_routing;
    Alcotest.test_case "churn repair under sharding" `Quick test_churn_repair_under_sharding;
    prop_arena_reuse_identical;
    Alcotest.test_case "churn repair with reused arena" `Quick test_churn_repair_arena_identical;
  ]
