(* Utility playground: the generic matching framework beyond global
   rankings - symmetric (latency) utilities, blended utilities and
   adversarial cycles.

   Run with:  dune exec examples/utility_playground.exe *)

module Rng = Stratify_prng.Rng
module Gen = Stratify_graph.Gen
module Spatial = Stratify_graph.Spatial
module U = Stratify_graph.Undirected
module Output = Stratify_cli.Output
open Stratify_core

let () =
  let rng = Rng.create 77 in
  let n = 60 in

  Output.section "A latency world";
  let positions = Spatial.random_positions rng ~n in
  let dist = Spatial.distance positions in
  let latency = Utility.symmetric_distance dist in
  Output.note "latency utilities are symmetric: %b" (Utility.is_symmetric latency ~n);
  let acceptance = U.adjacency_arrays (Gen.complete n) in
  let gm = General_matching.create ~utility:latency ~acceptance ~b:(Array.make n 2) in
  let s = Symmetric_greedy.stable_state gm ~utility:latency in
  Output.note "greedy max-utility matching is stable: %b" (General_matching.is_stable gm s);
  let mean_dist =
    let total = ref 0. and k = ref 0 in
    for p = 0 to n - 1 do
      List.iter
        (fun q ->
          total := !total +. dist p q;
          incr k)
        (General_matching.State.mates s p)
    done;
    !total /. float_of_int !k
  in
  Output.note "mean partner distance %.3f (uniform pairs: ~0.52) - proximity clusters"
    mean_dist;

  Output.section "An adversarial world: cyclic utilities";
  let cyclic = Utility.of_function (fun p q -> if (p + 1) mod 3 = q then 2. else 1.) in
  let k3 = [| [| 1; 2 |]; [| 0; 2 |]; [| 0; 1 |] |] in
  let g3 = General_matching.create ~utility:cyclic ~acceptance:k3 ~b:[| 1; 1; 1 |] in
  Output.note "stable configuration exists: %b" (General_matching.exists_stable g3);
  (match General_matching.best_response_run g3 ~max_steps:1000 rng with
  | General_matching.Cycled { period_found_at } ->
      Output.note "best-response dynamics revisited a configuration after %d steps"
        period_found_at
  | General_matching.Converged _ -> Output.note "unexpected convergence!");

  Output.section "Blending ranking with latency";
  let ranking_u = Utility.of_function (fun _ q -> float_of_int (n - q)) in
  List.iter
    (fun alpha ->
      let blended = Utility.blend ranking_u latency ~alpha in
      let g = General_matching.create ~utility:blended ~acceptance ~b:(Array.make n 2) in
      match General_matching.best_response_run g ~max_steps:100_000 rng with
      | General_matching.Converged { steps } ->
          Output.note "alpha=%.2f: converged in %d steps" alpha steps
      | General_matching.Cycled _ -> Output.note "alpha=%.2f: dynamics cycled" alpha)
    [ 0.; 0.3; 0.7; 1. ]
