(* Shared test utilities: deterministic RNGs, random-instance generators,
   float assertions. *)

module Rng = Stratify_prng.Rng
module Gen = Stratify_graph.Gen
module Core = Stratify_core

let rng ?(seed = 42) () = Rng.create seed

let check_close ?(eps = 1e-9) what expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g (eps %.3g)" what expected actual eps

let check_close_rel ?(rel = 1e-6) what expected actual =
  let scale = Float.max 1e-12 (Float.abs expected) in
  if Float.abs (expected -. actual) /. scale > rel then
    Alcotest.failf "%s: expected %.12g, got %.12g (rel %.3g)" what expected actual rel

(* A random global-ranking instance: ER acceptance graph over n peers with
   identity ranking and budgets drawn in [0, bmax]. *)
let random_instance rng ~n ~p ~bmax =
  let graph = Gen.gnp rng ~n ~p in
  let b = Array.init n (fun _ -> Rng.int rng (bmax + 1)) in
  Core.Instance.create ~graph ~b ()

(* QCheck generator wrapper producing (seed, n, p, bmax) tuples; tests
   re-derive everything deterministically from the seed so shrinking
   stays meaningful. *)
let instance_params =
  QCheck.make
    ~print:(fun (seed, n, p, bmax) -> Printf.sprintf "seed=%d n=%d p=%.2f bmax=%d" seed n p bmax)
    QCheck.Gen.(
      let* seed = int_bound 1_000_000 in
      let* n = int_range 1 24 in
      let* p10 = int_range 0 10 in
      let* bmax = int_range 0 4 in
      return (seed, n, float_of_int p10 /. 10., bmax))

(* One-sample Kolmogorov-Smirnov statistic: the largest gap between the
   empirical CDF of [samples] and the reference CDF [f]. *)
let ks_distance_to samples f =
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let n = float_of_int (Array.length sorted) in
  let worst = ref 0. in
  Array.iteri
    (fun i x ->
      let reference = f x in
      let upper = (float_of_int (i + 1) /. n) -. reference in
      let lower = reference -. (float_of_int i /. n) in
      worst := Float.max !worst (Float.max upper lower))
    sorted;
  !worst

(* Substring membership, for asserting on error-message fragments. *)
let contains s sub =
  let ls = String.length s and lsub = String.length sub in
  let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
  go 0

let qtest ?(count = 200) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)
