module Rng = Stratify_prng.Rng
module Dist = Stratify_prng.Dist
module Splitmix64 = Stratify_prng.Splitmix64
module Xoshiro256 = Stratify_prng.Xoshiro256

let test_splitmix_reference () =
  (* Published SplitMix64 vectors for seed 1234567. *)
  let g = Splitmix64.create 1234567L in
  let expected = [| 0x599ed017fb08fc85L; 0x2c73f08458540fa5L; 0x883ebce5a3f27c77L |] in
  Array.iter
    (fun e -> Alcotest.(check int64) "splitmix64 output" e (Splitmix64.next g))
    expected

let test_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_copy_replays () =
  let a = Rng.create 9 in
  for _ = 1 to 10 do
    ignore (Rng.int64 a)
  done;
  let b = Rng.copy a in
  for _ = 1 to 50 do
    Alcotest.(check int64) "copy replays" (Rng.int64 a) (Rng.int64 b)
  done

let test_split_diverges () =
  let a = Rng.create 11 in
  let child = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 child then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 4)

let test_int_range () =
  let g = Rng.create 1 in
  for _ = 1 to 10_000 do
    let x = Rng.int g 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_int_uniformity () =
  let g = Rng.create 5 in
  let counts = Array.make 8 0 in
  let trials = 80_000 in
  for _ = 1 to trials do
    let x = Rng.int g 8 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c ->
      let expected = trials / 8 in
      Alcotest.(check bool) "within 5% of uniform" true (abs (c - expected) < expected / 20))
    counts

let test_unit_float_range_and_mean () =
  let g = Rng.create 2 in
  let sum = ref 0. in
  let trials = 100_000 in
  for _ = 1 to trials do
    let x = Rng.unit_float g in
    if x < 0. || x >= 1. then Alcotest.fail "unit_float out of [0,1)";
    sum := !sum +. x
  done;
  Helpers.check_close ~eps:0.01 "mean ~ 0.5" 0.5 (!sum /. float_of_int trials)

let test_bernoulli () =
  let g = Rng.create 3 in
  let hits = ref 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    if Rng.bernoulli g 0.3 then incr hits
  done;
  Helpers.check_close ~eps:0.01 "p=0.3" 0.3 (float_of_int !hits /. float_of_int trials)

let test_int_in () =
  let g = Rng.create 4 in
  for _ = 1 to 1000 do
    let x = Rng.int_in g (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (x >= -5 && x <= 5)
  done;
  Alcotest.(check int) "singleton range" 3 (Rng.int_in g 3 3)

let test_invalid_args () =
  let g = Rng.create 1 in
  Alcotest.check_raises "Rng.int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int g 0));
  Alcotest.check_raises "empty range" (Invalid_argument "Rng.int_in: empty range") (fun () ->
      ignore (Rng.int_in g 4 3))

let moments name trials sampler expected_mean expected_sd tol =
  let g = Rng.create 77 in
  let acc = Stratify_stats.Online.create () in
  for _ = 1 to trials do
    Stratify_stats.Online.add acc (sampler g)
  done;
  Helpers.check_close ~eps:tol (name ^ " mean") expected_mean (Stratify_stats.Online.mean acc);
  Helpers.check_close ~eps:tol (name ^ " sd") expected_sd (Stratify_stats.Online.stddev acc)

let test_normal_moments () =
  moments "normal(3,2)" 200_000 (fun g -> Dist.normal g ~mu:3. ~sigma:2.) 3. 2. 0.03

let test_exponential_moments () =
  moments "exp(0.5)" 200_000 (fun g -> Dist.exponential g ~rate:0.5) 2. 2. 0.04

let test_geometric_moments () =
  (* mean (1-p)/p = 3, sd sqrt(1-p)/p = sqrt(12) *)
  moments "geom(0.25)" 200_000
    (fun g -> float_of_int (Dist.geometric g ~p:0.25))
    3. (sqrt 12.) 0.05

let test_poisson_moments () =
  moments "poisson(6)" 100_000 (fun g -> float_of_int (Dist.poisson g ~lambda:6.)) 6. (sqrt 6.) 0.05;
  (* Large-lambda normal-approximation branch. *)
  moments "poisson(100)" 50_000
    (fun g -> float_of_int (Dist.poisson g ~lambda:100.))
    100. 10. 0.35

let test_binomial_moments () =
  moments "binom(20,0.3)" 100_000
    (fun g -> float_of_int (Dist.binomial g ~n:20 ~p:0.3))
    6.
    (sqrt (20. *. 0.3 *. 0.7))
    0.05

let test_binomial_extremes () =
  let g = Rng.create 8 in
  Alcotest.(check int) "p=0" 0 (Dist.binomial g ~n:50 ~p:0.);
  Alcotest.(check int) "p=1" 50 (Dist.binomial g ~n:50 ~p:1.);
  Alcotest.(check int) "n=0" 0 (Dist.binomial g ~n:0 ~p:0.5)

let test_zipf_support_and_monotone () =
  let g = Rng.create 12 in
  let counts = Array.make 10 0 in
  for _ = 1 to 50_000 do
    let k = Dist.zipf g ~n:10 ~s:1.2 in
    Alcotest.(check bool) "in [1,10]" true (k >= 1 && k <= 10);
    counts.(k - 1) <- counts.(k - 1) + 1
  done;
  Alcotest.(check bool) "rank 1 most frequent" true (counts.(0) > counts.(1));
  Alcotest.(check bool) "rank 2 > rank 5" true (counts.(1) > counts.(4))

let test_zipf_chi_square () =
  (* Goodness of fit of [Zipf.draw] against its own [probability] mass.
     chi² over 10 cells with 9 degrees of freedom: the 99.9th percentile
     is 27.88, so a correct sampler fails with probability < 0.1% — and
     deterministically never, given the fixed seed. *)
  let n = 10 and s = 1.2 and draws = 100_000 in
  let z = Dist.Zipf.create ~n ~s in
  Alcotest.(check int) "size" n (Dist.Zipf.size z);
  let g = Rng.create 42 in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let k = Dist.Zipf.draw z g in
    counts.(k - 1) <- counts.(k - 1) + 1
  done;
  let chi2 = ref 0. in
  for k = 1 to n do
    let expected = float_of_int draws *. Dist.Zipf.probability z k in
    let diff = float_of_int counts.(k - 1) -. expected in
    chi2 := !chi2 +. (diff *. diff /. expected)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "chi2 %.2f < 27.88 (df=9, p=0.001)" !chi2)
    true (!chi2 < 27.88);
  (* The mass function itself must be Zipf: p(k) ∝ k^-s, normalised. *)
  let h = ref 0. in
  for k = 1 to n do
    h := !h +. (1. /. Float.pow (float_of_int k) s)
  done;
  for k = 1 to n do
    Helpers.check_close ~eps:1e-12
      (Printf.sprintf "p(%d)" k)
      (1. /. Float.pow (float_of_int k) s /. !h)
      (Dist.Zipf.probability z k)
  done

let test_zipf_wrapper_matches_table () =
  (* The backward-compatible [zipf] wrapper must consume the rng stream
     exactly like a fresh-table draw. *)
  let a = Rng.create 9 and b = Rng.create 9 in
  let z = Dist.Zipf.create ~n:50 ~s:0.8 in
  for _ = 1 to 1_000 do
    Alcotest.(check int) "same draw" (Dist.zipf a ~n:50 ~s:0.8) (Dist.Zipf.draw z b)
  done;
  Alcotest.check_raises "n=0 rejected" (Invalid_argument "Dist.zipf: n must be positive")
    (fun () -> ignore (Dist.Zipf.create ~n:0 ~s:1.));
  Alcotest.check_raises "rank out of range"
    (Invalid_argument "Dist.Zipf.probability: rank out of range") (fun () ->
      ignore (Dist.Zipf.probability z 51))

let test_rounded_positive_normal () =
  let g = Rng.create 13 in
  for _ = 1 to 10_000 do
    let b = Dist.rounded_positive_normal g ~mean:1.2 ~sigma:3. in
    Alcotest.(check bool) "positive" true (b >= 1)
  done;
  Alcotest.(check int) "sigma=0 rounds" 6 (Dist.rounded_positive_normal g ~mean:6.4 ~sigma:0.);
  Alcotest.(check int) "sigma=0 clamps" 1 (Dist.rounded_positive_normal g ~mean:(-3.) ~sigma:0.)

let test_shuffle_is_permutation () =
  let g = Rng.create 14 in
  let a = Array.init 100 (fun i -> i) in
  Dist.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 (fun i -> i)) sorted

let test_shuffle_uniform_first_element () =
  let g = Rng.create 15 in
  let counts = Array.make 5 0 in
  for _ = 1 to 50_000 do
    let a = [| 0; 1; 2; 3; 4 |] in
    Dist.shuffle g a;
    counts.(a.(0)) <- counts.(a.(0)) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "within 7% of uniform" true (abs (c - 10_000) < 700))
    counts

let test_sample_without_replacement () =
  let g = Rng.create 16 in
  for _ = 1 to 200 do
    let k = Rng.int g 20 and n = 20 + Rng.int g 100 in
    let s = Dist.sample_without_replacement g ~k ~n in
    Alcotest.(check int) "size" k (Array.length s);
    let seen = Hashtbl.create 16 in
    Array.iter
      (fun x ->
        Alcotest.(check bool) "in range" true (x >= 0 && x < n);
        if Hashtbl.mem seen x then Alcotest.fail "duplicate sample";
        Hashtbl.add seen x ())
      s
  done;
  (* Dense corner: k = n. *)
  let all = Dist.sample_without_replacement g ~k:10 ~n:10 in
  let sorted = Array.copy all in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "k=n is a permutation" (Array.init 10 (fun i -> i)) sorted

let test_alias_method () =
  let g = Rng.create 17 in
  let weights = [| 1.; 0.; 3.; 6. |] in
  let alias = Dist.Alias.of_weights weights in
  Helpers.check_close "prob 0" 0.1 (Dist.Alias.probability alias 0);
  Helpers.check_close "prob 1" 0. (Dist.Alias.probability alias 1);
  let counts = Array.make 4 0 in
  let trials = 200_000 in
  for _ = 1 to trials do
    let k = Dist.Alias.draw alias g in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check int) "zero-weight outcome never drawn" 0 counts.(1);
  Helpers.check_close ~eps:0.01 "freq 3" 0.6 (float_of_int counts.(3) /. float_of_int trials);
  Helpers.check_close ~eps:0.01 "freq 2" 0.3 (float_of_int counts.(2) /. float_of_int trials)

let test_alias_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Dist.Alias.of_weights: empty weights")
    (fun () -> ignore (Dist.Alias.of_weights [||]));
  Alcotest.check_raises "zero total"
    (Invalid_argument "Dist.Alias.of_weights: total weight must be positive") (fun () ->
      ignore (Dist.Alias.of_weights [| 0.; 0. |]))

let test_xoshiro_jump_disjoint () =
  (* After a jump, the streams should not collide over a short horizon. *)
  let a = Xoshiro256.create 99L in
  let b = Xoshiro256.copy a in
  Xoshiro256.jump b;
  let collisions = ref 0 in
  for _ = 1 to 1000 do
    if Xoshiro256.next a = Xoshiro256.next b then incr collisions
  done;
  Alcotest.(check int) "no collisions" 0 !collisions

(* Pinned vectors: the published xoshiro256++ outputs for state
   (1, 2, 3, 4), the state after one [jump] from it, and the first four
   draws of [Rng.create 42] through each front-end conversion.  Any
   change to the state layout or the draw paths must reproduce them. *)
let test_xoshiro_reference () =
  let g = Xoshiro256.of_state [| 1L; 2L; 3L; 4L |] in
  List.iter
    (fun e -> Alcotest.(check int64) "xoshiro256++ output" e (Xoshiro256.next g))
    [ 41943041L; 58720359L; 3588806011781223L; 3591011842654386L ];
  let g = Xoshiro256.of_state [| 1L; 2L; 3L; 4L |] in
  Xoshiro256.jump g;
  Alcotest.(check (array int64))
    "state after one jump"
    [| -8324317625228856367L; 8079205330032121950L; 7289065458748526725L; -8969279818415701936L |]
    (Xoshiro256.state g)

let test_rng_pinned_stream () =
  let r = Rng.create 42 in
  let u = Rng.unit_float r in
  let i = Rng.int r 1000 in
  let b = Rng.bits30 r in
  let w = Rng.int64 r in
  Alcotest.(check int64) "unit_float bits" (Int64.bits_of_float 0x1.692f85e78bb15p-1)
    (Int64.bits_of_float u);
  Alcotest.(check int) "int 1000" 599 i;
  Alcotest.(check int) "bits30" 404669198 b;
  Alcotest.(check int64) "int64" 3904583925562820495L w

let test_state_round_trip () =
  let a = Rng.create 31 in
  for _ = 1 to 17 do
    ignore (Rng.int64 a)
  done;
  let words = Rng.state a in
  let b = Rng.of_state words in
  let c = Rng.create 1 in
  Rng.set_state c words;
  let d = Rng.copy a in
  Alcotest.(check (array int64)) "state of a rebuilt source" words (Rng.state b);
  (* Neither rebuild may alias the caller's array. *)
  Array.fill words 0 4 7L;
  for _ = 1 to 64 do
    let x = Rng.int64 a in
    Alcotest.(check int64) "of_state replays" x (Rng.int64 b);
    Alcotest.(check int64) "set_state replays" x (Rng.int64 c);
    Alcotest.(check int64) "copy replays" x (Rng.int64 d)
  done;
  Alcotest.check_raises "zero state"
    (Invalid_argument "Xoshiro256: the all-zero state is invalid") (fun () ->
      Rng.set_state c [| 0L; 0L; 0L; 0L |])

(* The state is a byte buffer read and written in place, so a draw
   allocates at most the boxed int64 a non-inlined [Xoshiro256.next]
   returns (3 words; 0 once inlined in a release build) plus, for
   [unit_float], its boxed float result (2 words). *)
let test_draws_allocation_bound () =
  let r = Rng.create 5 in
  let draws = 100_000 in
  let per_draw f =
    let before = Gc.minor_words () in
    for _ = 1 to draws do
      f ()
    done;
    (Gc.minor_words () -. before) /. float_of_int draws
  in
  let sink = ref 0 and fsink = ref 0. in
  let bits = per_draw (fun () -> sink := !sink lxor Rng.bits30 r) in
  let unit = per_draw (fun () -> fsink := Rng.unit_float r) in
  Alcotest.(check bool) (Printf.sprintf "bits30 %.2f words/draw <= 3" bits) true (bits <= 3.);
  Alcotest.(check bool) (Printf.sprintf "unit_float %.2f words/draw <= 5" unit) true (unit <= 5.)

let suite =
  [
    Alcotest.test_case "splitmix64 reference vectors" `Quick test_splitmix_reference;
    Alcotest.test_case "determinism by seed" `Quick test_determinism;
    Alcotest.test_case "copy replays stream" `Quick test_copy_replays;
    Alcotest.test_case "split diverges" `Quick test_split_diverges;
    Alcotest.test_case "int within bound" `Quick test_int_range;
    Alcotest.test_case "int uniformity" `Slow test_int_uniformity;
    Alcotest.test_case "unit_float range and mean" `Slow test_unit_float_range_and_mean;
    Alcotest.test_case "bernoulli frequency" `Slow test_bernoulli;
    Alcotest.test_case "int_in inclusive range" `Quick test_int_in;
    Alcotest.test_case "invalid arguments rejected" `Quick test_invalid_args;
    Alcotest.test_case "normal moments" `Slow test_normal_moments;
    Alcotest.test_case "exponential moments" `Slow test_exponential_moments;
    Alcotest.test_case "geometric moments" `Slow test_geometric_moments;
    Alcotest.test_case "poisson moments (both branches)" `Slow test_poisson_moments;
    Alcotest.test_case "binomial moments" `Slow test_binomial_moments;
    Alcotest.test_case "binomial extremes" `Quick test_binomial_extremes;
    Alcotest.test_case "zipf support and monotonicity" `Slow test_zipf_support_and_monotone;
    Alcotest.test_case "zipf chi-square fit" `Slow test_zipf_chi_square;
    Alcotest.test_case "zipf wrapper = precomputed table" `Quick test_zipf_wrapper_matches_table;
    Alcotest.test_case "rounded positive normal" `Quick test_rounded_positive_normal;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "shuffle first-element uniformity" `Slow test_shuffle_uniform_first_element;
    Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
    Alcotest.test_case "alias method frequencies" `Slow test_alias_method;
    Alcotest.test_case "alias method invalid input" `Quick test_alias_invalid;
    Alcotest.test_case "xoshiro jump gives disjoint streams" `Quick test_xoshiro_jump_disjoint;
    Alcotest.test_case "xoshiro256++ reference vector and jump" `Quick test_xoshiro_reference;
    Alcotest.test_case "pinned stream from seed 42" `Quick test_rng_pinned_stream;
    Alcotest.test_case "state round trip mid-stream" `Quick test_state_round_trip;
    Alcotest.test_case "draws stay within the allocation bound" `Quick test_draws_allocation_bound;
  ]
