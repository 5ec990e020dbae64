(* Tests for the application-layer extensions: streaming delay analysis
   (§7), the eDonkey credit-queue baseline (§2), and swarm steady-state
   churn. *)

module Rng = Stratify_prng.Rng
module Profile = Stratify_bandwidth.Profile
module Saroiu = Stratify_bandwidth.Saroiu
module Bt = Stratify_bittorrent
module Ed = Stratify_edonkey
open Stratify_core

(* ------------------------------------------------------------------ *)
(* Streaming                                                           *)

let test_streaming_on_path () =
  let adj = [| [| 1 |]; [| 0; 2 |]; [| 1; 3 |]; [| 2 |] |] in
  let r = Streaming.measure ~adjacency:adj ~sources:[ 0 ] in
  Alcotest.(check int) "reachable" 4 r.Streaming.reachable;
  Alcotest.(check int) "unreachable" 0 r.Streaming.unreachable;
  Alcotest.(check int) "max delay" 3 r.Streaming.max_delay;
  Helpers.check_close "mean delay" 2. r.Streaming.mean_delay;
  Alcotest.(check (array int)) "histogram" [| 1; 1; 1; 1 |] r.Streaming.delay_histogram

let test_streaming_disconnected_and_multisource () =
  let adj = [| [| 1 |]; [| 0 |]; [| 3 |]; [| 2 |] |] in
  let r = Streaming.measure ~adjacency:adj ~sources:[ 0 ] in
  Alcotest.(check int) "unreachable pair" 2 r.Streaming.unreachable;
  let r2 = Streaming.measure ~adjacency:adj ~sources:[ 0; 2 ] in
  Alcotest.(check int) "multi-source covers" 0 r2.Streaming.unreachable;
  Alcotest.(check int) "delay 1" 1 r2.Streaming.max_delay;
  let d = Streaming.delay_by_rank ~adjacency:adj ~sources:[ 0 ] in
  Alcotest.(check (array int)) "per-peer delays" [| 0; 1; -1; -1 |] d

let test_streaming_stratified_vs_random () =
  (* §7's claim: a stratified collaboration graph has much larger play-out
     delay than a random graph with the same degree budget. *)
  let n = 600 in
  let rng = Helpers.rng ~seed:44 () in
  let b = Normal_b.rounded_normal rng ~n ~mean:4. ~sigma:0.5 in
  let stratified = Cluster.collaboration_graph ~b () in
  let random = Streaming.random_regular_baseline rng ~n ~degree:4 in
  let source = [ 0 ] in
  let s = Streaming.measure ~adjacency:stratified ~sources:source in
  let r = Streaming.measure ~adjacency:random ~sources:source in
  Alcotest.(check bool)
    (Printf.sprintf "stratified delay %.1f >> random %.1f" s.Streaming.mean_delay
       r.Streaming.mean_delay)
    true
    (s.Streaming.mean_delay > 3. *. r.Streaming.mean_delay)

let test_random_regular_baseline_degrees () =
  let rng = Helpers.rng ~seed:45 () in
  let adj = Streaming.random_regular_baseline rng ~n:300 ~degree:5 in
  let total = ref 0 in
  Array.iteri
    (fun v row ->
      Alcotest.(check bool) "degree cap" true (Array.length row <= 5);
      total := !total + Array.length row;
      Array.iter
        (fun w ->
          Alcotest.(check bool) "no self" true (w <> v);
          Alcotest.(check bool) "symmetric" true (Array.exists (fun x -> x = v) adj.(w)))
        row)
    adj;
  (* Pairing model loses only a few edges to rejections. *)
  Alcotest.(check bool) "nearly regular" true (!total > 300 * 5 * 9 / 10)

(* ------------------------------------------------------------------ *)
(* eDonkey credits                                                     *)

let test_credit_modifier_bounds_and_growth () =
  (* A star: peer 0's neighbours are 1, 2, 3, so client 1 is its 0th. *)
  let c = Ed.Credit.create [| [| 1; 2; 3 |]; [| 0 |]; [| 0 |]; [| 0 |] |] in
  (* Unknown client: neutral modifier 1 (sqrt(2) > 1 but ratio rule is
     inf; min(inf, sqrt 2) = 1.41 -> clamped to >= 1; eMule gives sqrt
     rule for new clients). *)
  Helpers.check_close ~eps:1e-9 "fresh client" (sqrt 2.) (Ed.Credit.modifier c ~judge:0 ~k:0);
  Ed.Credit.record_transfer c ~from_:1 ~k:0 98.;
  (* U=98, D=0: by_volume = sqrt(100) = 10. *)
  Helpers.check_close "generous client" 10. (Ed.Credit.modifier c ~judge:0 ~k:0);
  Ed.Credit.record_transfer c ~from_:0 ~k:0 980.;
  (* D=980: ratio rule 2*98/980 = 0.2 -> clamped to 1. *)
  Helpers.check_close "drained credit" 1. (Ed.Credit.modifier c ~judge:0 ~k:0);
  Alcotest.check_raises "negative volume"
    (Invalid_argument "Credit.record_transfer: negative volume") (fun () ->
      Ed.Credit.record_transfer c ~from_:0 ~k:0 (-1.));
  Alcotest.check_raises "asymmetric rows"
    (Invalid_argument "Credit.create: neighbour rows must be sorted, in range and symmetric")
    (fun () -> ignore (Ed.Credit.create [| [| 1 |]; [||] |]))

let test_credit_directionality () =
  (* Triangle: 1 is peer 2's neighbour 1, and 2 is peer 1's neighbour 1. *)
  let c = Ed.Credit.create [| [| 1; 2 |]; [| 0; 2 |]; [| 0; 1 |] |] in
  Ed.Credit.record_transfer c ~from_:2 ~k:1 50.;
  Helpers.check_close "uploaded_to" 50. (Ed.Credit.uploaded_to c ~judge:1 ~k:1);
  Helpers.check_close "not reversed" 0. (Ed.Credit.uploaded_to c ~judge:2 ~k:1);
  Helpers.check_close "downloaded_from" 50. (Ed.Credit.downloaded_from c ~judge:2 ~k:1)

(* ------------------------------------------------------------------ *)
(* eDonkey queue simulator                                             *)

let edonkey_sim ?(n = 100) ?(ticks = 600) () =
  let rng = Rng.create 7 in
  let uploads = Profile.rank_bandwidths Saroiu.profile ~n in
  let sim = Ed.Queue_sim.create rng (Ed.Queue_sim.default_params ~uploads) in
  Ed.Queue_sim.run sim ~ticks:(ticks / 2);
  Ed.Queue_sim.reset_counters sim;
  Ed.Queue_sim.run sim ~ticks:(ticks / 2);
  sim

(* Pinned outputs with and without tick faults: the credit ledger and
   the top-slot selection must reproduce every float bit for bit. *)
let check_queue_pinned what faults ~mean_wait ~strat ~downloaded ~drops =
  let rng = Rng.create 7 in
  let n = 100 in
  let uploads = Profile.rank_bandwidths Saroiu.profile ~n in
  let sim = Ed.Queue_sim.create rng { (Ed.Queue_sim.default_params ~uploads) with faults } in
  Ed.Queue_sim.run sim ~ticks:150;
  Ed.Queue_sim.reset_counters sim;
  Ed.Queue_sim.run sim ~ticks:150;
  let total = ref 0. in
  for i = 0 to n - 1 do
    total := !total +. Ed.Queue_sim.downloaded sim i
  done;
  let bits = Int64.bits_of_float in
  Alcotest.(check int64) (what ^ ": mean wait") (bits mean_wait) (bits (Ed.Queue_sim.mean_wait sim));
  Alcotest.(check int64) (what ^ ": stratification") (bits strat)
    (bits (Ed.Queue_sim.stratification_correlation sim));
  Alcotest.(check int64) (what ^ ": downloaded") (bits downloaded) (bits !total);
  Alcotest.(check int) (what ^ ": link drops") drops (Ed.Queue_sim.link_drops sim)

let test_queue_pinned () =
  check_queue_pinned "fault-free" None ~mean_wait:0x1.7fbd54a38c5edp+1
    ~strat:(-0x1.39282885c9fd3p-3) ~downloaded:0x1.3a1209f437ec9p+25 ~drops:0;
  let groups = Array.init 100 (fun p -> if p < 30 then 0 else 1) in
  let faults =
    Stratify_net.Net.Tick.create ~seed:9 ~loss:0.2
      ~schedule:
        [
          { Stratify_net.Net.Tick.at_tick = 40; groups = Some groups };
          { at_tick = 90; groups = None };
        ]
      ()
  in
  check_queue_pinned "tick faults" (Some faults) ~mean_wait:0x1.85aa0f1ad2f23p+1
    ~strat:(-0x1.2d43f4ca83832p-3) ~downloaded:0x1.fcf6908b2a00ep+24 ~drops:32488

let test_queue_conservation () =
  let sim = edonkey_sim () in
  let up = ref 0. and down = ref 0. in
  for i = 0 to Ed.Queue_sim.size sim - 1 do
    up := !up +. Ed.Queue_sim.uploaded sim i;
    down := !down +. Ed.Queue_sim.downloaded sim i
  done;
  Helpers.check_close_rel ~rel:1e-9 "conservation" !up !down;
  Alcotest.(check bool) "data flowed" true (!up > 0.)

let test_queue_aging_serves_everyone () =
  (* Queue aging guarantees that even the slowest peer downloads. *)
  let sim = edonkey_sim () in
  for i = 0 to Ed.Queue_sim.size sim - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "peer %d downloaded" i)
      true
      (Ed.Queue_sim.downloaded sim i > 0.)
  done

let test_queue_waiting_bounded () =
  let sim = edonkey_sim () in
  (* With slots=4 and ~20 known peers, a queue position waits a few
     ticks on average; aging prevents starvation-level waits. *)
  Alcotest.(check bool)
    (Printf.sprintf "mean wait %.1f bounded" (Ed.Queue_sim.mean_wait sim))
    true
    (Ed.Queue_sim.mean_wait sim < 50.)

let test_queue_weaker_stratification_than_tft () =
  (* The §2 contrast measured: same population, TFT stratifies download
     partners by bandwidth much more strongly than credit queues. *)
  let n = 120 in
  let uploads = Profile.rank_bandwidths Saroiu.profile ~n in
  let tft =
    let rng = Rng.create 9 in
    let params = { (Bt.Swarm.default_params ~uploads) with Bt.Swarm.d = 20. } in
    let swarm = Bt.Swarm.create rng params in
    Bt.Swarm.run swarm ~ticks:600;
    Bt.Metrics.stratification_correlation swarm
  in
  let edonkey =
    let rng = Rng.create 9 in
    let sim = Ed.Queue_sim.create rng (Ed.Queue_sim.default_params ~uploads) in
    Ed.Queue_sim.run sim ~ticks:600;
    Ed.Queue_sim.stratification_correlation sim
  in
  Alcotest.(check bool)
    (Printf.sprintf "TFT %.2f > eDonkey %.2f" tft edonkey)
    true (tft > edonkey)

let test_queue_determinism () =
  let r1 = Ed.Queue_sim.share_ratios (edonkey_sim ()) in
  let r2 = Ed.Queue_sim.share_ratios (edonkey_sim ()) in
  Alcotest.(check bool) "deterministic" true (r1 = r2)

let test_queue_validation () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "too small" (Invalid_argument "Queue_sim.create: need at least two peers")
    (fun () -> ignore (Ed.Queue_sim.create rng (Ed.Queue_sim.default_params ~uploads:[| 1. |])));
  Alcotest.check_raises "no slots" (Invalid_argument "Queue_sim.create: need at least one slot")
    (fun () ->
      ignore
        (Ed.Queue_sim.create rng
           { (Ed.Queue_sim.default_params ~uploads:(Array.make 4 1.)) with Ed.Queue_sim.slots = 0 }))

(* ------------------------------------------------------------------ *)
(* Swarm steady churn                                                  *)

let test_piece_recycling () =
  let rng = Rng.create 11 in
  let n = 30 in
  let uploads = Array.make n 16. in
  let params =
    {
      (Bt.Swarm.default_params ~uploads) with
      Bt.Swarm.d = 12.;
      piece = Some { Bt.Swarm.pieces = 40; piece_size = 4.; init_fraction = 0.5; seeds = 1 };
    }
  in
  let swarm = Bt.Swarm.create rng params in
  Bt.Swarm.run swarm ~ticks:50;
  let progress_naming_5 () =
    let sent = ref 0 and received = ref 0 in
    Bt.Swarm.iter_link_progress swarm (fun s r _ ->
        if s = 5 then incr sent;
        if r = 5 then incr received);
    (!sent, !received)
  in
  let sent, received = progress_naming_5 () in
  Alcotest.(check bool)
    (Printf.sprintf "peer 5 has progress both ways before (%d sent, %d received)" sent received)
    true
    (sent > 0 && received > 0);
  Bt.Swarm.recycle_peer swarm 5;
  Alcotest.(check (pair int int)) "no progress names the recycled peer" (0, 0)
    (progress_naming_5 ());
  (match Bt.Swarm.field swarm 5 with
  | Some f ->
      Alcotest.(check int) "emptied" 0 (Bt.Piece.count f);
      Alcotest.(check bool) "not complete" false (Bt.Piece.is_complete f)
  | None -> Alcotest.fail "piece mode expected");
  Alcotest.(check (list int)) "unchoked cleared" [] (Bt.Swarm.unchoked swarm 5);
  Helpers.check_close "counters cleared" 0. (Bt.Swarm.uploaded swarm 5);
  (* Nobody still references the recycled peer in its choke state. *)
  for i = 0 to n - 1 do
    if i <> 5 then begin
      Alcotest.(check bool) "not unchoked by others" false
        (List.mem 5 (Bt.Swarm.unchoked swarm i));
      Alcotest.(check bool) "not optimistic of others" false (Bt.Swarm.optimistic swarm i = 5)
    end
  done;
  (* The swarm keeps running fine afterwards. *)
  Bt.Swarm.run swarm ~ticks:100;
  Alcotest.(check bool) "recycled peer downloads again" true
    (Bt.Swarm.downloaded swarm 5 > 0.);
  (* ...and keeps the neighbour invariant recycling relies on: choke
     and progress state name knowledge-graph neighbours only. *)
  let neighbour what i q =
    Alcotest.(check bool) (Printf.sprintf "%s: %d -> %d" what i q) true
      (Bt.Swarm.is_neighbor swarm i q)
  in
  for i = 0 to n - 1 do
    List.iter (neighbour "unchoke" i) (Bt.Swarm.unchoked swarm i);
    let o = Bt.Swarm.optimistic swarm i in
    if o >= 0 then neighbour "optimistic" i o
  done;
  Bt.Swarm.iter_link_progress swarm (fun s r _ -> neighbour "progress" s r)

let test_steady_churn_runs () =
  let rng = Rng.create 12 in
  let n = 40 in
  let uploads = Array.init n (fun i -> if i = 0 then 100. else 30. +. float_of_int (i mod 7)) in
  let report =
    Bt.Scenario.steady_churn rng ~uploads ~pieces:50 ~piece_size:4. ~d:12. ~warmup:300
      ~measure:600
  in
  Alcotest.(check bool)
    (Printf.sprintf "departures %d > 10" report.Bt.Scenario.departures)
    true
    (report.Bt.Scenario.departures > 10);
  Alcotest.(check bool) "positive time in system" true
    (report.Bt.Scenario.mean_time_in_system > 0.);
  Alcotest.(check bool) "positive throughput" true (report.Bt.Scenario.swarm_throughput > 0.)

let suite =
  [
    Alcotest.test_case "streaming on a path" `Quick test_streaming_on_path;
    Alcotest.test_case "streaming: disconnection and multi-source" `Quick
      test_streaming_disconnected_and_multisource;
    Alcotest.test_case "streaming: stratification costs delay" `Quick
      test_streaming_stratified_vs_random;
    Alcotest.test_case "random regular baseline" `Quick test_random_regular_baseline_degrees;
    Alcotest.test_case "credit modifier bounds" `Quick test_credit_modifier_bounds_and_growth;
    Alcotest.test_case "credit directionality" `Quick test_credit_directionality;
    Alcotest.test_case "queue conservation" `Slow test_queue_conservation;
    Alcotest.test_case "queue aging serves everyone" `Slow test_queue_aging_serves_everyone;
    Alcotest.test_case "queue waiting bounded" `Slow test_queue_waiting_bounded;
    Alcotest.test_case "TFT stratifies more than credit queues" `Slow
      test_queue_weaker_stratification_than_tft;
    Alcotest.test_case "queue determinism" `Slow test_queue_determinism;
    Alcotest.test_case "queue validation" `Quick test_queue_validation;
    Alcotest.test_case "queue outputs pinned" `Quick test_queue_pinned;
    Alcotest.test_case "peer recycling" `Quick test_piece_recycling;
    Alcotest.test_case "steady churn lifecycle" `Slow test_steady_churn_runs;
  ]
