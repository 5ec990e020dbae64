(* Tests for the discrete-event engine and the asynchronous
   message-passing initiative protocol. *)

module Rng = Stratify_prng.Rng
module Gen = Stratify_graph.Gen
module Engine = Stratify_des.Engine
module Net = Stratify_net.Net
module Series = Stratify_stats.Series
open Stratify_core

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let test_engine_clock_and_order () =
  let e = Engine.create () in
  let log = ref [] in
  let name = [| "a"; "b"; "c" |] in
  Engine.set_packed_handler e (fun e code -> log := (name.(code), Engine.now e) :: !log);
  Engine.schedule_packed e ~delay:2. 1;
  Engine.schedule_packed e ~delay:1. 0;
  Engine.schedule_packed e ~delay:3. 2;
  Engine.run_until e ~time:2.5;
  Alcotest.(check (list (pair string (float 1e-9)))) "two fired" [ ("a", 1.); ("b", 2.) ]
    (List.rev !log);
  Helpers.check_close "clock advanced" 2.5 (Engine.now e);
  Alcotest.(check int) "one pending" 1 (Engine.pending e);
  Alcotest.(check bool) "drain rest" true (Engine.drain e);
  Alcotest.(check (list string)) "all fired" [ "a"; "b"; "c" ] (List.rev_map fst !log)

let test_engine_cascading_events () =
  let e = Engine.create () in
  let count = ref 0 in
  (* code = the number of events still to follow *)
  Engine.set_packed_handler e (fun engine depth ->
      incr count;
      if depth > 0 then Engine.schedule_packed engine ~delay:1. (depth - 1));
  Engine.schedule_packed e ~delay:0. 9;
  Alcotest.(check bool) "drained" true (Engine.drain e);
  Alcotest.(check int) "chain length" 10 !count;
  Helpers.check_close "time advanced" 9. (Engine.now e)

let test_engine_runaway_guard () =
  let e = Engine.create () in
  Engine.set_packed_handler e (fun engine code -> Engine.schedule_packed engine ~delay:1. code);
  Engine.schedule_packed e ~delay:0. 0;
  Alcotest.(check bool) "budget stops it" false (Engine.drain ~max_events:1000 e)

let test_engine_guards () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule_packed: negative delay -1")
    (fun () -> Engine.schedule_packed e ~delay:(-1.) 0);
  Engine.run_until e ~time:5.;
  Alcotest.check_raises "past"
    (Invalid_argument "Engine.schedule_packed_at: time 1 is in the past (now 5)")
    (fun () -> Engine.schedule_packed_at e ~time:1. 0)

(* ------------------------------------------------------------------ *)
(* Async dynamics                                                      *)

let async_world ?(n = 150) ?(d = 10.) ?(seed = 42) ?(loss = 0.) ~latency () =
  let rng = Rng.create seed in
  let graph = Gen.gnd rng ~n ~d in
  let inst = Instance.create ~graph ~b:(Array.make n 1) () in
  let stable = Greedy.stable_config inst in
  let a = Async_dynamics.create inst rng { Async_dynamics.latency; initiative_rate = 1.; loss } in
  (inst, stable, a)

let check_drains msg a =
  Alcotest.(check bool) msg true (Async_dynamics.quiesce a = Async_dynamics.Drained)

let test_async_low_latency_converges () =
  let _, stable, a = async_world ~latency:0.05 () in
  Async_dynamics.run a ~horizon:120.;
  check_drains "drains" a;
  let final = Async_dynamics.mutual_config a in
  Alcotest.(check int) "no inconsistency" 0 (Async_dynamics.inconsistency_count a);
  Helpers.check_close "reaches the stable configuration" 0.
    (Disorder.disorder final ~stable);
  Alcotest.(check bool) "stable" true (Blocking.is_stable final)

let test_async_latency_degrades_gracefully () =
  let disorder_at latency =
    let _, stable, a = async_world ~latency () in
    Async_dynamics.run a ~horizon:100.;
    ignore (Async_dynamics.quiesce a);
    Disorder.disorder (Async_dynamics.mutual_config a) ~stable
  in
  let fast = disorder_at 0.05 and slow = disorder_at 5. in
  Alcotest.(check bool)
    (Printf.sprintf "latency hurts: %.4f < %.4f" fast slow)
    true (fast < slow);
  Alcotest.(check bool) "but bounded" true (slow < 0.6)

let test_async_eventual_consistency () =
  (* Even at brutal latency, quiescing leaves at most a handful of
     one-sided listings (keepalive audits repair the rest while live). *)
  let _, _, a = async_world ~latency:5. ~seed:7 () in
  Async_dynamics.run a ~horizon:150.;
  check_drains "drains" a;
  let incons = Async_dynamics.inconsistency_count a in
  Alcotest.(check bool) (Printf.sprintf "inconsistency %d <= 4" incons) true (incons <= 4)

let test_async_capacity_respected () =
  (* Local capacity invariant holds at every sampled instant. *)
  let inst, _, a = async_world ~latency:1. ~seed:9 () in
  for _ = 1 to 20 do
    Async_dynamics.run a ~horizon:5.;
    let config = Async_dynamics.mutual_config a in
    for p = 0 to Instance.n inst - 1 do
      Alcotest.(check bool) "degree <= b" true (Config.degree config p <= Instance.slots inst p)
    done
  done

let test_async_trajectory () =
  let _, stable, a = async_world ~latency:0.1 ~seed:11 () in
  let traj = Async_dynamics.disorder_trajectory a ~stable ~horizon:250. ~samples:25 in
  Alcotest.(check int) "26 points" 26 (Series.length traj);
  Alcotest.(check bool) "starts high" true (snd traj.Series.points.(0) > 0.5);
  (* Random-strategy initiatives have a slow convergence tail; near-zero
     suffices here (exact convergence is covered by the quiesced test). *)
  Alcotest.(check bool)
    (Printf.sprintf "near stable (%.4f)" (Series.final_value traj))
    true
    (Series.final_value traj < 0.02);
  Alcotest.(check bool) "messages flowed" true (Async_dynamics.messages_sent a > 1000)

let test_async_message_loss () =
  (* Failure injection: 15% of messages silently vanish.  Keepalive audits
     keep the protocol safe - it still converges close to the stable
     configuration, with losses actually recorded. *)
  let _, stable, a = async_world ~latency:0.1 ~loss:0.15 ~seed:13 () in
  Async_dynamics.run a ~horizon:250.;
  check_drains "drains" a;
  Alcotest.(check bool) "losses happened" true (Async_dynamics.messages_lost a > 100);
  let disorder = Disorder.disorder (Async_dynamics.mutual_config a) ~stable in
  Alcotest.(check bool)
    (Printf.sprintf "near stable despite loss (%.4f)" disorder)
    true (disorder < 0.05);
  Alcotest.(check bool) "few residual inconsistencies" true
    (Async_dynamics.inconsistency_count a <= 6)

let test_async_determinism () =
  let run () =
    let _, stable, a = async_world ~latency:0.5 ~seed:21 () in
    Async_dynamics.run a ~horizon:50.;
    (Async_dynamics.messages_sent a, Disorder.disorder (Async_dynamics.mutual_config a) ~stable)
  in
  Alcotest.(check bool) "bit-for-bit deterministic" true (run () = run ())

let test_async_guards () =
  let rng = Rng.create 1 in
  let inst = Instance.create ~graph:(Gen.path 3) ~b:[| 1; 1; 1 |] () in
  Alcotest.check_raises "negative latency" (Invalid_argument "Async_dynamics: negative latency")
    (fun () ->
      ignore (Async_dynamics.create inst rng { Async_dynamics.latency = -1.; initiative_rate = 1.; loss = 0. }));
  Alcotest.check_raises "bad rate" (Invalid_argument "Async_dynamics: rate must be positive")
    (fun () ->
      ignore (Async_dynamics.create inst rng { Async_dynamics.latency = 0.1; initiative_rate = 0.; loss = 0. }));
  (* an infinite rate re-arms every clock at delay 0: run_until never ends *)
  Alcotest.check_raises "infinite rate" (Invalid_argument "Async_dynamics: rate must be finite")
    (fun () ->
      ignore
        (Async_dynamics.create inst rng
           { Async_dynamics.latency = 0.1; initiative_rate = infinity; loss = 0. }));
  List.iter
    (fun loss ->
      Alcotest.check_raises "bad loss" (Invalid_argument "Async_dynamics: loss must be in [0,1)")
        (fun () ->
          ignore
            (Async_dynamics.create inst rng
               { Async_dynamics.latency = 0.1; initiative_rate = 1.; loss })))
    [ 1.; nan ]

(* Outputs pinned under three network setups.  They hold only while the
   protocol makes every RNG draw and schedules every (time, seq) event
   exactly as before, so any change to the message encoding or the
   network pipeline that shifts one shows up here. *)
let pinned_world seed =
  let rng = Rng.create seed in
  let n = 120 in
  let graph = Gen.gnd rng ~n ~d:10. in
  let b = Array.init n (fun _ -> 1 + Rng.int rng 3) in
  let inst = Instance.create ~graph ~b () in
  (rng, n, inst, Greedy.stable_config inst)

let config_checksum c =
  let h = ref 0x811c9dc5 in
  Config.iter_pairs
    (fun p q -> h := ((!h * 16777619) lxor ((p lsl 20) lxor q)) land ((1 lsl 50) - 1))
    c;
  !h

let check_pinned what a ~stable ~sent ~lost ~incons ~disorder_bits ~checksum =
  Async_dynamics.run a ~horizon:40.;
  check_drains (what ^ ": drains") a;
  let config = Async_dynamics.mutual_config a in
  Alcotest.(check int) (what ^ ": messages sent") sent (Async_dynamics.messages_sent a);
  Alcotest.(check int) (what ^ ": messages lost") lost (Async_dynamics.messages_lost a);
  Alcotest.(check int) (what ^ ": inconsistency") incons (Async_dynamics.inconsistency_count a);
  Alcotest.(check int64) (what ^ ": disorder bits") disorder_bits
    (Int64.bits_of_float (Disorder.disorder config ~stable));
  Alcotest.(check int) (what ^ ": mutual config checksum") checksum (config_checksum config)

let test_async_pinned_ideal () =
  let rng, _, inst, stable = pinned_world 21 in
  let a =
    Async_dynamics.create inst rng { Async_dynamics.latency = 0.1; initiative_rate = 1.; loss = 0. }
  in
  check_pinned "constant latency" a ~stable ~sent:12056 ~lost:0 ~incons:0
    ~disorder_bits:4584371115665182616L ~checksum:812289203269769

let test_async_pinned_iid_loss () =
  let rng, _, inst, stable = pinned_world 22 in
  let a =
    Async_dynamics.create inst rng
      { Async_dynamics.latency = 0.1; initiative_rate = 1.; loss = 0.15 }
  in
  check_pinned "15% i.i.d. loss" a ~stable ~sent:11667 ~lost:1740 ~incons:2
    ~disorder_bits:4594652148924976017L ~checksum:634503561331536

let test_async_pinned_faulty_net () =
  let rng, n, inst, stable = pinned_world 23 in
  let net =
    Net.create rng
      {
        Net.latency = Net.Jitter { base = 0.05; spread = 0.2 };
        loss = Net.Burst { p_gb = 0.05; p_bg = 0.3; loss_good = 0.01; loss_bad = 0.5 };
        duplicate = 0.05;
        reorder = 0.1;
        reorder_spread = 0.3;
      }
  in
  let groups = Array.init n (fun p -> p mod 2) in
  Net.set_partition_schedule net
    [ { Net.at = 5.; groups = Some groups }; { Net.at = 12.; groups = None } ];
  let a =
    Async_dynamics.create ~net inst rng
      { Async_dynamics.latency = 0.; initiative_rate = 1.; loss = 0. }
  in
  check_pinned "burst loss, jitter, duplication, reordering, partition" a ~stable ~sent:11442
    ~lost:1291 ~incons:3 ~disorder_bits:4586449080047648908L ~checksum:117011343766971;
  Alcotest.(check (list int))
    "delivered, lost, partitioned, duplicated, reordered"
    [ 10644; 750; 541; 493; 1075 ]
    [ Net.delivered net; Net.lost net; Net.partitioned net; Net.duplicated net; Net.reordered net ]

let suite =
  [
    Alcotest.test_case "engine clock and order" `Quick test_engine_clock_and_order;
    Alcotest.test_case "engine cascading events" `Quick test_engine_cascading_events;
    Alcotest.test_case "engine runaway guard" `Quick test_engine_runaway_guard;
    Alcotest.test_case "engine guards" `Quick test_engine_guards;
    Alcotest.test_case "async: low latency converges" `Slow test_async_low_latency_converges;
    Alcotest.test_case "async: latency degrades gracefully" `Slow
      test_async_latency_degrades_gracefully;
    Alcotest.test_case "async: eventual consistency" `Slow test_async_eventual_consistency;
    Alcotest.test_case "async: capacity respected" `Slow test_async_capacity_respected;
    Alcotest.test_case "async: disorder trajectory" `Slow test_async_trajectory;
    Alcotest.test_case "async: survives message loss" `Slow test_async_message_loss;
    Alcotest.test_case "async: deterministic per seed" `Slow test_async_determinism;
    Alcotest.test_case "async: guards" `Quick test_async_guards;
    Alcotest.test_case "async: pinned outputs, constant latency" `Quick test_async_pinned_ideal;
    Alcotest.test_case "async: pinned outputs, i.i.d. loss" `Quick test_async_pinned_iid_loss;
    Alcotest.test_case "async: pinned outputs, faulty net" `Quick test_async_pinned_faulty_net;
  ]
