(* Tests for the stratify.net fault-injection layer and the declarative
   scenario harness. *)

module Rng = Stratify_prng.Rng
module Engine = Stratify_des.Engine
module Net = Stratify_net.Net
module Plan = Stratify_net_plan.Plan
module Obs = Stratify_obs
module Bt = Stratify_bittorrent
open Stratify_core

let ideal_faults latency =
  { (Net.ideal ~latency ()) with Net.loss = Net.No_loss }

let with_loss latency loss =
  { Net.latency = Net.Constant latency; loss; duplicate = 0.; reorder = 0.; reorder_spread = 0. }

(* A network whose handler ignores every delivery. *)
let sink_net rng faults =
  let net = Net.create rng faults in
  Net.set_handler net (fun _ _ -> ());
  net

(* Message [k] from [src] to [dst]: the kind carries [k]. *)
let msg ~src ~dst k = Net.Packed.pack ~kind:k ~src ~dst

(* ------------------------------------------------------------------ *)
(* Delivery pipeline                                                   *)

let test_ideal_delivery () =
  let net = Net.create (Helpers.rng ()) (ideal_faults 0.5) in
  let log = ref [] in
  Net.set_handler net (fun e code -> log := (Net.Packed.kind code, Engine.now e) :: !log);
  for k = 0 to 4 do
    Net.send net ~src:0 ~dst:1 (msg ~src:0 ~dst:1 k)
  done;
  Alcotest.(check bool) "drains" true (Engine.drain (Net.engine net));
  Alcotest.(check (list (pair int (float 1e-9))))
    "all delivered in send order at constant latency"
    [ (0, 0.5); (1, 0.5); (2, 0.5); (3, 0.5); (4, 0.5) ]
    (List.rev !log);
  Alcotest.(check int) "sent" 5 (Net.sent net);
  Alcotest.(check int) "delivered" 5 (Net.delivered net);
  Alcotest.(check int) "nothing dropped" 0 (Net.dropped net)

let test_iid_loss_rate =
  Helpers.qtest ~count:30 "net: i.i.d. loss rate within CI bounds"
    QCheck.(
      make
        ~print:(fun (seed, p10) -> Printf.sprintf "seed=%d p=%.1f" seed (float_of_int p10 /. 10.))
        Gen.(
          let* seed = int_bound 1_000_000 in
          let* p10 = int_range 1 5 in
          return (seed, p10)))
    (fun (seed, p10) ->
      let p = float_of_int p10 /. 10. in
      let sends = 3000 in
      let net = sink_net (Rng.create seed) (with_loss 0.1 (Net.Iid p)) in
      for _ = 1 to sends do
        Net.send net ~src:0 ~dst:1 0
      done;
      ignore (Engine.drain (Net.engine net));
      let rate = float_of_int (Net.lost net) /. float_of_int sends in
      (* 4.5 sigma of a binomial proportion: false-failure odds ~ 1e-5. *)
      let bound = 4.5 *. sqrt (p *. (1. -. p) /. float_of_int sends) in
      Float.abs (rate -. p) <= bound)

let test_burst_loss_stationary () =
  let model = Net.Burst { p_gb = 0.1; p_bg = 0.3; loss_good = 0.05; loss_bad = 0.6 } in
  Helpers.check_close "stationary formula" 0.1875 (Net.stationary_loss model);
  let net = sink_net (Helpers.rng ()) (with_loss 0.1 model) in
  let sends = 20_000 in
  for _ = 1 to sends do
    Net.send net ~src:0 ~dst:1 0
  done;
  ignore (Engine.drain (Net.engine net));
  let rate = float_of_int (Net.lost net) /. float_of_int sends in
  (* Burst losses are correlated, so the CI is much wider than binomial;
     0.03 is ~6x the observed run-to-run spread. *)
  Alcotest.(check bool)
    (Printf.sprintf "burst rate %.4f near stationary 0.1875" rate)
    true
    (Float.abs (rate -. 0.1875) <= 0.03)

(* The Gilbert–Elliott link table, draw for draw against the
   [(int * int)]-keyed [Hashtbl] model it replaced (copied here as the
   oracle): 2.5·10⁴ sends over 2500 links whose ids reach
   [Packed.max_id] must lose the same messages and leave the RNG at the
   same position. *)
let test_burst_links_match_hashtbl () =
  let p_gb = 0.05 and p_bg = 0.25 and loss_good = 0.01 and loss_bad = 0.5 in
  let net_rng = Rng.create 2024 in
  let net =
    Net.create ~engine:(Engine.create ()) net_rng
      (with_loss 0.05 (Net.Burst { p_gb; p_bg; loss_good; loss_bad }))
  in
  let model_rng = Rng.create 2024 in
  let states : (int * int, bool ref) Hashtbl.t = Hashtbl.create 64 in
  let model_drop ~src ~dst =
    let state =
      match Hashtbl.find_opt states (src, dst) with
      | Some s -> s
      | None ->
          let s = ref false in
          Hashtbl.replace states (src, dst) s;
          s
    in
    (state := if !state then not (Rng.bernoulli model_rng p_bg) else Rng.bernoulli model_rng p_gb);
    let p = if !state then loss_bad else loss_good in
    p > 0. && Rng.bernoulli model_rng p
  in
  let pick = Rng.create 7 in
  let max_id = Net.Packed.max_id in
  let links =
    Array.init 2500 (fun i ->
        match i with
        | 0 -> (0, 0)
        | 1 -> (max_id, max_id)
        | 2 -> (0, max_id)
        | 3 -> (max_id, 0)
        | _ when i < 1000 -> (Rng.int pick 64, Rng.int pick 64)
        | _ -> (Rng.int pick (max_id + 1), Rng.int pick (max_id + 1)))
  in
  let mismatches = ref 0 in
  for _ = 1 to 25_000 do
    let src, dst = links.(Rng.int pick (Array.length links)) in
    let lost = Net.lost net in
    Net.send net ~src ~dst (msg ~src ~dst 1);
    if Net.lost net - lost = 1 <> model_drop ~src ~dst then incr mismatches
  done;
  Alcotest.(check int) "same loss verdict on every send" 0 !mismatches;
  Alcotest.(check bool)
    "messages were both lost and delivered" true
    (Net.lost net > 1000 && Net.delivered net > 1000);
  Alcotest.(check int64) "RNG at the same position" (Rng.int64 model_rng) (Rng.int64 net_rng);
  Alcotest.(check bool)
    "an id beyond Packed.max_id is refused" true
    (try
       Net.send net ~src:(max_id + 1) ~dst:0 0;
       false
     with Invalid_argument msg -> Helpers.contains msg "burst loss")

let test_duplication () =
  let net = sink_net (Helpers.rng ()) { (ideal_faults 0.1) with Net.duplicate = 0.4 } in
  let sends = 1000 in
  for _ = 1 to sends do
    Net.send net ~src:0 ~dst:1 0
  done;
  ignore (Engine.drain (Net.engine net));
  Alcotest.(check int) "every duplicate delivered"
    (sends + Net.duplicated net)
    (Net.delivered net);
  Alcotest.(check bool) "duplicates happened" true (Net.duplicated net > 200)

let test_reordering () =
  let net =
    Net.create (Helpers.rng ())
      { (ideal_faults 1.) with Net.reorder = 0.5; reorder_spread = 10. }
  in
  let log = ref [] in
  Net.set_handler net (fun _ code -> log := Net.Packed.kind code :: !log);
  for k = 0 to 19 do
    Net.send net ~src:0 ~dst:1 (msg ~src:0 ~dst:1 k)
  done;
  ignore (Engine.drain (Net.engine net));
  let order = List.rev !log in
  Alcotest.(check int) "all delivered" 20 (List.length order);
  Alcotest.(check bool) "reorders recorded" true (Net.reordered net > 0);
  Alcotest.(check bool) "delivery order differs from send order" true
    (order <> List.init 20 Fun.id);
  Alcotest.(check (list int)) "same message set" (List.init 20 Fun.id) (List.sort compare order)

let test_partition_and_heal () =
  let net = Net.create (Helpers.rng ()) (ideal_faults 0.1) in
  Net.set_partition_schedule net
    [
      { Net.at = 1.; groups = Some [| 0; 0; 1; 1 |] };
      { Net.at = 5.; groups = None };
    ];
  let delivered = ref 0 in
  Net.set_handler net (fun _ _ -> incr delivered);
  let engine = Net.engine net in
  Alcotest.(check bool) "reachable before split" true (Net.reachable net ~src:0 ~dst:3);
  Net.send net ~src:0 ~dst:3 0;
  Engine.run_until engine ~time:2.;
  Alcotest.(check int) "pre-split message crossed" 1 !delivered;
  Alcotest.(check bool) "unreachable across split" false (Net.reachable net ~src:0 ~dst:3);
  Net.send net ~src:0 ~dst:3 0;
  Net.send net ~src:2 ~dst:3 0;
  Engine.run_until engine ~time:4.;
  Alcotest.(check int) "cross-group dropped, within-group crossed" 2 !delivered;
  Alcotest.(check int) "partition drop recorded" 1 (Net.partitioned net);
  Engine.run_until engine ~time:6.;
  Net.send net ~src:0 ~dst:3 0;
  ignore (Engine.drain engine);
  Alcotest.(check int) "heal restores delivery" 3 !delivered

(* Split/heal events keep their (time, seq) place among packed events:
   a trigger scheduled at a split or heal time before the partition
   schedule fires before the change, one scheduled after it fires after.
   Triggers A and C precede [set_partition_schedule]; B and D follow it.
   Each sends across the split, so A crosses, B and C are partitioned,
   and D crosses.  A lazy port (applying a change once [now >= at]) or
   a re-sequenced one fails here. *)
let test_partition_events_keep_their_place () =
  let net = Net.create (Helpers.rng ()) (ideal_faults 0.1) in
  let engine = Net.engine net in
  let delivered = ref [] in
  (* kind k < 8: trigger k sends message 8 + k across the split *)
  Net.set_handler net (fun _ code ->
      let k = Net.Packed.kind code in
      if k < 8 then Net.send net ~src:0 ~dst:1 (msg ~src:0 ~dst:1 (8 + k))
      else delivered := (k - 8) :: !delivered);
  let trigger k time = Engine.schedule_packed_at engine ~time (msg ~src:0 ~dst:0 k) in
  trigger 0 1.;
  trigger 2 2.;
  Net.set_partition_schedule net
    [ { Net.at = 1.; groups = Some [| 0; 1 |] }; { Net.at = 2.; groups = None } ];
  trigger 1 1.;
  trigger 3 2.;
  Alcotest.(check int) "all six pending" 6 (Engine.pending engine);
  Engine.run_until engine ~time:1.5;
  Alcotest.(check bool) "split applied" false (Net.reachable net ~src:0 ~dst:1);
  Alcotest.(check (list int)) "A crossed" [ 0 ] !delivered;
  Alcotest.(check int) "B partitioned" 1 (Net.partitioned net);
  Alcotest.(check int) "C, heal and D pending" 3 (Engine.pending engine);
  Alcotest.(check bool) "drains" true (Engine.drain engine);
  Alcotest.(check bool) "healed" true (Net.reachable net ~src:0 ~dst:1);
  Alcotest.(check (list int)) "A and D crossed" [ 0; 3 ] (List.rev !delivered);
  Alcotest.(check int) "B and C partitioned" 2 (Net.partitioned net);
  Alcotest.(check int) "sent" 4 (Net.sent net)

let test_net_guards () =
  let rng = Helpers.rng () in
  let check_invalid what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  check_invalid "loss 1.0" (fun () -> Net.create rng (with_loss 0.1 (Net.Iid 1.)));
  check_invalid "negative latency" (fun () -> Net.create rng (ideal_faults (-0.1)));
  check_invalid "negative spread" (fun () ->
      Net.create rng { (ideal_faults 0.1) with Net.reorder_spread = -1. });
  check_invalid "duplicate out of range" (fun () ->
      Net.create rng { (ideal_faults 0.1) with Net.duplicate = 1.5 })

(* [nan] and [inf] pass every [x < 0.] and [p >= 1.] test, so each fault
   field is checked finite: the error names the function, the field
   and the value. *)
let test_net_non_finite () =
  let rng = Helpers.rng () in
  let base = ideal_faults 0.1 in
  let burst p_gb p_bg loss_good loss_bad = Net.Burst { p_gb; p_bg; loss_good; loss_bad } in
  List.iter
    (fun x ->
      let value = Printf.sprintf "%g" x in
      List.iter
        (fun (field, faults) ->
          match Net.create rng faults with
          | exception Invalid_argument msg ->
              List.iter
                (fun fragment ->
                  if not (Helpers.contains msg fragment) then
                    Alcotest.failf "%s = %s: error %S does not name %S" field value msg fragment)
                [ "Net.create"; field; value ]
          | _ -> Alcotest.failf "%s = %s accepted" field value)
        ([
           ("latency", { base with Net.latency = Net.Constant x });
           ("latency base", { base with Net.latency = Net.Jitter { base = x; spread = 0.1 } });
           ("jitter spread", { base with Net.latency = Net.Jitter { base = 0.1; spread = x } });
           ("log-normal mu", { base with Net.latency = Net.Log_normal { mu = x; sigma = 0.1 } });
           ("log-normal sigma", { base with Net.latency = Net.Log_normal { mu = 0.; sigma = x } });
           ("reorder_spread", { base with Net.reorder_spread = x });
         ]
        @
        if Float.is_nan x then
          [
            ("loss", { base with Net.loss = Net.Iid x });
            ("p_gb", { base with Net.loss = burst x 0.1 0. 0.5 });
            ("p_bg", { base with Net.loss = burst 0.1 x 0. 0.5 });
            ("loss_good", { base with Net.loss = burst 0.1 0.1 x 0.5 });
            ("loss_bad", { base with Net.loss = burst 0.1 0.1 0. x });
            ("duplicate", { base with Net.duplicate = x });
            ("reorder", { base with Net.reorder = x });
          ]
        else []))
    [ nan; infinity ]

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)

(* A randomized workload over a faulty, partitioned network: the full
   delivery trace (message id, delivery time) must be a pure function of
   the seed. *)
let delivery_trace seed =
  let rng = Rng.create seed in
  let faults =
    {
      Net.latency = Net.Jitter { base = 0.05; spread = 0.5 };
      loss = Net.Iid 0.2;
      duplicate = 0.1;
      reorder = 0.2;
      reorder_spread = 1.;
    }
  in
  let net = Net.create rng faults in
  let n = 6 in
  (* Random split/heal schedule derived from the same seed. *)
  let schedule_rng = Rng.create (seed + 1) in
  let events =
    List.init 4 (fun k ->
        let at = (float_of_int k *. 2.) +. Rng.float schedule_rng 1. in
        let groups =
          if Rng.bool schedule_rng then None
          else Some (Array.init n (fun _ -> Rng.int schedule_rng 2))
        in
        { Net.at; groups })
  in
  Net.set_partition_schedule net events;
  let trace = ref [] in
  let engine = Net.engine net in
  (* trigger [k] (kind 0) sends message [k] (kind 1) *)
  Net.set_handler net (fun e code ->
      let k = Net.Packed.src code in
      if Net.Packed.kind code = 0 then begin
        let src = Rng.int rng n and dst = Rng.int rng n in
        Net.send net ~src ~dst (Net.Packed.pack ~kind:1 ~src:k ~dst:0)
      end
      else trace := (k, Engine.now e) :: !trace);
  for k = 0 to 79 do
    Engine.schedule_packed_at engine ~time:(float_of_int k *. 0.1)
      (Net.Packed.pack ~kind:0 ~src:k ~dst:0)
  done;
  ignore (Engine.drain engine);
  List.rev !trace

let test_trace_determinism =
  Helpers.qtest ~count:30 "net: delivery trace is a pure function of the seed"
    QCheck.(int_bound 1_000_000)
    (fun seed -> delivery_trace seed = delivery_trace seed)

(* An explicitly-constructed fault-free network must be draw-for-draw
   identical to the legacy direct path Async_dynamics builds itself. *)
let async_outcome ~explicit_net seed =
  let rng = Rng.create seed in
  let graph = Stratify_graph.Gen.gnd rng ~n:100 ~d:10. in
  let inst = Instance.create ~graph ~b:(Array.make 100 1) () in
  let stable = Greedy.stable_config inst in
  let params = { Async_dynamics.latency = 0.1; initiative_rate = 1.; loss = 0.15 } in
  let a =
    if explicit_net then begin
      let net = Net.create rng (with_loss params.Async_dynamics.latency (Net.Iid 0.15)) in
      Async_dynamics.create ~net inst rng params
    end
    else Async_dynamics.create inst rng params
  in
  Async_dynamics.run a ~horizon:60.;
  let outcome = Async_dynamics.quiesce a in
  ( Async_dynamics.messages_sent a,
    Async_dynamics.messages_lost a,
    Async_dynamics.inconsistency_count a,
    Disorder.disorder (Async_dynamics.mutual_config a) ~stable,
    outcome )

let test_explicit_net_bit_identical () =
  Alcotest.(check bool) "explicit fault-free-config net == legacy path" true
    (async_outcome ~explicit_net:true 17 = async_outcome ~explicit_net:false 17)

(* Gossip-discovered acceptance graph + async dynamics under 10% loss:
   the protocol still reaches a stable configuration of the discovered
   instance. *)
let test_gossip_async_under_loss =
  Helpers.qtest ~count:5 "net: gossip + async converge under 10% loss"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 50 in
      let g = Gossip.create rng ~n ~view_size:8 in
      for _ = 1 to 5 do
        Gossip.round g
      done;
      let graph = Gossip.acceptance_graph g in
      let inst = Instance.create ~graph ~b:(Array.make n 1) () in
      let stable = Greedy.stable_config inst in
      let net = Net.create rng (with_loss 0.1 (Net.Iid 0.1)) in
      let a =
        Async_dynamics.create ~net inst rng
          { Async_dynamics.latency = 0.1; initiative_rate = 1.; loss = 0.1 }
      in
      Async_dynamics.run a ~horizon:300.;
      let outcome = Async_dynamics.quiesce a in
      outcome = Async_dynamics.Drained
      && Async_dynamics.inconsistency_count a = 0
      && Disorder.disorder (Async_dynamics.mutual_config a) ~stable <= 0.05)

(* ------------------------------------------------------------------ *)
(* Tick-level faults (swarm)                                           *)

let test_tick_purity_and_rate () =
  let tick = Net.Tick.create ~seed:42 ~loss:0.3 () in
  (* Pure: same (tick, src, dst) always answers the same. *)
  let a = Net.Tick.passes tick ~tick:3 ~src:1 ~dst:2 in
  Alcotest.(check bool) "idempotent verdict" a (Net.Tick.passes tick ~tick:3 ~src:1 ~dst:2);
  (* Empirical rate over many independent keys. *)
  let drops = ref 0 in
  let total = 10_000 in
  for k = 0 to total - 1 do
    if not (Net.Tick.passes tick ~tick:k ~src:(k mod 7) ~dst:(k mod 11)) then incr drops
  done;
  let rate = float_of_int !drops /. float_of_int total in
  Alcotest.(check bool)
    (Printf.sprintf "hash loss rate %.4f near 0.3" rate)
    true
    (Float.abs (rate -. 0.3) <= 4.5 *. sqrt (0.3 *. 0.7 /. float_of_int total));
  Alcotest.(check bool) "drops counted" true (Net.Tick.drops tick > 0)

let test_tick_partition_schedule () =
  let tick =
    Net.Tick.create ~seed:1 ~loss:0.
      ~schedule:
        [
          { Net.Tick.at_tick = 5; groups = Some [| 0; 0; 1; 1 |] };
          { Net.Tick.at_tick = 10; groups = None };
        ]
      ()
  in
  Net.Tick.advance tick ~tick:0;
  Alcotest.(check bool) "connected before" true (Net.Tick.connected tick ~src:0 ~dst:3);
  Net.Tick.advance tick ~tick:5;
  Alcotest.(check bool) "cross-group cut" false (Net.Tick.connected tick ~src:0 ~dst:3);
  Alcotest.(check bool) "within-group open" true (Net.Tick.connected tick ~src:2 ~dst:3);
  Alcotest.(check bool) "passes respects partition" false
    (Net.Tick.passes tick ~tick:6 ~src:0 ~dst:3);
  Net.Tick.advance tick ~tick:11;
  Alcotest.(check bool) "healed" true (Net.Tick.connected tick ~src:0 ~dst:3)

let swarm_uploaded ~faults seed =
  let rng = Rng.create seed in
  let uploads = Array.init 20 (fun i -> 1. +. (float_of_int i /. 10.)) in
  let params = { (Bt.Swarm.default_params ~uploads) with Bt.Swarm.d = 10.; faults } in
  let swarm = Bt.Swarm.create rng params in
  Bt.Swarm.run swarm ~ticks:300;
  let total = ref 0. in
  for i = 0 to Bt.Swarm.size swarm - 1 do
    total := !total +. Bt.Swarm.uploaded swarm i
  done;
  (!total, Bt.Swarm.link_drops swarm)

let test_swarm_tick_loss () =
  let clean, clean_drops = swarm_uploaded ~faults:None 5 in
  let lossy, lossy_drops =
    swarm_uploaded ~faults:(Some (Net.Tick.create ~seed:5 ~loss:0.5 ())) 5
  in
  Alcotest.(check int) "fault-free counts no drops" 0 clean_drops;
  Alcotest.(check bool) "loss suppresses transfers" true (lossy_drops > 0);
  Alcotest.(check bool)
    (Printf.sprintf "lossy volume %.0f < clean %.0f" lossy clean)
    true (lossy < clean)

let test_swarm_full_partition () =
  let groups = Array.init 20 Fun.id in
  let tick =
    Net.Tick.create ~seed:5 ~loss:0. ~schedule:[ { Net.Tick.at_tick = 0; groups = Some groups } ] ()
  in
  let uploaded, drops = swarm_uploaded ~faults:(Some tick) 5 in
  Alcotest.(check (float 1e-9)) "everyone isolated: nothing moves" 0. uploaded;
  Alcotest.(check bool) "all intents dropped" true (drops > 0)

(* ------------------------------------------------------------------ *)
(* Engine satellites                                                   *)

let test_drain_budget_counter () =
  Obs.Control.with_enabled true (fun () ->
      let c = Obs.Counter.make "des.drain_budget_exhausted" in
      let before = Obs.Counter.value c in
      let e = Engine.create () in
      Engine.set_packed_handler e (fun engine code -> Engine.schedule_packed engine ~delay:1. code);
      Engine.schedule_packed e ~delay:0. 0;
      Alcotest.(check bool) "budget exhausted" false (Engine.drain ~max_events:100 e);
      Alcotest.(check int) "counter bumped" (before + 1) (Obs.Counter.value c))

let test_async_budget_outcome () =
  let rng = Rng.create 3 in
  let graph = Stratify_graph.Gen.gnd rng ~n:20 ~d:5. in
  let inst = Instance.create ~graph ~b:(Array.make 20 1) () in
  let a =
    Async_dynamics.create inst rng { Async_dynamics.latency = 0.1; initiative_rate = 1.; loss = 0. }
  in
  (* Initiative clocks are always armed, so a zero budget cannot drain. *)
  Alcotest.(check bool) "explicit non-convergence outcome" true
    (Async_dynamics.quiesce ~max_events:0 a = Async_dynamics.Budget_exhausted)

(* ------------------------------------------------------------------ *)
(* Scenario plans                                                      *)

let sample_plan =
  {
    Plan.name = "roundtrip";
    seed = 9;
    workload =
      Plan.Async
        {
          n = 30;
          d = 8.;
          b = 1;
          horizon = 40.;
          initiative_rate = 1.;
          backend = Plan.Dense;
          scheduler = Scheduler.Random_poll;
        };
    net =
      {
        Plan.latency = Plan.Jitter { base = 0.05; spread = 0.1 };
        loss = Plan.Burst { p_gb = 0.1; p_bg = 0.3; loss_good = 0.02; loss_bad = 0.5 };
        duplicate = 0.01;
        reorder = 0.05;
        reorder_spread = 0.5;
      };
    partitions =
      [
        { Plan.at = 5.; groups = Plan.Halves };
        { Plan.at = 8.; groups = Plan.Groups [| 0; 1; 0 |] };
        { Plan.at = 10.; groups = Plan.Heal };
      ];
    assertions =
      [
        Plan.Drained;
        Plan.Final_disorder_below 0.2;
        Plan.Inconsistency_below 30;
        Plan.Converged_by { deadline = 35.; disorder_below = 0.5 };
      ];
  }

let test_plan_roundtrip () =
  Alcotest.(check bool) "of_json (to_json p) = p" true
    (Plan.of_json (Plan.to_json sample_plan) = sample_plan)

let test_plan_parse_errors () =
  let bad json =
    match Plan.of_json (Obs.Jsonx.of_string json) with
    | exception Obs.Jsonx.Parse_error _ -> ()
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "expected rejection of %s" json
  in
  bad {|{"workload": {"kind": "async", "n": 10}, "assertions": []}|};
  bad {|{"name": "x", "workload": {"kind": "nope", "n": 10}, "assertions": []}|};
  bad
    {|{"name": "x", "workload": {"kind": "swarm", "n": 10},
       "assertions": [{"kind": "drained"}]}|};
  bad
    {|{"name": "x", "workload": {"kind": "async", "n": 10},
       "assertions": [{"kind": "stratification_within", "tolerance": 0.1}]}|};
  (* 1e999 reads as inf: an infinite horizon or rate never finishes *)
  bad {|{"name": "x", "workload": {"kind": "async", "n": 10, "horizon": 1e999}, "assertions": []}|};
  bad
    {|{"name": "x", "workload": {"kind": "async", "n": 10, "initiative_rate": 1e999},
       "assertions": []}|}

let test_plan_negative_deadline () =
  (* a deadline before t = 0 used to pass validation and die inside the
     engine as "run_until: time -1 is in the past" *)
  match
    Plan.of_json
      (Obs.Jsonx.of_string
         {|{"name": "early", "workload": {"kind": "async", "n": 10},
            "assertions": [{"kind": "converged_by", "deadline": -1.0, "disorder_below": 0.1}]}|})
  with
  | exception Invalid_argument msg ->
      List.iter
        (fun fragment ->
          if not (Helpers.contains msg fragment) then
            Alcotest.failf "error %S does not mention %S" msg fragment)
        [ "plan early"; "converged_by"; "-1" ]
  | _ -> Alcotest.fail "a negative converged_by deadline was accepted"

let test_plan_dispatch_errors () =
  (* A plan built directly (bypassing validate) with an assertion its
     runner cannot evaluate must fail with a structured error naming the
     plan and the assertion kind — not an [assert false]. *)
  let expect_dispatch what plan fragment =
    match Plan.run plan with
    | exception Invalid_argument msg ->
        if not (Helpers.contains msg fragment) then
          Alcotest.failf "%s: error %S does not mention %S" what msg fragment
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  let net =
    {
      Plan.latency = Plan.Constant 0.05;
      loss = Plan.No_loss;
      duplicate = 0.;
      reorder = 0.;
      reorder_spread = 0.;
    }
  in
  expect_dispatch "swarm assertion on async runner"
    {
      Plan.name = "drifted-async";
      seed = 3;
      workload =
        Plan.Async
          {
            n = 10;
            d = 4.;
            b = 1;
            horizon = 5.;
            initiative_rate = 1.;
            backend = Plan.Dense;
            scheduler = Scheduler.Random_poll;
          };
      net;
      partitions = [];
      assertions = [ Plan.Stratification_within 0.1 ];
    }
    "\"stratification_within\" cannot be evaluated by the async runner";
  expect_dispatch "async assertion on swarm runner"
    {
      Plan.name = "drifted-swarm";
      seed = 3;
      workload = Plan.Swarm { n = 12; d = 4.; ticks = 4; warmup = 1 };
      net;
      partitions = [];
      assertions = [ Plan.Drained ];
    }
    "\"drained\" cannot be evaluated by the swarm runner"

let test_plan_run_deterministic () =
  let plan =
    Plan.of_json
      (Obs.Jsonx.of_string
         {|{
             "name": "mini",
             "seed": 4,
             "workload": { "kind": "async", "n": 40, "d": 8.0, "horizon": 60.0 },
             "net": { "latency": { "kind": "constant", "value": 0.1 },
                      "loss": { "kind": "iid", "p": 0.1 } },
             "partitions": [ { "at": 5.0, "groups": "halves" },
                             { "at": 15.0, "groups": "heal" } ],
             "assertions": [ { "kind": "drained" },
                             { "kind": "final_disorder_below", "value": 0.2 } ]
           }|})
  in
  let r1 = Plan.run plan and r2 = Plan.run plan in
  Alcotest.(check bool) "scenario passes" true r1.Plan.passed;
  Alcotest.(check bool) "manifests identical across runs" true
    (r1.Plan.manifest = r2.Plan.manifest);
  Alcotest.(check string) "manifest serialization identical"
    (Obs.Run_manifest.to_string r1.Plan.manifest)
    (Obs.Run_manifest.to_string r2.Plan.manifest);
  Alcotest.(check bool) "network saw traffic" true
    (match Obs.Run_manifest.counter r1.Plan.manifest "net.sent" with
    | Some v -> v > 0
    | None -> false)

let suite =
  [
    Alcotest.test_case "ideal delivery" `Quick test_ideal_delivery;
    test_iid_loss_rate;
    Alcotest.test_case "burst loss stationary rate" `Quick test_burst_loss_stationary;
    Alcotest.test_case "burst link states match the Hashtbl model" `Quick
      test_burst_links_match_hashtbl;
    Alcotest.test_case "duplication" `Quick test_duplication;
    Alcotest.test_case "reordering" `Quick test_reordering;
    Alcotest.test_case "partition and heal" `Quick test_partition_and_heal;
    Alcotest.test_case "fault parameter guards" `Quick test_net_guards;
    Alcotest.test_case "non-finite fault parameters are refused" `Quick test_net_non_finite;
    Alcotest.test_case "split/heal keep their (time, seq) place" `Quick
      test_partition_events_keep_their_place;
    test_trace_determinism;
    Alcotest.test_case "explicit fault-free net == legacy path" `Slow
      test_explicit_net_bit_identical;
    test_gossip_async_under_loss;
    Alcotest.test_case "tick hash purity and rate" `Quick test_tick_purity_and_rate;
    Alcotest.test_case "tick partition schedule" `Quick test_tick_partition_schedule;
    Alcotest.test_case "swarm tick loss" `Quick test_swarm_tick_loss;
    Alcotest.test_case "swarm full partition" `Quick test_swarm_full_partition;
    Alcotest.test_case "drain budget counter" `Quick test_drain_budget_counter;
    Alcotest.test_case "async budget-exhausted outcome" `Quick test_async_budget_outcome;
    Alcotest.test_case "plan JSON round-trip" `Quick test_plan_roundtrip;
    Alcotest.test_case "plan rejects ill-formed input" `Quick test_plan_parse_errors;
    Alcotest.test_case "plan rejects a negative deadline" `Quick test_plan_negative_deadline;
    Alcotest.test_case "plan runner dispatch errors" `Quick test_plan_dispatch_errors;
    Alcotest.test_case "plan run deterministic" `Slow test_plan_run_deterministic;
  ]
