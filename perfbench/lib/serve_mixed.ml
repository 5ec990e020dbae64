(* serve-mixed: replay a generated tracker stream against a live world,
   one client, closed loop, as fast as possible.

   The script is generated from the seed as JSON text; parsing it
   ([Request.of_json]) and [Serve.create] are the set-up.  The replay
   then [Serve.run_to]s each request's stamp and [Serve.handle]s it,
   timing both calls from outside.  Stamps sit strictly between integer
   tick times, so the replay serves exactly what [Serve.run_script]
   serves on the same script: that equality (checksum and count) is the
   output oracle. *)

module Req = Stratify_serve.Request
module Serve = Stratify_serve.Serve
module Rng = Stratify_prng.Rng
module Dist = Stratify_prng.Dist
module Jsonx = Stratify_obs.Jsonx
module Churn = Stratify_core.Churn
module Swarm = Stratify_bittorrent.Swarm
module Net = Stratify_net.Net
module Bw_profile = Stratify_bandwidth.Profile
module Saroiu = Stratify_bandwidth.Saroiu

type shape = {
  n : int;
  d : float;
  b : int;
  bands : int;
  churn_rate : float;
  swarm_sizes : int * int * int;  (** lossy, pieces, clean *)
  ticks : int;
  per_tick : int;
}

let full =
  {
    n = 10_000;
    d = 10.;
    b = 3;
    bands = 4;
    churn_rate = 1.0;
    swarm_sizes = (1000, 600, 300);
    ticks = 200;
    per_tick = 500;
  }

let tiny =
  { full with n = 400; bands = 2; swarm_sizes = (60, 36, 18); ticks = 12; per_tick = 60 }

let swarm_specs shape =
  let lossy, pieces, clean = shape.swarm_sizes in
  let spec sid size ~loss ~piece = { Req.sid; size; d = 20.; loss; partitions = []; piece } in
  [
    spec "lossy" lossy ~loss:0.05 ~piece:None;
    spec "pieces" pieces ~loss:0.
      ~piece:(Some { Req.pieces = 64; piece_size = 1.0; init_fraction = 0.0; seeds = 3 });
    spec "clean" clean ~loss:0. ~piece:None;
  ]

(* ~80% announce (want 1-50), 5% join, 5% leave, 5% scrape, 5% stats.
   Swarms are picked in proportion to their size and peers from a
   per-swarm interest pool of ~1.1x capacity, so swarms fill and the
   surplus is refused ("ERR ... full"). *)
let generate shape ~seed =
  let rng = Rng.create seed in
  let specs = Array.of_list (swarm_specs shape) in
  let pools =
    Array.map
      (fun (sw : Req.swarm_spec) ->
        Dist.sample_without_replacement rng ~k:(min shape.n (sw.size * 11 / 10)) ~n:shape.n)
      specs
  in
  let total = Array.fold_left (fun acc (sw : Req.swarm_spec) -> acc + sw.size) 0 specs in
  let pick_swarm () =
    let r = ref (Rng.int rng total) and i = ref 0 in
    while !r >= specs.(!i).Req.size do
      r := !r - specs.(!i).Req.size;
      incr i
    done;
    !i
  in
  let requests =
    Array.init (shape.ticks * shape.per_tick) (fun i ->
        let tick = i / shape.per_tick and j = i mod shape.per_tick in
        let at = float_of_int tick +. ((float_of_int j +. 0.5) /. float_of_int shape.per_tick) in
        let roll = Rng.int rng 100 in
        let s = pick_swarm () in
        let swarm = specs.(s).Req.sid in
        let pool = pools.(s) in
        let peer = pool.(Rng.int rng (Array.length pool)) in
        let kind =
          if roll < 80 then Req.Announce { peer; swarm; want = 1 + Rng.int rng 50 }
          else if roll < 85 then Req.Join { peer; swarm }
          else if roll < 90 then Req.Leave { peer; swarm }
          else if roll < 95 then Req.Scrape { swarm }
          else Req.Stats
        in
        { Req.at; kind })
  in
  Req.validate
    {
      Req.name = "perfbench-serve-mixed";
      seed;
      world =
        {
          Req.n = shape.n;
          d = shape.d;
          b = shape.b;
          churn_rate = shape.churn_rate;
          bands = shape.bands;
          swarms = Array.to_list specs;
        };
      requests;
      horizon = float_of_int shape.ticks;
    }

let script_text shape ~seed = Jsonx.to_string ~indent:false (Req.to_json (generate shape ~seed))

let kind_index = function
  | Req.Announce _ -> 0
  | Req.Join _ -> 1
  | Req.Leave _ -> 2
  | Req.Scrape _ -> 3
  | Req.Stats -> 4

type replay = {
  handle_ns : Timing.samples array;  (** per kind, [kind_index] order *)
  handle_ref_ns : Timing.samples array;  (** the same in reference nanoseconds *)
  refused : int array;  (** "ERR ..." answers per kind *)
  mutable raised : int;  (** requests that raised [Invalid_argument] *)
  tick_ns : Timing.samples;  (** [run_to] calls that advanced the world *)
  tick_ref_ns : Timing.samples;
  segments : Timing.samples;
      (** seconds from a probe to the end of the [run_to] that advances
          the next tick (the last to the end): they sum to [wall_s] *)
  probes : Timing.samples;  (** the probe before each segment, and one after the last *)
  mutable wall_s : float;
  mutable checksum : int;
  mutable handled : int;
}

let empty_replay () =
  {
    handle_ns = Array.init 5 (fun _ -> Timing.samples ());
    handle_ref_ns = Array.init 5 (fun _ -> Timing.samples ());
    refused = Array.make 5 0;
    raised = 0;
    tick_ns = Timing.samples ();
    tick_ref_ns = Timing.samples ();
    segments = Timing.samples ();
    probes = Timing.samples ();
    wall_s = 0.;
    checksum = 0;
    handled = 0;
  }

let is_refusal resp = String.length resp >= 3 && String.sub resp 0 3 = "ERR"

(* The host is probed once per tick, outside the timed segments, and
   every request and tick time is also kept in reference nanoseconds
   against the latest probe. *)
let replay t (script : Req.script) =
  let r = empty_replay () in
  let start = ref 0L and probe = ref 1. in
  let open_segment () =
    probe := Timing.probe ();
    Timing.add r.probes !probe;
    start := Timing.now_ns ()
  in
  let close_segment until = Timing.add r.segments (Timing.ns_between !start until *. 1e-9) in
  let add plain at_ref ns =
    Timing.add plain ns;
    Timing.add at_ref (Timing.at_ref ~probe:!probe ns)
  in
  (* the instant the next call is timed from *)
  let advance time =
    let k0 = Serve.ticks t in
    let a = Timing.now_ns () in
    Serve.run_to t time;
    let b = Timing.now_ns () in
    if Serve.ticks t = k0 then b
    else begin
      add r.tick_ns r.tick_ref_ns (Timing.ns_between a b);
      close_segment b;
      open_segment ();
      !start
    end
  in
  open_segment ();
  Array.iter
    (fun (q : Req.t) ->
      let b = advance q.Req.at in
      let k = kind_index q.Req.kind in
      match Serve.handle t q.Req.kind with
      | resp ->
          add r.handle_ns.(k) r.handle_ref_ns.(k) (Timing.ns_between b (Timing.now_ns ()));
          if is_refusal resp then r.refused.(k) <- r.refused.(k) + 1
      | exception Invalid_argument _ -> r.raised <- r.raised + 1)
    script.Req.requests;
  ignore (advance script.Req.horizon);
  close_segment (Timing.now_ns ());
  Timing.add r.probes (Timing.probe ());
  r.wall_s <- Timing.sum r.segments;
  r.checksum <- Serve.checksum t;
  r.handled <- Serve.requests_handled t;
  r

type iteration = {
  parse_s : float;
  create_s : float;
  setup_ref_s : float;  (** parse + create in reference seconds *)
  script : Req.script;
  run : replay;
}

(* One iteration: parse + create (set-up), then the replay. *)
let iteration text =
  let before = Timing.probe () in
  let script, parse_s = Timing.time (fun () -> Req.of_json (Jsonx.of_string text)) in
  let t, create_s = Timing.time (fun () -> Serve.create { script with Req.requests = [||] }) in
  let probe = Timing.bracket [| before; Timing.probe () |] 0 in
  { parse_s; create_s; setup_ref_s = Timing.at_ref ~probe (parse_s +. create_s); script; run = replay t script }

let reference (script : Req.script) =
  let t = Serve.create script in
  Serve.run_script t;
  (Serve.checksum t, Serve.requests_handled t)

(* Isolated replays of the layers under the tick, at the world's
   parameters: swarm creation and stepping per swarm spec, the oracle's
   from-scratch solve and single churn events. *)
let swarm_params (sw : Req.swarm_spec) ~seed ~idx =
  let uploads = Bw_profile.rank_bandwidths Saroiu.profile ~n:sw.size in
  let faults =
    if sw.loss > 0. then Some (Net.Tick.create ~seed:(seed + (7919 * (idx + 1))) ~loss:sw.loss ())
    else None
  in
  {
    (Swarm.default_params ~uploads) with
    Swarm.d = sw.d;
    faults;
    piece =
      Option.map
        (fun (pp : Req.piece_spec) ->
          {
            Swarm.pieces = pp.pieces;
            piece_size = pp.piece_size;
            init_fraction = pp.init_fraction;
            seeds = pp.seeds;
          })
        sw.piece;
  }

let layer_replays shape ~seed ~steps ~events =
  let rng = Rng.create (seed lxor 0x5eed) in
  let create_s = ref 0. in
  let step_rows =
    List.mapi
      (fun idx (sw : Req.swarm_spec) ->
        let params = swarm_params sw ~seed ~idx in
        let swarm, dt = Timing.time (fun () -> Swarm.create (Rng.split rng) params) in
        create_s := !create_s +. dt;
        let step_ns = Timing.samples () in
        for _ = 1 to steps do
          let a = Timing.now_ns () in
          Swarm.step swarm;
          Timing.add step_ns (Timing.ns_between a (Timing.now_ns ()))
        done;
        let p50 = Timing.percentile step_ns 50. in
        (sw.Req.sid, p50))
      (swarm_specs shape)
  in
  let world, solve_s =
    Timing.time (fun () ->
        Churn.make_world ~bands:shape.bands (Rng.split rng) ~n:shape.n ~d:shape.d ~b:shape.b)
  in
  let er_p = shape.d /. float_of_int (max 1 (shape.n - 1)) in
  let churn_ns = Timing.samples () in
  for _ = 1 to events do
    let a = Timing.now_ns () in
    Churn.churn_event rng world ~p:er_p;
    Timing.add churn_ns (Timing.ns_between a (Timing.now_ns ()))
  done;
  (!create_s, step_rows, solve_s, churn_ns)

(* ------------------------------------------------------------------ *)

let name = "serve-mixed"

let spec (cfg : Harness.config) =
  let shape = match cfg.size with Full -> full | Tiny -> tiny in
  let text = script_text shape ~seed:cfg.seed in
  (* the oracle replay doubles as the warm-up *)
  let ref_checksum, ref_handled = reference (Req.of_json (Jsonx.of_string text)) in
  let iterate ~traced =
    if traced then
      Stratify_obs.Control.with_enabled true (fun () ->
          Stratify_obs.Counter.reset_all ();
          iteration text)
    else iteration text
  in
  let measured it =
    let r = it.run and n = Array.length it.script.Req.requests in
    let ok = r.raised = 0 && r.checksum = ref_checksum && r.handled = ref_handled && r.handled = n in
    {
      Harness.setup_s = [ it.setup_ref_s ];
      segments = Timing.to_array r.segments;
      probes = Timing.to_array r.probes;
      wall_s = r.wall_s;
      attempted = n;
      failed = (if ok then 0 else max 1 r.raised);
    }
  in
  let handle k it = it.run.handle_ref_ns.(k) in
  let end_to_end ~wall_s iters =
    let pct get q = Timing.combined_percentile Timing.median (List.map get iters) q in
    let updates it =
      let u = Timing.samples () in
      Timing.append u (handle 1 it);
      Timing.append u (handle 2 it);
      u
    in
    let ticks it = it.run.tick_ref_ns in
    let a50 = pct (handle 0) 50. and a99 = pct (handle 0) 99. in
    let per_iter f = List.fold_left (fun acc it -> acc + f it) 0 iters in
    let requests = per_iter (fun it -> it.run.handled) in
    let refused = per_iter (fun it -> Array.fold_left ( + ) 0 it.run.refused) in
    let line = Harness.line name and pct_line = Harness.pct_line name in
    ( (a50.Timing.value *. 1e-6, a99.Timing.value *. 1e-6),
      [
        line "requests_per_s" (float_of_int (requests / List.length iters) /. wall_s) "1/s" "";
        pct_line "announce_p50_us" a50 ~scale:1e-3 "us";
        pct_line "announce_p99_us" a99 ~scale:1e-3 "us";
        pct_line "update_p50_us" (pct updates 50.) ~scale:1e-3 "us";
        pct_line "update_p99_us" (pct updates 99.) ~scale:1e-3 "us";
        pct_line "tick_p50_ms" (pct ticks 50.) ~scale:1e-6 "ms";
        pct_line "tick_p95_ms" (pct ticks 95.) ~scale:1e-6 "ms";
        line "refused_ratio"
          (float_of_int refused /. float_of_int (max 1 requests))
          "ratio"
          (Printf.sprintf "refused=%d attempted=%d (tracker ERR answers)" refused requests);
      ] )
  in
  let layers ~plain ~traced:_ =
    let r = plain.run in
    let steps, events = match cfg.size with Full -> (50, 2000) | Tiny -> (5, 50) in
    let swarm_create_s, step_rows, solve_s, churn_ns = layer_replays shape ~seed:cfg.seed ~steps ~events in
    let handle_rows =
      List.concat
        (List.mapi
           (fun k kind ->
             let s = r.handle_ns.(k) in
             let p q = if Timing.count s = 0 then 0. else (Timing.percentile s q).Timing.value *. 1e-3 in
             let pre = "serve.handle." ^ kind in
             [
               (pre ^ ".p50_us", p 50.);
               (pre ^ ".p99_us", p 99.);
               (pre ^ ".count", float_of_int (Timing.count s));
               (pre ^ ".refused", float_of_int r.refused.(k));
             ])
           Metrics.serve_kinds)
    in
    let handle_s = Array.fold_left (fun acc s -> acc +. Timing.sum s) 0. r.handle_ns *. 1e-9 in
    let tick_s = Timing.sum r.tick_ns *. 1e-9 in
    let tick q = (Timing.percentile r.tick_ns q).Timing.value *. 1e-6 in
    let churn q = (Timing.percentile churn_ns q).Timing.value *. 1e-3 in
    {
      Harness.rows =
        [ ("serve.parse_s", plain.parse_s); ("serve.create_s", plain.create_s) ]
        @ handle_rows
        @ [
            ("serve.tick.p50_ms", tick 50.);
            ("serve.tick.p95_ms", tick 95.);
            ("serve.tick.count", float_of_int (Timing.count r.tick_ns));
            ("serve.handle.total_s", handle_s);
            ("serve.tick.total_s", tick_s);
            ("bittorrent.swarm_create_s", swarm_create_s);
          ]
        @ List.map
            (fun (sid, (p : Timing.pct)) -> ("bittorrent.swarm_step." ^ sid ^ ".p50_ms", p.Timing.value *. 1e-6))
            step_rows
        @ [
            ("core.oracle_solve_s", solve_s);
            ("core.churn_event.p50_us", churn 50.);
            ("core.churn_event.p99_us", churn 99.);
          ];
      busy_s = handle_s +. tick_s;
      untraced_work_s = 0.;
    }
  in
  {
    Harness.check = "replay checksum/count = Serve.run_script";
    iterate;
    measured;
    end_to_end;
    layers;
    notes =
      [
        "note bittorrent.* and core.* rows are isolated replays at the world's parameters, not self \
         time inside the replay";
      ];
  }

let run cfg = Harness.run ~name cfg (spec cfg)
