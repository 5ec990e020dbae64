module Jsonx = Stratify_obs.Jsonx
module Manifest = Stratify_obs.Run_manifest
module Counter = Stratify_obs.Counter
module Rng = Stratify_prng.Rng
module Gen = Stratify_graph.Gen
module Net = Stratify_net.Net
module Swarm = Stratify_bittorrent.Swarm
module Bt_metrics = Stratify_bittorrent.Metrics
module Queue_sim = Stratify_edonkey.Queue_sim
module Profile = Stratify_bandwidth.Profile
module Saroiu = Stratify_bandwidth.Saroiu
open Stratify_core

type latency_spec =
  | Constant of float
  | Jitter of { base : float; spread : float }
  | Log_normal of { mu : float; sigma : float }

type loss_spec =
  | No_loss
  | Iid of float
  | Burst of { p_gb : float; p_bg : float; loss_good : float; loss_bad : float }

type net_spec = {
  latency : latency_spec;
  loss : loss_spec;
  duplicate : float;
  reorder : float;
  reorder_spread : float;
}

type groups_spec = Halves | Groups of int array | Heal

type partition_spec = { at : float; groups : groups_spec }

type backend_spec = Dense | Complete | Complete_minus of { removed : int }

type workload =
  | Async of {
      n : int;
      d : float;
      b : int;
      horizon : float;
      initiative_rate : float;
      backend : backend_spec;
      scheduler : Scheduler.policy;
    }
  | Swarm of { n : int; d : float; ticks : int; warmup : int }
  | Edonkey of { n : int; d : float; slots : int; ticks : int; warmup : int }

type assertion =
  | Drained
  | Final_disorder_below of float
  | Inconsistency_below of int
  | Converged_by of { deadline : float; disorder_below : float }
  | Stratification_within of float
  | Scheduler_fixed_point

type t = {
  name : string;
  seed : int;
  workload : workload;
  net : net_spec;
  partitions : partition_spec list;
  assertions : assertion list;
}

(* ---- JSON ---------------------------------------------------------- *)

let validate t =
  let async_only what =
    match t.workload with
    | Async _ -> ()
    | Swarm _ | Edonkey _ ->
        invalid_arg (Printf.sprintf "plan %s: %s applies to async workloads only" t.name what)
  in
  let tick_guards n ticks warmup =
    if n < 2 then invalid_arg (Printf.sprintf "plan %s: need n >= 2" t.name);
    if warmup < 0 || warmup >= ticks then
      invalid_arg (Printf.sprintf "plan %s: need 0 <= warmup < ticks" t.name)
  in
  (match t.workload with
  | Async { n; horizon; initiative_rate; backend; _ } ->
      if n < 2 then invalid_arg (Printf.sprintf "plan %s: need n >= 2" t.name);
      if not (Float.is_finite horizon) then
        invalid_arg (Printf.sprintf "plan %s: horizon must be finite, got %g" t.name horizon);
      if horizon <= 0. then invalid_arg (Printf.sprintf "plan %s: horizon must be positive" t.name);
      if not (Float.is_finite initiative_rate) then
        invalid_arg
          (Printf.sprintf "plan %s: initiative_rate must be finite, got %g" t.name initiative_rate);
      if initiative_rate <= 0. then
        invalid_arg (Printf.sprintf "plan %s: initiative_rate must be positive" t.name);
      (match backend with
      | Complete_minus { removed } when removed < 0 || removed > n - 2 ->
          invalid_arg
            (Printf.sprintf "plan %s: complete_minus must keep >= 2 of %d peers (removed %d)"
               t.name n removed)
      | _ -> ())
  | Swarm { n; ticks; warmup; _ } -> tick_guards n ticks warmup
  | Edonkey { n; slots; ticks; warmup; _ } ->
      tick_guards n ticks warmup;
      if slots < 1 then invalid_arg (Printf.sprintf "plan %s: need slots >= 1" t.name));
  List.iter
    (function
      | Drained -> async_only "\"drained\""
      | Final_disorder_below _ -> async_only "\"final_disorder_below\""
      | Inconsistency_below _ -> async_only "\"inconsistency_below\""
      | Scheduler_fixed_point -> async_only "\"scheduler_fixed_point\""
      | Converged_by { deadline; _ } ->
          async_only "\"converged_by\"";
          if not (deadline >= 0.) then
            invalid_arg
              (Printf.sprintf "plan %s: converged_by deadline %g must be >= 0" t.name deadline);
          (match t.workload with
          | Async { horizon; _ } when deadline > horizon ->
              invalid_arg
                (Printf.sprintf "plan %s: converged_by deadline %g beyond horizon %g" t.name
                   deadline horizon)
          | _ -> ())
      | Stratification_within _ -> (
          match t.workload with
          | Swarm _ | Edonkey _ -> ()
          | Async _ ->
              invalid_arg
                (Printf.sprintf
                   "plan %s: \"stratification_within\" applies to tick workloads (swarm/edonkey) only"
                   t.name)))
    t.assertions;
  List.iter
    (fun p ->
      if p.at < 0. then invalid_arg (Printf.sprintf "plan %s: partition at %g < 0" t.name p.at))
    t.partitions;
  t

open struct
  open Stratify_obs.Codec

  let latency =
    variant "kind"
      [
        case "constant"
          (record Fun.id |+ req "value" float Fun.id)
          (fun v -> Constant v)
          (function Constant v -> Some v | _ -> None);
        case "jitter"
          (record (fun base spread -> (base, spread))
          |+ req "base" float fst
          |+ req "spread" float snd)
          (fun (base, spread) -> Jitter { base; spread })
          (function Jitter { base; spread } -> Some (base, spread) | _ -> None);
        case "lognormal"
          (record (fun mu sigma -> (mu, sigma))
          |+ req "mu" float fst
          |+ req "sigma" float snd)
          (fun (mu, sigma) -> Log_normal { mu; sigma })
          (function Log_normal { mu; sigma } -> Some (mu, sigma) | _ -> None);
      ]

  let loss =
    variant "kind"
      [
        case0 "none" No_loss;
        case "iid"
          (record Fun.id |+ req "p" float Fun.id)
          (fun p -> Iid p)
          (function Iid p -> Some p | _ -> None);
        case "burst"
          (record (fun p_gb p_bg loss_good loss_bad -> (p_gb, p_bg, loss_good, loss_bad))
          |+ req "p_gb" float (fun (x, _, _, _) -> x)
          |+ req "p_bg" float (fun (_, x, _, _) -> x)
          |+ opt "loss_good" float ~default:0. (fun (_, _, x, _) -> x)
          |+ req "loss_bad" float (fun (_, _, _, x) -> x))
          (fun (p_gb, p_bg, loss_good, loss_bad) ->
            Burst { p_gb; p_bg; loss_good; loss_bad })
          (function
            | Burst { p_gb; p_bg; loss_good; loss_bad } ->
                Some (p_gb, p_bg, loss_good, loss_bad)
            | _ -> None);
      ]

  let default_net =
    { latency = Constant 0.05; loss = No_loss; duplicate = 0.; reorder = 0.;
      reorder_spread = 0. }

  let net =
    obj
      (record (fun latency loss duplicate reorder reorder_spread ->
           { latency; loss; duplicate; reorder; reorder_spread })
      |+ opt "latency" latency ~default:default_net.latency (fun n -> n.latency)
      |+ opt "loss" loss ~default:No_loss (fun n -> n.loss)
      |+ opt "duplicate" float ~default:0. (fun n -> n.duplicate)
      |+ opt "reorder" float ~default:0. (fun n -> n.reorder)
      |+ opt "reorder_spread" float ~default:0. (fun n -> n.reorder_spread))

  (* "halves", "heal" or one group label per peer *)
  let groups =
    let labels = array int in
    {
      enc =
        (function
        | Halves -> Jsonx.String "halves"
        | Heal -> Jsonx.String "heal"
        | Groups g -> labels.enc g);
      dec =
        (function
        | Jsonx.String "halves" -> Halves
        | Jsonx.String "heal" -> Heal
        | Jsonx.String s -> fail (Printf.sprintf "unknown groups %S (want halves or heal)" s)
        | j -> Groups (labels.dec j));
    }

  let partition =
    obj
      (record (fun at groups -> { at; groups })
      |+ req "at" float (fun p -> p.at)
      |+ req "groups" groups (fun p -> p.groups))

  let backend =
    union ~default:"dense" "backend"
      [
        case0 "dense" Dense;
        case0 "complete" Complete;
        case "complete_minus"
          (record Fun.id |+ opt "removed" int ~default:0 Fun.id)
          (fun removed -> Complete_minus { removed })
          (function Complete_minus { removed } -> Some removed | _ -> None);
      ]

  let scheduler =
    conv
      ~dec:(fun s ->
        match Scheduler.policy_of_string s with
        | Some p -> p
        | None -> fail (Printf.sprintf "unknown scheduler %S (want random/worklist)" s))
      ~enc:Scheduler.policy_name string

  let workload =
    variant "kind"
      [
        case "async"
          (record (fun n d b horizon initiative_rate backend scheduler ->
               (n, d, b, horizon, initiative_rate, backend, scheduler))
          |+ req "n" int (fun (x, _, _, _, _, _, _) -> x)
          |+ opt "d" float ~default:10. (fun (_, x, _, _, _, _, _) -> x)
          |+ opt "b" int ~default:1 (fun (_, _, x, _, _, _, _) -> x)
          |+ opt "horizon" float ~default:100. (fun (_, _, _, x, _, _, _) -> x)
          |+ opt "initiative_rate" float ~default:1. (fun (_, _, _, _, x, _, _) -> x)
          |+ backend (fun (_, _, _, _, _, x, _) -> x)
          |+ opt "scheduler" scheduler ~default:Scheduler.Random_poll
               (fun (_, _, _, _, _, _, x) -> x))
          (fun (n, d, b, horizon, initiative_rate, backend, scheduler) ->
            Async { n; d; b; horizon; initiative_rate; backend; scheduler })
          (function
            | Async { n; d; b; horizon; initiative_rate; backend; scheduler } ->
                Some (n, d, b, horizon, initiative_rate, backend, scheduler)
            | _ -> None);
        case "swarm"
          (record (fun n d ticks warmup -> (n, d, ticks, warmup))
          |+ req "n" int (fun (x, _, _, _) -> x)
          |+ opt "d" float ~default:20. (fun (_, x, _, _) -> x)
          |+ opt "ticks" int ~default:2000 (fun (_, _, x, _) -> x)
          |+ opt "warmup" int ~default:500 (fun (_, _, _, x) -> x))
          (fun (n, d, ticks, warmup) -> Swarm { n; d; ticks; warmup })
          (function
            | Swarm { n; d; ticks; warmup } -> Some (n, d, ticks, warmup) | _ -> None);
        case "edonkey"
          (record (fun n d slots ticks warmup -> (n, d, slots, ticks, warmup))
          |+ req "n" int (fun (x, _, _, _, _) -> x)
          |+ opt "d" float ~default:20. (fun (_, x, _, _, _) -> x)
          |+ opt "slots" int ~default:4 (fun (_, _, x, _, _) -> x)
          |+ opt "ticks" int ~default:2000 (fun (_, _, _, x, _) -> x)
          |+ opt "warmup" int ~default:500 (fun (_, _, _, _, x) -> x))
          (fun (n, d, slots, ticks, warmup) -> Edonkey { n; d; slots; ticks; warmup })
          (function
            | Edonkey { n; d; slots; ticks; warmup } -> Some (n, d, slots, ticks, warmup)
            | _ -> None);
      ]

  let assertion =
    variant "kind"
      [
        case0 "drained" Drained;
        case "final_disorder_below"
          (record Fun.id |+ req "value" float Fun.id)
          (fun v -> Final_disorder_below v)
          (function Final_disorder_below v -> Some v | _ -> None);
        case "inconsistency_below"
          (record Fun.id |+ req "value" int Fun.id)
          (fun v -> Inconsistency_below v)
          (function Inconsistency_below v -> Some v | _ -> None);
        case "converged_by"
          (record (fun deadline disorder_below -> (deadline, disorder_below))
          |+ req "deadline" float fst
          |+ req "disorder_below" float snd)
          (fun (deadline, disorder_below) -> Converged_by { deadline; disorder_below })
          (function
            | Converged_by { deadline; disorder_below } -> Some (deadline, disorder_below)
            | _ -> None);
        case "stratification_within"
          (record Fun.id |+ req "tolerance" float Fun.id)
          (fun tol -> Stratification_within tol)
          (function Stratification_within tol -> Some tol | _ -> None);
        case0 "scheduler_fixed_point" Scheduler_fixed_point;
      ]

  let plan =
    conv ~dec:validate ~enc:Fun.id
      (obj
         (record (fun name seed workload net partitions assertions ->
              { name; seed; workload; net; partitions; assertions })
         |+ req "name" string (fun t -> t.name)
         |+ opt "seed" int ~default:42 (fun t -> t.seed)
         |+ req "workload" workload (fun t -> t.workload)
         |+ opt "net" net ~default:default_net (fun t -> t.net)
         |+ opt "partitions" (list partition) ~default:[] (fun t -> t.partitions)
         |+ req "assertions" (list assertion) (fun t -> t.assertions)))
end

let of_json = Stratify_obs.Codec.decode ~what:"plan" plan
let to_json = plan.enc
let load path = of_json (Jsonx.of_string (In_channel.with_open_bin path In_channel.input_all))

(* ---- execution ----------------------------------------------------- *)

type check = { label : string; ok : bool; detail : string }

type result = {
  plan : t;
  passed : bool;
  checks : check list;
  manifest : Manifest.t;
}

let c_checks_passed = Counter.make "plan.checks_passed"
let c_checks_failed = Counter.make "plan.checks_failed"
let c_disorder_scaled = Counter.make "plan.final_disorder_x1e6"
let c_incons = Counter.make "plan.inconsistency"
let c_drained = Counter.make "plan.drained"
let c_strat_scaled = Counter.make "plan.strat_plus1_x1e6"

let net_loss = function
  | No_loss -> Net.No_loss
  | Iid p -> Net.Iid p
  | Burst { p_gb; p_bg; loss_good; loss_bad } -> Net.Burst { p_gb; p_bg; loss_good; loss_bad }

let net_faults (s : net_spec) : Net.faults =
  {
    latency =
      (match s.latency with
      | Constant v -> Net.Constant v
      | Jitter { base; spread } -> Net.Jitter { base; spread }
      | Log_normal { mu; sigma } -> Net.Log_normal { mu; sigma });
    loss = net_loss s.loss;
    duplicate = s.duplicate;
    reorder = s.reorder;
    reorder_spread = s.reorder_spread;
  }

let resolve_groups n = function
  | Heal -> None
  | Halves -> Some (Array.init n (fun p -> if p < n / 2 then 0 else 1))
  | Groups g ->
      if Array.length g <> n then
        invalid_arg (Printf.sprintf "plan: groups array has %d entries for %d peers" (Array.length g) n);
      Some g

let pass_fail label ok detail = { label; ok; detail }

let assertion_kind = function
  | Drained -> "drained"
  | Final_disorder_below _ -> "final_disorder_below"
  | Inconsistency_below _ -> "inconsistency_below"
  | Converged_by _ -> "converged_by"
  | Stratification_within _ -> "stratification_within"
  | Scheduler_fixed_point -> "scheduler_fixed_point"

(* A runner handed an assertion it cannot evaluate means the plan
   bypassed [validate] (constructed directly instead of parsed) or
   validate and the runners drifted apart.  Name the plan, the assertion
   and the runner instead of crashing on a bare assertion — the caller
   built the plan, so [Invalid_argument] is the right contract. *)
let dispatch_fail plan ~runner a =
  invalid_arg
    (Printf.sprintf
       "plan %s: assertion %S cannot be evaluated by the %s runner (was Plan.validate run?)"
       plan.name (assertion_kind a) runner)

(* Evenly spaced ranks, so a removal set spans every bandwidth class. *)
let spread_removed ~n ~removed = List.init removed (fun i -> i * n / removed)

let run_async plan ~n ~d ~b ~horizon ~initiative_rate ~backend ~scheduler =
  let rng = Rng.create plan.seed in
  let inst =
    match backend with
    | Dense ->
        let graph = Gen.gnd rng ~n ~d in
        Instance.create ~graph ~b:(Array.make n b) ()
    | Complete -> Instance.complete ~n ~b:(Array.make n b) ()
    | Complete_minus { removed } ->
        Instance.complete_minus ~n ~b:(Array.make n b)
          ~removed:(spread_removed ~n ~removed) ()
  in
  let greedy = Greedy.stable_config inst in
  (* The worklist fixed point replays Theorem 1's constructive schedule:
     drain the dirty set from the empty configuration with the best-mate
     strategy (which consumes no randomness).  By Tan's uniqueness it must
     land on Algorithm 1's configuration — the [scheduler_fixed_point]
     assertion pins that, and under [Worklist] the disorder reference
     itself is the drained configuration, so any divergence would also
     surface in every disorder bound. *)
  let worklist_config =
    lazy
      (let cfg = Config.empty inst in
       let queue = Scheduler.create ~n in
       Scheduler.seed_all queue;
       let state = Initiative.create_state inst in
       ignore (Scheduler.drain queue cfg state Initiative.Best_mate (Rng.create plan.seed));
       cfg)
  in
  let stable =
    match scheduler with
    | Scheduler.Random_poll -> greedy
    | Scheduler.Worklist -> Lazy.force worklist_config
  in
  let net = Net.create rng (net_faults plan.net) in
  Net.set_partition_schedule net
    (List.map (fun p -> { Net.at = p.at; groups = resolve_groups n p.groups }) plan.partitions);
  let a = Async_dynamics.create ~net inst rng { Async_dynamics.latency = 0.; initiative_rate; loss = 0. } in
  let disorder_now () = Disorder.disorder (Async_dynamics.mutual_config a) ~stable in
  (* Run piecewise so converged-by deadlines can be sampled in passing. *)
  let deadlines =
    List.filter_map (function Converged_by { deadline; _ } -> Some deadline | _ -> None)
      plan.assertions
    |> List.sort_uniq compare
  in
  let sampled = Hashtbl.create 4 in
  let now =
    List.fold_left
      (fun now deadline ->
        Async_dynamics.run a ~horizon:(deadline -. now);
        Hashtbl.replace sampled deadline (disorder_now ());
        deadline)
      0. deadlines
  in
  if horizon > now then Async_dynamics.run a ~horizon:(horizon -. now);
  let outcome = Async_dynamics.quiesce a in
  let final_disorder = disorder_now () in
  let incons = Async_dynamics.inconsistency_count a in
  Counter.add c_disorder_scaled (int_of_float (final_disorder *. 1e6));
  Counter.add c_incons incons;
  if outcome = Async_dynamics.Drained then Counter.incr c_drained;
  let checks =
    List.map
      (function
        | Drained ->
            pass_fail "drained"
              (outcome = Async_dynamics.Drained)
              (match outcome with
              | Async_dynamics.Drained -> "all in-flight messages drained"
              | Async_dynamics.Budget_exhausted -> "event budget exhausted before quiescence")
        | Final_disorder_below bound ->
            pass_fail "final_disorder_below"
              (final_disorder <= bound)
              (Printf.sprintf "disorder %.6f vs bound %g" final_disorder bound)
        | Inconsistency_below bound ->
            pass_fail "inconsistency_below" (incons <= bound)
              (Printf.sprintf "%d one-sided listings vs bound %d" incons bound)
        | Converged_by { deadline; disorder_below } ->
            let v = Hashtbl.find sampled deadline in
            pass_fail "converged_by"
              (v <= disorder_below)
              (Printf.sprintf "disorder %.6f at t=%g vs bound %g" v deadline disorder_below)
        | Scheduler_fixed_point ->
            let agrees = Config.equal (Lazy.force worklist_config) greedy in
            pass_fail "scheduler_fixed_point" agrees
              (if agrees then
                 Printf.sprintf "worklist fixed point = Algorithm 1 (%d edges)"
                   (Config.edge_count greedy)
               else
                 Printf.sprintf "worklist fixed point diverges from Algorithm 1 (%d vs %d edges)"
                   (Config.edge_count (Lazy.force worklist_config))
                   (Config.edge_count greedy))
        | Stratification_within _ as a -> dispatch_fail plan ~runner:"async" a)
      plan.assertions
  in
  (checks, [ ("final_disorder", final_disorder) ])

(* The swarm and eDonkey workloads: tick-level link faults, and
   stratification compared against a fault-free twin of the same seed.
   [simulate rng ~uploads ~faults] runs the simulator and returns its
   stratification and its own extra metrics.  A tick has no sub-tick
   timing, so a burst loss model collapses to its stationary rate. *)
let run_ticks plan ~runner ~n ~simulate =
  let loss = Net.stationary_loss (net_loss plan.net.loss) in
  let schedule =
    List.map
      (fun p -> { Net.Tick.at_tick = int_of_float p.at; groups = resolve_groups n p.groups })
      plan.partitions
  in
  let build ~faulty =
    let rng = Rng.create plan.seed in
    let uploads = Profile.rank_bandwidths Saroiu.profile ~n in
    let faults =
      if faulty && (loss > 0. || schedule <> []) then
        Some (Net.Tick.create ~seed:plan.seed ~loss ~schedule ())
      else None
    in
    simulate rng ~uploads ~faults
  in
  let strat, extra = build ~faulty:true in
  Counter.add c_strat_scaled (int_of_float ((strat +. 1.) *. 1e6));
  let baseline =
    if List.exists (function Stratification_within _ -> true | _ -> false) plan.assertions then
      Some (fst (build ~faulty:false))
    else None
  in
  let checks =
    List.map
      (function
        | Stratification_within tol ->
            let base = Option.get baseline in
            pass_fail "stratification_within"
              (Float.abs (strat -. base) <= tol)
              (Printf.sprintf "stratification %.4f vs fault-free %.4f (tolerance %g)" strat base tol)
        | a -> dispatch_fail plan ~runner a)
      plan.assertions
  in
  let metrics =
    (("stratification", strat) :: extra)
    @ match baseline with None -> [] | Some b -> [ ("baseline_stratification", b) ]
  in
  (checks, metrics)

let execute plan =
  match plan.workload with
  | Async { n; d; b; horizon; initiative_rate; backend; scheduler } ->
      run_async plan ~n ~d ~b ~horizon ~initiative_rate ~backend ~scheduler
  | Swarm { n; d; ticks; warmup } ->
      run_ticks plan ~runner:"swarm" ~n ~simulate:(fun rng ~uploads ~faults ->
          let params = { (Swarm.default_params ~uploads) with Swarm.d; faults } in
          let swarm = Swarm.create rng params in
          Swarm.run swarm ~ticks:warmup;
          Swarm.reset_counters swarm;
          Swarm.run swarm ~ticks:(ticks - warmup);
          (Bt_metrics.stratification_correlation swarm, []))
  | Edonkey { n; d; slots; ticks; warmup } ->
      run_ticks plan ~runner:"edonkey" ~n ~simulate:(fun rng ~uploads ~faults ->
          let params =
            { (Queue_sim.default_params ~uploads) with Queue_sim.d; slots; faults }
          in
          let sim = Queue_sim.create rng params in
          Queue_sim.run sim ~ticks:warmup;
          Queue_sim.reset_counters sim;
          Queue_sim.run sim ~ticks:(ticks - warmup);
          let mean_wait = Queue_sim.mean_wait sim in
          (Queue_sim.stratification_correlation sim, [ ("mean_wait", mean_wait) ]))

let run plan =
  let module Obs = Stratify_obs in
  Obs.Counter.reset_all ();
  Obs.Span.reset ();
  Obs.Control.set_enabled true;
  let checks, metrics =
    Fun.protect ~finally:(fun () -> Obs.Control.set_enabled false) (fun () -> execute plan)
  in
  Obs.Control.with_enabled true (fun () ->
      List.iter
        (fun c -> Counter.incr (if c.ok then c_checks_passed else c_checks_failed))
        checks);
  (* No Span phases are opened above, so the manifest has no wall-clock
     content: every field is a deterministic function of the plan. *)
  let manifest =
    Obs.Control.with_enabled true (fun () ->
        Manifest.capture ~kind:"scenario" ~name:plan.name ~seed:plan.seed ~scale:1.0 ~jobs:1
          ~metrics ())
  in
  { plan; passed = List.for_all (fun c -> c.ok) checks; checks; manifest }

let run_pure ?(kind = "matrix") ?git plan =
  let module Obs = Stratify_obs in
  (* Observability stays off for the whole execution, so nothing touches
     the global counter/span tables: many plans can run concurrently on
     the Exec domain pool without corrupting each other's manifests.  The
     price is a counter-free manifest — its metrics (and check verdicts)
     are thread-local values, deterministic functions of the plan. *)
  let checks, metrics = Obs.Control.with_enabled false (fun () -> execute plan) in
  let passed = List.for_all (fun c -> c.ok) checks in
  let metrics =
    metrics
    @ [
        ("checks_passed", float_of_int (List.length (List.filter (fun c -> c.ok) checks)));
        ("checks_failed", float_of_int (List.length (List.filter (fun c -> not c.ok) checks)));
        ("passed", if passed then 1. else 0.);
      ]
  in
  let manifest =
    {
      Manifest.schema_version = Manifest.schema_version;
      kind;
      name = plan.name;
      seed = plan.seed;
      scale = 1.0;
      jobs = 1;
      git = (match git with Some g -> g | None -> Manifest.git_describe ());
      cores = Domain.recommended_domain_count ();
      phases = [];
      counters = [];
      histograms = [];
      metrics;
      profile = [];
    }
  in
  { plan; passed; checks; manifest }
