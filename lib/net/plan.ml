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

let parse_fail fmt = Printf.ksprintf (fun s -> raise (Jsonx.Parse_error s)) fmt

let req name j =
  match Jsonx.member name j with
  | Jsonx.Null -> parse_fail "plan: missing field %S" name
  | v -> v

let opt_float name ~default j =
  match Jsonx.member name j with Jsonx.Null -> default | v -> Jsonx.get_float v

let opt_int name ~default j =
  match Jsonx.member name j with Jsonx.Null -> default | v -> Jsonx.get_int v

let latency_of_json j =
  match Jsonx.get_string (req "kind" j) with
  | "constant" -> Constant (Jsonx.get_float (req "value" j))
  | "jitter" ->
      Jitter { base = Jsonx.get_float (req "base" j); spread = Jsonx.get_float (req "spread" j) }
  | "lognormal" ->
      Log_normal { mu = Jsonx.get_float (req "mu" j); sigma = Jsonx.get_float (req "sigma" j) }
  | k -> parse_fail "plan: unknown latency kind %S" k

let loss_of_json j =
  match Jsonx.get_string (req "kind" j) with
  | "none" -> No_loss
  | "iid" -> Iid (Jsonx.get_float (req "p" j))
  | "burst" ->
      Burst
        {
          p_gb = Jsonx.get_float (req "p_gb" j);
          p_bg = Jsonx.get_float (req "p_bg" j);
          loss_good = opt_float "loss_good" ~default:0. j;
          loss_bad = Jsonx.get_float (req "loss_bad" j);
        }
  | k -> parse_fail "plan: unknown loss kind %S" k

let default_net =
  { latency = Constant 0.05; loss = No_loss; duplicate = 0.; reorder = 0.; reorder_spread = 0. }

let net_of_json j =
  match j with
  | Jsonx.Null -> default_net
  | _ ->
      {
        latency =
          (match Jsonx.member "latency" j with
          | Jsonx.Null -> default_net.latency
          | l -> latency_of_json l);
        loss =
          (match Jsonx.member "loss" j with Jsonx.Null -> No_loss | l -> loss_of_json l);
        duplicate = opt_float "duplicate" ~default:0. j;
        reorder = opt_float "reorder" ~default:0. j;
        reorder_spread = opt_float "reorder_spread" ~default:0. j;
      }

let groups_of_json = function
  | Jsonx.String "halves" -> Halves
  | Jsonx.String "heal" -> Heal
  | Jsonx.List l -> Groups (Array.of_list (List.map Jsonx.get_int l))
  | Jsonx.String s -> parse_fail "plan: unknown groups %S (want \"halves\", \"heal\" or a list)" s
  | _ -> parse_fail "plan: groups must be \"halves\", \"heal\" or a list of ints"

let partition_of_json j =
  { at = Jsonx.get_float (req "at" j); groups = groups_of_json (req "groups" j) }

let backend_of_json j =
  match Jsonx.member "backend" j with
  | Jsonx.Null -> Dense
  | v -> (
      match Jsonx.get_string v with
      | "dense" -> Dense
      | "complete" -> Complete
      | "complete_minus" -> Complete_minus { removed = opt_int "removed" ~default:0 j }
      | k -> parse_fail "plan: unknown backend %S (want dense/complete/complete_minus)" k)

let scheduler_of_json j =
  match Jsonx.member "scheduler" j with
  | Jsonx.Null -> Scheduler.Random_poll
  | v -> (
      let s = Jsonx.get_string v in
      match Scheduler.policy_of_string s with
      | Some p -> p
      | None -> parse_fail "plan: unknown scheduler %S (want random/worklist)" s)

let workload_of_json j =
  match Jsonx.get_string (req "kind" j) with
  | "async" ->
      Async
        {
          n = Jsonx.get_int (req "n" j);
          d = opt_float "d" ~default:10. j;
          b = opt_int "b" ~default:1 j;
          horizon = opt_float "horizon" ~default:100. j;
          initiative_rate = opt_float "initiative_rate" ~default:1. j;
          backend = backend_of_json j;
          scheduler = scheduler_of_json j;
        }
  | "swarm" ->
      Swarm
        {
          n = Jsonx.get_int (req "n" j);
          d = opt_float "d" ~default:20. j;
          ticks = opt_int "ticks" ~default:2000 j;
          warmup = opt_int "warmup" ~default:500 j;
        }
  | "edonkey" ->
      Edonkey
        {
          n = Jsonx.get_int (req "n" j);
          d = opt_float "d" ~default:20. j;
          slots = opt_int "slots" ~default:4 j;
          ticks = opt_int "ticks" ~default:2000 j;
          warmup = opt_int "warmup" ~default:500 j;
        }
  | k -> parse_fail "plan: unknown workload kind %S" k

let assertion_of_json j =
  match Jsonx.get_string (req "kind" j) with
  | "drained" -> Drained
  | "final_disorder_below" -> Final_disorder_below (Jsonx.get_float (req "value" j))
  | "inconsistency_below" -> Inconsistency_below (Jsonx.get_int (req "value" j))
  | "converged_by" ->
      Converged_by
        {
          deadline = Jsonx.get_float (req "deadline" j);
          disorder_below = Jsonx.get_float (req "disorder_below" j);
        }
  | "stratification_within" -> Stratification_within (Jsonx.get_float (req "tolerance" j))
  | "scheduler_fixed_point" -> Scheduler_fixed_point
  | k -> parse_fail "plan: unknown assertion kind %S" k

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
      if horizon <= 0. then invalid_arg (Printf.sprintf "plan %s: horizon must be positive" t.name);
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

(* Reject unknown top-level fields instead of silently ignoring them: a
   typo'd field ("asserts", "partiton") would otherwise make the plan
   assert nothing and "pass" vacuously. *)
let known_fields = [ "name"; "seed"; "workload"; "net"; "partitions"; "assertions" ]

let check_no_unknown_fields j =
  match j with
  | Jsonx.Obj members ->
      List.iter
        (fun (key, _) ->
          if not (List.mem key known_fields) then
            parse_fail "plan: unknown field %S (expected one of %s)" key
              (String.concat "/" known_fields))
        members
  | _ -> parse_fail "plan: expected a JSON object"

let of_json j =
  check_no_unknown_fields j;
  validate
    {
      name = Jsonx.get_string (req "name" j);
      seed = opt_int "seed" ~default:42 j;
      workload = workload_of_json (req "workload" j);
      net = net_of_json (Jsonx.member "net" j);
      partitions =
        (match Jsonx.member "partitions" j with
        | Jsonx.Null -> []
        | l -> List.map partition_of_json (Jsonx.get_list l));
      assertions = List.map assertion_of_json (Jsonx.get_list (req "assertions" j));
    }

let latency_to_json = function
  | Constant v -> Jsonx.Obj [ ("kind", Jsonx.String "constant"); ("value", Jsonx.Float v) ]
  | Jitter { base; spread } ->
      Jsonx.Obj
        [ ("kind", Jsonx.String "jitter"); ("base", Jsonx.Float base); ("spread", Jsonx.Float spread) ]
  | Log_normal { mu; sigma } ->
      Jsonx.Obj
        [ ("kind", Jsonx.String "lognormal"); ("mu", Jsonx.Float mu); ("sigma", Jsonx.Float sigma) ]

let loss_to_json = function
  | No_loss -> Jsonx.Obj [ ("kind", Jsonx.String "none") ]
  | Iid p -> Jsonx.Obj [ ("kind", Jsonx.String "iid"); ("p", Jsonx.Float p) ]
  | Burst { p_gb; p_bg; loss_good; loss_bad } ->
      Jsonx.Obj
        [
          ("kind", Jsonx.String "burst");
          ("p_gb", Jsonx.Float p_gb);
          ("p_bg", Jsonx.Float p_bg);
          ("loss_good", Jsonx.Float loss_good);
          ("loss_bad", Jsonx.Float loss_bad);
        ]

let groups_to_json = function
  | Halves -> Jsonx.String "halves"
  | Heal -> Jsonx.String "heal"
  | Groups g -> Jsonx.List (Array.to_list (Array.map (fun x -> Jsonx.Int x) g))

let workload_to_json = function
  | Async { n; d; b; horizon; initiative_rate; backend; scheduler } ->
      Jsonx.Obj
        ([
           ("kind", Jsonx.String "async");
           ("n", Jsonx.Int n);
           ("d", Jsonx.Float d);
           ("b", Jsonx.Int b);
           ("horizon", Jsonx.Float horizon);
           ("initiative_rate", Jsonx.Float initiative_rate);
         ]
        @ (match backend with
          | Dense -> [ ("backend", Jsonx.String "dense") ]
          | Complete -> [ ("backend", Jsonx.String "complete") ]
          | Complete_minus { removed } ->
              [ ("backend", Jsonx.String "complete_minus"); ("removed", Jsonx.Int removed) ])
        @ [ ("scheduler", Jsonx.String (Scheduler.policy_name scheduler)) ])
  | Swarm { n; d; ticks; warmup } ->
      Jsonx.Obj
        [
          ("kind", Jsonx.String "swarm");
          ("n", Jsonx.Int n);
          ("d", Jsonx.Float d);
          ("ticks", Jsonx.Int ticks);
          ("warmup", Jsonx.Int warmup);
        ]
  | Edonkey { n; d; slots; ticks; warmup } ->
      Jsonx.Obj
        [
          ("kind", Jsonx.String "edonkey");
          ("n", Jsonx.Int n);
          ("d", Jsonx.Float d);
          ("slots", Jsonx.Int slots);
          ("ticks", Jsonx.Int ticks);
          ("warmup", Jsonx.Int warmup);
        ]

let assertion_to_json = function
  | Drained -> Jsonx.Obj [ ("kind", Jsonx.String "drained") ]
  | Final_disorder_below v ->
      Jsonx.Obj [ ("kind", Jsonx.String "final_disorder_below"); ("value", Jsonx.Float v) ]
  | Inconsistency_below v ->
      Jsonx.Obj [ ("kind", Jsonx.String "inconsistency_below"); ("value", Jsonx.Int v) ]
  | Converged_by { deadline; disorder_below } ->
      Jsonx.Obj
        [
          ("kind", Jsonx.String "converged_by");
          ("deadline", Jsonx.Float deadline);
          ("disorder_below", Jsonx.Float disorder_below);
        ]
  | Stratification_within tol ->
      Jsonx.Obj [ ("kind", Jsonx.String "stratification_within"); ("tolerance", Jsonx.Float tol) ]
  | Scheduler_fixed_point -> Jsonx.Obj [ ("kind", Jsonx.String "scheduler_fixed_point") ]

let to_json t =
  Jsonx.Obj
    [
      ("name", Jsonx.String t.name);
      ("seed", Jsonx.Int t.seed);
      ("workload", workload_to_json t.workload);
      ( "net",
        Jsonx.Obj
          [
            ("latency", latency_to_json t.net.latency);
            ("loss", loss_to_json t.net.loss);
            ("duplicate", Jsonx.Float t.net.duplicate);
            ("reorder", Jsonx.Float t.net.reorder);
            ("reorder_spread", Jsonx.Float t.net.reorder_spread);
          ] );
      ( "partitions",
        Jsonx.List
          (List.map
             (fun p -> Jsonx.Obj [ ("at", Jsonx.Float p.at); ("groups", groups_to_json p.groups) ])
             t.partitions) );
      ("assertions", Jsonx.List (List.map assertion_to_json t.assertions));
    ]

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  of_json (Jsonx.of_string s)

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

let run_swarm plan ~n ~d ~ticks ~warmup =
  (* A tick has no sub-tick timing, so a burst model collapses to its
     stationary rate. *)
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
    let swarm = Swarm.create rng { (Swarm.default_params ~uploads) with Swarm.d; faults } in
    Swarm.run swarm ~ticks:warmup;
    Swarm.reset_counters swarm;
    Swarm.run swarm ~ticks:(ticks - warmup);
    swarm
  in
  let swarm = build ~faulty:true in
  let strat = Bt_metrics.stratification_correlation swarm in
  Counter.add c_strat_scaled (int_of_float ((strat +. 1.) *. 1e6));
  let baseline =
    if List.exists (function Stratification_within _ -> true | _ -> false) plan.assertions then
      Some (Bt_metrics.stratification_correlation (build ~faulty:false))
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
        | a -> dispatch_fail plan ~runner:"swarm" a)
      plan.assertions
  in
  let metrics =
    ("stratification", strat)
    :: (match baseline with None -> [] | Some b -> [ ("baseline_stratification", b) ])
  in
  (checks, metrics)

(* The eDonkey twin of [run_swarm]: same tick-level fault model, same
   fault-free-twin stratification comparison, over the credit-queue
   simulator instead of the TFT swarm. *)
let run_edonkey plan ~n ~d ~slots ~ticks ~warmup =
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
    let sim =
      Queue_sim.create rng { (Queue_sim.default_params ~uploads) with Queue_sim.d; slots; faults }
    in
    Queue_sim.run sim ~ticks:warmup;
    Queue_sim.reset_counters sim;
    Queue_sim.run sim ~ticks:(ticks - warmup);
    sim
  in
  let sim = build ~faulty:true in
  let strat = Queue_sim.stratification_correlation sim in
  Counter.add c_strat_scaled (int_of_float ((strat +. 1.) *. 1e6));
  let baseline =
    if List.exists (function Stratification_within _ -> true | _ -> false) plan.assertions then
      Some (Queue_sim.stratification_correlation (build ~faulty:false))
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
        | a -> dispatch_fail plan ~runner:"edonkey" a)
      plan.assertions
  in
  let metrics =
    ("stratification", strat)
    :: ("mean_wait", Queue_sim.mean_wait sim)
    :: (match baseline with None -> [] | Some b -> [ ("baseline_stratification", b) ])
  in
  (checks, metrics)

let execute plan =
  match plan.workload with
  | Async { n; d; b; horizon; initiative_rate; backend; scheduler } ->
      run_async plan ~n ~d ~b ~horizon ~initiative_rate ~backend ~scheduler
  | Swarm { n; d; ticks; warmup } -> run_swarm plan ~n ~d ~ticks ~warmup
  | Edonkey { n; d; slots; ticks; warmup } -> run_edonkey plan ~n ~d ~slots ~ticks ~warmup

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
