module Rng = Stratify_prng.Rng
module Gen = Stratify_graph.Gen
module Series = Stratify_stats.Series
module Table = Stratify_stats.Table
module Discrete = Stratify_stats.Discrete
module Profile = Stratify_bandwidth.Profile
module Saroiu = Stratify_bandwidth.Saroiu
module Bt = Stratify_bittorrent
module Exec = Stratify_exec.Exec
module Net = Stratify_net.Net
open Stratify_core

type context = {
  seed : int;
  scale : float;
  csv_dir : string option;
  jobs : int;
  manifest_dir : string option;
  n_override : int option;
  scheduler : Scheduler.policy;
  bands : int;
  profile_phases : bool;
}

let default_context =
  {
    seed = 42;
    scale = 1.;
    csv_dir = None;
    jobs = 1;
    manifest_dir = None;
    n_override = None;
    scheduler = Scheduler.Random_poll;
    bands = 1;
    profile_phases = false;
  }

(* Contexts also arrive from library callers (the bench harness builds
   one directly), so the named-error validation lives here rather than
   only in the cmdliner layer. *)
let validate_context ctx =
  if ctx.scale <= 0. || ctx.scale > 1. then
    invalid_arg (Printf.sprintf "Experiments: scale must be in (0, 1] (got %g)" ctx.scale);
  if ctx.jobs < 1 then
    invalid_arg (Printf.sprintf "Experiments: jobs must be >= 1 (got %d)" ctx.jobs);
  (match ctx.n_override with
  | Some n when n < 1 ->
      invalid_arg (Printf.sprintf "Experiments: n must be >= 1 (got %d)" n)
  | _ -> ());
  if ctx.bands < 1 then
    invalid_arg (Printf.sprintf "Experiments: bands must be >= 1 (got %d)" ctx.bands);
  match ctx.n_override with
  | Some n when ctx.bands > n ->
      invalid_arg
        (Printf.sprintf "Experiments: %d bands exceed the %d-peer population" ctx.bands n)
  | _ -> ()

let scaled ctx full = Int.max 1 (int_of_float (Float.round (float_of_int full *. ctx.scale)))

let maybe_csv ctx name series =
  match ctx.csv_dir with
  | Some dir -> Output.write_series_csv ~dir ~name series
  | None -> ()

let maybe_csv_table ctx name t =
  match ctx.csv_dir with Some dir -> Output.write_csv ~dir ~name t | None -> ()

(* One step of the order-sensitive 50-bit FNV hash behind every
   checksum counter: machine-independent, and small enough to survive a
   JSON manifest exactly. *)
let fnv_seed = 0x811c9dc5
let fnv h word = ((h * 16777619) lxor word) land ((1 lsl 50) - 1)

(* The collaboration set, hashed as the bench manifests do.  fig1
   records one per trajectory so CI can assert the reached fixed point
   is scheduler-invariant (Theorem 1's uniqueness, checked end to end). *)
let config_checksum c =
  let h = ref fnv_seed in
  Config.iter_pairs (fun p q -> h := fnv !h ((p lsl 20) lxor q)) c;
  !h

(* A float's IEEE bits, as two 32-bit words, so the hash sees every bit. *)
let fnv_float h v =
  let bits = Int64.bits_of_float v in
  fnv
    (fnv h (Int64.to_int (Int64.logand bits 0xFFFF_FFFFL)))
    (Int64.to_int (Int64.shift_right_logical bits 32))

(* ------------------------------------------------------------------ *)

let fig1 ctx =
  Output.section "Fig 1 - convergence towards the stable configuration (empty start)";
  let units = 40 in
  let combos = [| (scaled ctx 100, 50.); (scaled ctx 1000, 10.); (scaled ctx 1000, 50.) |] in
  (* One trajectory per (n, d) combo; each re-seeds from the context, so
     they are independent kernels for the parallel engine.  All printing
     stays on the coordinator to keep the report order fixed. *)
  let series =
    Array.to_list
      (Exec.map_indexed ~jobs:ctx.jobs ~count:(Array.length combos) (fun i ->
           let n, d = combos.(i) in
           let rng = Rng.create ctx.seed in
           let graph = Gen.gnd rng ~n ~d in
           let inst = Instance.create ~graph ~b:(Array.make n 1) () in
           let stable = Greedy.stable_config inst in
           let sim = Sim.create ~scheduler:ctx.scheduler inst rng in
           let traj = Sim.disorder_trajectory sim ~stable ~units ~samples_per_unit:4 in
           (* Counter names are per-combo, values a single add: totals
              stay jobs-invariant and, by uniqueness, scheduler-
              invariant once converged. *)
           Stratify_obs.Counter.add
             (Stratify_obs.Counter.make (Printf.sprintf "checksum.fig1_final/%d" i))
             (config_checksum (Sim.config sim));
           { traj with Series.label = Printf.sprintf "n=%d,d=%g" n d }))
  in
  List.iteri
    (fun i traj ->
      let n, d = combos.(i) in
      match Series.first_x_below traj 1e-12 with
      | Some x ->
          Output.note "n=%d d=%g: stable after %.2f initiatives/peer (paper: < d = %g)" n d x d
      | None -> Output.note "n=%d d=%g: not converged in %d units" n d units)
    series;
  Output.plot ~x_label:"initiatives per peer" ~y_label:"disorder" series;
  maybe_csv ctx "fig1" series

let fig2 ctx =
  Output.section "Fig 2 - recovery after removing one peer from the stable state";
  let n = scaled ctx 1000 in
  let d = 10. in
  (* Paper removes peers 1, 100, 300, 600 (1-based labels). *)
  let removals = List.filter (fun r -> r < n) [ 0; 99; 299; 599 ] in
  let series =
    List.map
      (fun remove ->
        let rng = Rng.create ctx.seed in
        let traj =
          Churn.removal_trajectory ~scheduler:ctx.scheduler rng ~n ~d ~b:1 ~remove ~units:10
            ~samples_per_unit:4
        in
        let traj = { traj with Series.label = Printf.sprintf "peer %d removed" (remove + 1) } in
        Output.note "peer %4d removed: initial disorder %.4f, max %.4f, final %.5f" (remove + 1)
          (snd traj.Series.points.(0))
          (Series.max_y traj) (Series.final_value traj);
        traj)
      removals
  in
  Output.plot ~x_label:"initiatives per peer" ~y_label:"disorder" series;
  Output.note "paper: disorder always < 0.014, recovery < d = 10 units, better peers hurt more";
  maybe_csv ctx "fig2" series

let fig3 ctx =
  Output.section "Fig 3 - disorder under continuous churn (empty start)";
  let n = scaled ctx 1000 in
  let rates = [ 0.03; 0.01; 0.003; 0.0005; 0. ] in
  let series =
    List.map
      (fun rate ->
        let rng = Rng.create ctx.seed in
        let params =
          {
            Churn.n;
            d = 10.;
            b = 1;
            rate;
            units = 20;
            samples_per_unit = 4;
            strategy = Initiative.Best_mate;
            scheduler = ctx.scheduler;
          }
        in
        let traj = Churn.run rng params in
        let traj =
          { traj with Series.label = Printf.sprintf "churn=%g/1000" (rate *. 1000.) }
        in
        Output.note "churn %6g/1000: plateau disorder %.4f" (rate *. 1000.)
          (Churn.mean_disorder_tail traj ~skip_units:10.);
        traj)
      rates
  in
  (* Every plotted point's bits, in plot order: CI pins the trajectories
     themselves, not just the steps that produced them. *)
  Stratify_obs.Counter.add
    (Stratify_obs.Counter.make "checksum.fig3_series")
    (List.fold_left
       (fun h s -> Array.fold_left (fun h (x, y) -> fnv_float (fnv_float h x) y) h s.Series.points)
       fnv_seed series);
  Output.plot ~x_label:"initiatives per peer" ~y_label:"disorder" series;
  Output.note "paper: plateau roughly proportional to the churn rate";
  maybe_csv ctx "fig3" series

let print_components adj =
  let comps = Stratify_graph.Components.of_adjacency adj in
  let module C = Stratify_graph.Components in
  for id = 0 to comps.C.count - 1 do
    let members = C.members comps id in
    Printf.printf "  cluster %d: {%s}\n" id
      (String.concat ", " (List.map (fun v -> string_of_int (v + 1)) members))
  done

let fig4 ctx =
  Output.section "Fig 4 - constant 2-matching on a complete graph: clusters of b0+1";
  (* The acceptance graph is implicit ([Instance.complete] under
     [Cluster.stable_config]), so [--n 1000000] runs in O(n·b0) memory —
     no n×n adjacency exists at any point, and no per-peer array either:
     the clusters, the checksum and the block check all read the flat
     configuration rows.  [--bands k] snaps k rank bands to cluster cuts
     and solves them in place on the domain pool; the graph is identical
     for every band count, which CI checks through
     [checksum.fig4_graph]. *)
  let n = match ctx.n_override with Some n -> n | None -> 9 in
  let b0 = 2 in
  let config =
    Cluster.stable_config ~jobs:ctx.jobs ~bands:ctx.bands ~b:(Normal_b.constant ~n ~b0) ()
  in
  let analysis = Cluster.analyze_config config in
  Stratify_obs.Counter.add
    (Stratify_obs.Counter.make "checksum.fig4_graph")
    (config_checksum config);
  Stratify_obs.Counter.add
    (Stratify_obs.Counter.make "checksum.fig4_clusters")
    analysis.Cluster.count;
  if n <= 64 then print_components (Config.to_adjacency config)
  else
    Output.note "n=%d: %d clusters, mean size %.2f, largest %d" n analysis.Cluster.count
      analysis.Cluster.mean_size analysis.Cluster.largest;
  Output.note "matches the predicted block structure: %b"
    (Cluster.config_matches_block_structure ~b0 config)

let fig5 ctx =
  ignore ctx;
  Output.section "Fig 5 - one extra slot on peer 1 chains the clusters";
  let n = 8 and b0 = 2 in
  let b = Normal_b.with_extra (Normal_b.constant ~n ~b0) ~peer:0 in
  let adj = Cluster.collaboration_graph ~b () in
  print_components adj;
  let analysis = Cluster.analyze adj in
  Output.note "connected components: %d (paper: 1)" analysis.Cluster.count

let table1 ctx =
  Output.section "Table 1 - clustering and stratification on complete acceptance graphs";
  let rng = Rng.create ctx.seed in
  let paper_const_size = [| 3.; 4.; 5.; 6.; 7.; 8. |] in
  let paper_const_mmo = [| 1.67; 2.5; 3.2; 4.; 4.71; 5.5 |] in
  let paper_normal_size = [| 6.; 20.; 78.; 350.; 1800.; 11000. |] in
  let paper_normal_mmo = [| 1.33; 2.10; 2.52; 3.21; 3.65; 4.31 |] in
  let t =
    Table.create
      [
        "b0 / b-mean"; "const size (paper)"; "const size (ours)"; "const MMO (paper)";
        "const MMO (ours)"; "N(b,0.2) size (paper)"; "N(b,0.2) size (ours)";
        "N(b,0.2) MMO (paper)"; "N(b,0.2) MMO (ours)";
      ]
  in
  let rows_hash = ref fnv_seed in
  for b0 = 2 to 7 do
    let idx = b0 - 2 in
    (* Constant matching: measure on a block-aligned population. *)
    let n_const =
      match ctx.n_override with
      | None -> 2520
      | Some n -> Int.max (b0 + 1) (n - (n mod (b0 + 1)))
    in
    let config =
      Cluster.stable_config ~jobs:ctx.jobs ~bands:ctx.bands
        ~b:(Normal_b.constant ~n:n_const ~b0) ()
    in
    let const_analysis = Cluster.analyze_config config in
    let const_mmo = Mmo.of_config config in
    (* Normal budgets: population must dwarf the expected cluster size.
       Cluster sizes are heavy-tailed (a single giant merge dominates a
       mean), so replicate and report the median. *)
    let n_normal =
      match ctx.n_override with
      | Some n -> n
      | None -> scaled ctx (Int.max 10_000 (int_of_float (25. *. paper_normal_size.(idx))))
    in
    let replicates = if b0 <= 5 then 7 else if b0 = 6 then 3 else 2 in
    let runs =
      Exec.map_replicas ~jobs:ctx.jobs ~rng ~replicas:replicates (fun rng _ ->
          (* Replicas already occupy the worker pool, so band solves
             inside each kernel stay on their worker's domain. *)
          Phase.measure ~bands:ctx.bands rng ~n:n_normal ~mean_b:(float_of_int b0) ~sigma:0.2
            ~replicates:1)
    in
    let median f =
      let values = Array.map f runs in
      Array.sort Float.compare values;
      values.(Array.length values / 2)
    in
    let point =
      {
        Phase.sigma = 0.2;
        mean_cluster_size = median (fun p -> p.Phase.mean_cluster_size);
        largest_cluster = median (fun p -> p.Phase.largest_cluster);
        mmo = median (fun p -> p.Phase.mmo);
      }
    in
    let measured =
      [ const_analysis.Cluster.mean_size; const_mmo; point.Phase.mean_cluster_size; point.Phase.mmo ]
    in
    rows_hash := List.fold_left fnv_float !rows_hash measured;
    ignore
      (Table.add_float_row t (string_of_int b0)
         [
           paper_const_size.(idx);
           const_analysis.Cluster.mean_size;
           paper_const_mmo.(idx);
           const_mmo;
           paper_normal_size.(idx);
           point.Phase.mean_cluster_size;
           paper_normal_mmo.(idx);
           point.Phase.mmo;
         ])
  done;
  (* Every measured cell's bits, row by row: CI pins the table itself,
     not just the builds that produced it. *)
  Stratify_obs.Counter.add (Stratify_obs.Counter.make "checksum.table1_rows") !rows_hash;
  Output.table t;
  Output.note "normal-law cluster sizes depend on n and seed; the paper reports the";
  Output.note "order of magnitude of a factorial-like growth, which is what to compare.";
  maybe_csv_table ctx "table1" t

let fig6 ctx =
  Output.section "Fig 6 - sigma phase transition at b-mean = 6";
  let rng = Rng.create ctx.seed in
  let n = match ctx.n_override with Some n -> n | None -> scaled ctx 40_000 in
  let sigmas =
    Array.of_list
      (List.init 9 (fun i -> float_of_int i *. 0.05)
      @ List.init 8 (fun i -> 0.6 +. (float_of_int i *. 0.2)))
  in
  (* Flatten the (sigma, replicate) grid into one replica list so the
     whole sweep — not just one sigma — feeds the worker pool, then
     average the replicates back per sigma. *)
  let replicates = 2 in
  let grid =
    Exec.map_replicas ~jobs:ctx.jobs ~rng ~replicas:(Array.length sigmas * replicates)
      (fun rng k ->
        Phase.measure ~bands:ctx.bands rng ~n ~mean_b:6. ~sigma:sigmas.(k / replicates)
          ~replicates:1)
  in
  let points =
    Array.mapi
      (fun si sigma ->
        let mean f =
          let acc = ref 0. in
          for r = 0 to replicates - 1 do
            acc := !acc +. f grid.((si * replicates) + r)
          done;
          !acc /. float_of_int replicates
        in
        {
          Phase.sigma;
          mean_cluster_size = mean (fun p -> p.Phase.mean_cluster_size);
          largest_cluster = mean (fun p -> p.Phase.largest_cluster);
          mmo = mean (fun p -> p.Phase.mmo);
        })
      sigmas
  in
  let size_series =
    Series.make "mean cluster size"
      (Array.map (fun p -> (p.Phase.sigma, p.Phase.mean_cluster_size)) points)
  in
  let mmo_series =
    Series.make "mean max offset" (Array.map (fun p -> (p.Phase.sigma, p.Phase.mmo)) points)
  in
  Output.subsection "mean cluster size (log-y)";
  Output.plot ~logy:true ~x_label:"sigma" ~y_label:"cluster size" [ size_series ];
  Output.subsection "mean max offset";
  Output.plot ~x_label:"sigma" ~y_label:"MMO" [ mmo_series ];
  (match Phase.transition_sigma points ~threshold:2. with
  | Some s -> Output.note "cluster-size explosion at sigma ~ %.2f (paper: ~0.15)" s
  | None -> Output.note "no transition detected (scale too small?)");
  let at sigma =
    let best = ref points.(0) in
    Array.iter
      (fun p ->
        if Float.abs (p.Phase.sigma -. sigma) < Float.abs (!best.Phase.sigma -. sigma) then
          best := p)
      points;
    !best
  in
  Output.note "MMO: %.2f at sigma=0 -> %.2f at sigma=0.2 (paper: decreases across the transition)"
    points.(0).Phase.mmo (at 0.2).Phase.mmo;
  maybe_csv ctx "fig6" [ size_series; mmo_series ]

let fig7 ctx =
  Output.section "Fig 7 - exactness counter-example on 3 peers";
  let t =
    Table.create
      [ "p"; "D(1,2) exact"; "D(1,3) exact"; "D(2,3) exact"; "D(2,3) algo2"; "gap"; "p^3(1-p)" ]
  in
  List.iter
    (fun p ->
      let exact = Exact_small.mate_matrix ~n:3 ~p ~b0:1 in
      let approx = One_matching.matrix ~n:3 ~p in
      ignore
        (Table.add_float_row t
           (Printf.sprintf "%.2f" p)
           [
             exact.(0).(1);
             exact.(0).(2);
             exact.(1).(2);
             approx.(1).(2);
             approx.(1).(2) -. exact.(1).(2);
             Exact_small.fig7_approximation_error ~p;
           ]
           ~fmt:(Printf.sprintf "%.6f")))
    [ 0.1; 0.25; 0.5; 0.75; 0.9 ];
  Output.table t;
  Output.note "the gap equals p^3(1-p) exactly: Assumption 1 fails only through";
  Output.note "the correlation introduced by peer 1 being taken.";
  maybe_csv_table ctx "fig7" t

let fig8 ctx =
  Output.section "Fig 8 - mate-rank distributions (n = 5000, p = 0.5%)";
  let n = scaled ctx 5000 in
  let p = 0.005 /. ctx.scale in
  let p = Float.min p 0.9 in
  let pick frac = Int.min (n - 1) (int_of_float (frac *. float_of_int n)) in
  let peers = [| pick 0.04; pick 0.5; pick 0.96 |] in
  let rows = One_matching.mate_distributions ~n ~p ~peers in
  let series =
    Array.to_list
      (Array.mapi
         (fun k row ->
           let weights = Discrete.to_array row in
           Series.make
             (Printf.sprintf "peer %d" (peers.(k) + 1))
             (Array.mapi (fun j w -> (float_of_int (j + 1), w)) weights))
         rows)
  in
  Output.plot ~x_label:"mate rank j" ~y_label:"D(i,j)" series;
  Array.iteri
    (fun k row ->
      Output.note "peer %4d: match probability %.4f, mean mate rank %.0f, mode %d" (peers.(k) + 1)
        (Discrete.total_mass row) (Discrete.mean row +. 1.) (Discrete.mode row + 1))
    rows;
  let worst = (One_matching.mate_distributions ~n ~p ~peers:[| n - 1 |]).(0) in
  Output.note "worst peer match probability: %.4f (paper: 1/2 in the limit)"
    (Discrete.total_mass worst);
  (* Fluid-limit overlay for the best peer. *)
  let d = p *. float_of_int (n - 1) in
  Output.note "fluid limit check (best peer): max |nD(0,bn) - d e^{-bd}| = %.4f"
    (Fluid.max_gap_to_limit ~n ~d);
  maybe_csv ctx "fig8" series

let smooth_series ~window s =
  let pts = s.Series.points in
  let n = Array.length pts in
  let out =
    Array.init n (fun i ->
        let lo = Int.max 0 (i - window) and hi = Int.min (n - 1) (i + window) in
        let acc = ref 0. in
        for k = lo to hi do
          acc := !acc +. snd pts.(k)
        done;
        (fst pts.(i), !acc /. float_of_int (hi - lo + 1)))
  in
  { s with Series.points = out }

let fig9 ctx =
  Output.section "Fig 9 - Monte-Carlo validation of the independent 2-matching model";
  let n = scaled ctx 5000 in
  let p = Float.min 0.9 (0.01 /. ctx.scale) in
  let b0 = 2 in
  let peer = Int.min (n - 1) (int_of_float (0.6 *. float_of_int n)) in
  let runs = Int.max 50 (scaled ctx 400) in
  let rng = Rng.create ctx.seed in
  (* The paper's "several weeks" of realizations: one replica = one
     G(n,p) stable 2-matching, run as Algorithm 1 on the walk itself,
     which stops after row [peer] (DESIGN.md §8).  Each replica runs on
     its own substream (indexed by replica id, not worker), split before
     any replica runs, so stopping one walk early moves no other
     replica's draws, and the counts — and the CSV — are byte-identical
     for every --jobs value. *)
  let b = Array.make n b0 in
  let mates_per_run =
    Exec.map_replicas ~jobs:ctx.jobs ~rng ~replicas:runs (fun rng _ ->
        Greedy.mates_of_stream ~b ~peer (Gen.iter_gnp_edges rng ~n ~p))
  in
  let counts = Array.init b0 (fun _ -> Array.make n 0) in
  Array.iter
    (List.iteri (fun c j -> counts.(c).(j) <- counts.(c).(j) + 1))
    mates_per_run;
  Stratify_obs.Counter.add
    (Stratify_obs.Counter.make "checksum.fig9_counts")
    (Array.fold_left (Array.fold_left fnv) fnv_seed counts);
  let estimated = B_matching.choice_distributions ~n ~p ~b0 ~peer in
  let offset_series label weights =
    Series.make label
      (Array.mapi (fun j w -> (float_of_int (j - peer), w)) weights)
  in
  let sim_series c =
    offset_series
      (Printf.sprintf "choice %d simulated (%d runs)" (c + 1) runs)
      (Array.map (fun k -> float_of_int k /. float_of_int runs) counts.(c))
  in
  let est_series c =
    offset_series (Printf.sprintf "choice %d estimated" (c + 1)) (Discrete.to_array estimated.(c))
  in
  let window = Int.max 1 (n / 200) in
  let series =
    List.concat_map
      (fun c -> [ smooth_series ~window (sim_series c); smooth_series ~window (est_series c) ])
      [ 0; 1 ]
  in
  Output.plot ~x_label:"ranking offset" ~y_label:"probability" series;
  for c = 0 to b0 - 1 do
    let sim_mass =
      Array.fold_left ( + ) 0 counts.(c) |> fun k -> float_of_int k /. float_of_int runs
    in
    let est_mass = Discrete.total_mass estimated.(c) in
    (* Raw per-rank TV is dominated by Monte-Carlo noise (n cells, runs
       samples); compare coarse-binned distributions instead. *)
    let bins = 25 in
    let bin_width = (n + bins - 1) / bins in
    let sim_binned = Array.make bins 0. and est_binned = Array.make bins 0. in
    Array.iteri
      (fun j k ->
        sim_binned.(j / bin_width) <-
          sim_binned.(j / bin_width) +. (float_of_int k /. float_of_int runs))
      counts.(c);
    for j = 0 to n - 1 do
      est_binned.(j / bin_width) <- est_binned.(j / bin_width) +. Discrete.mass estimated.(c) j
    done;
    let tv = ref 0. in
    for b = 0 to bins - 1 do
      tv := !tv +. Float.abs (sim_binned.(b) -. est_binned.(b))
    done;
    (* an empty row's mean is 0, as [Discrete.mean] gives the estimate *)
    let sim_mean =
      let acc = ref 0. in
      Array.iteri (fun j k -> acc := !acc +. (float_of_int (j * k) /. float_of_int runs)) counts.(c);
      if sim_mass > 0. then !acc /. sim_mass else 0.
    in
    Output.note "choice %d: mass sim %.4f / est %.4f; mean rank sim %.0f / est %.0f; binned TV %.4f"
      (c + 1) sim_mass est_mass sim_mean (Discrete.mean estimated.(c)) (0.5 *. !tv)
  done;
  Output.note "paper used 10^6 realizations over several weeks; %d realizations already" runs;
  Output.note "show the distribution shapes matching within sampling noise.";
  maybe_csv ctx "fig9" series

let fig10 ctx =
  Output.section "Fig 10 - upstream capacity distribution (synthetic Saroiu-like profile)";
  let s = Profile.to_series Saroiu.profile ~points:80 in
  Output.plot ~logx:true ~x_label:"upstream (kbps)" ~y_label:"% of hosts" [ s ];
  Output.note "median upstream: %.0f kbps; density peaks at: %s" Saroiu.median_upstream
    (String.concat ", "
       (Array.to_list (Array.map (fun b -> Printf.sprintf "%.0f" b) Saroiu.density_peaks)));
  maybe_csv ctx "fig10" [ s ]

let fig11 ctx =
  Output.section "Fig 11 - expected D/U ratio vs upload per slot (b0=3, d=20)";
  let n = scaled ctx 2000 in
  let r = Share_ratio.compute { Share_ratio.n; b0 = 3; d = 20.; profile = Saroiu.profile } in
  let s = Share_ratio.to_series r in
  Output.plot ~logx:true ~x_label:"bandwidth per slot (kbps)" ~y_label:"expected D/U" [ s ];
  Output.note "best peer ratio: %.3f (paper: < 1, best peers are spoiled)"
    (Share_ratio.best_peer_ratio r);
  Output.note "worst peer ratio: %.3f (paper: high, ~half the time 4x their upload)"
    (Share_ratio.worst_peer_ratio r);
  Array.iter
    (fun peak ->
      Output.note "density peak %6.0f kbps: ratio %.3f (paper: close to 1)" peak
        (Share_ratio.ratio_near r ~bandwidth_per_slot:(peak /. 3.)))
    [| 56.; 129.; 257.; 650. |];
  maybe_csv ctx "fig11" [ s ]

let slots_ablation ctx =
  Output.section "Slot-count ablation - the rational peer and the 4-slot default";
  let n = scaled ctx 1000 in
  let t = Table.create [ "upload (kbps)"; "1 slot"; "2 slots"; "3 slots"; "4 slots"; "5 slots" ] in
  List.iter
    (fun upload ->
      let sweep =
        Share_ratio.sweep_slots ~n ~d:20. ~profile:Saroiu.profile ~my_upload:upload
          ~slots:[| 1; 2; 3; 4; 5 |] ()
      in
      ignore
        (Table.add_float_row t
           (Printf.sprintf "%.0f" upload)
           (List.map (fun (_, ratio) -> ratio) (Array.to_list sweep))
           ~fmt:(Printf.sprintf "%.3f")))
    [ 128.; 256.; 640.; 1200.; 3200. ];
  Output.table t;
  Output.note "fewer TFT slots raise per-slot bandwidth, hence rank, hence ratio - the";
  Output.note "race towards the 1-slot Nash equilibrium - except where the higher";
  Output.note "per-slot bandwidth lands just above a density peak (an efficiency peak,";
  Output.note "cf. Fig 11). The default 4 (3 TFT + 1 optimistic) trades TFT-graph";
  Output.note "connectivity against that incentive.";
  (* The equilibrium claim, checked: which symmetric slot profiles survive
     unilateral deviation? *)
  Output.subsection "symmetric Nash check (candidates 1..5, probes at 5 quantiles)";
  List.iter
    (fun b0 ->
      let a =
        Nash.symmetric_profile_analysis ~n:(Int.min n 400) ~d:20. ~profile:Saroiu.profile
          ~population_b0:b0 ~candidates:[| 1; 2; 3; 4; 5 |] ()
      in
      let defectors =
        Array.fold_left
          (fun acc (_, _, sq, br) -> if br > sq *. 1.05 then acc + 1 else acc)
          0 a.Nash.deviations
      in
      Output.note "everyone at %d slot(s): %s (%d/%d probe peers would defect)" b0
        (if a.Nash.is_equilibrium then "Nash equilibrium" else "NOT an equilibrium")
        defectors
        (Array.length a.Nash.deviations))
    [ 1; 2; 3; 4 ];
  Output.note "exactly the paper's statement: rational play collapses to 1 TFT slot.";
  maybe_csv_table ctx "slots" t

let swarm_validation ctx =
  Output.section "Swarm cross-check - TFT simulator vs analytic share-ratio model";
  let n = scaled ctx 300 in
  let rng = Rng.create ctx.seed in
  let uploads = Profile.rank_bandwidths Saroiu.profile ~n in
  let params = { (Bt.Swarm.default_params ~uploads) with Bt.Swarm.d = 20. } in
  let swarm = Bt.Swarm.create rng params in
  let warmup = 600 and measure = 1200 in
  Bt.Swarm.run swarm ~ticks:warmup;
  Bt.Swarm.reset_counters swarm;
  Bt.Swarm.run swarm ~ticks:measure;
  let sim_ratios = Bt.Metrics.tft_share_ratios swarm in
  let model = Share_ratio.compute { Share_ratio.n; b0 = 3; d = 20.; profile = Saroiu.profile } in
  let sim_series =
    Series.make "simulated (TFT traffic)"
      (Array.init n (fun k ->
           let i = n - 1 - k in
           (model.Share_ratio.upload_per_slot.(i), sim_ratios.(i))))
  in
  let model_series = { (Share_ratio.to_series model) with Series.label = "analytic model" } in
  let window = Int.max 1 (n / 40) in
  Output.plot ~logx:true ~x_label:"bandwidth per slot (kbps)" ~y_label:"D/U"
    [ smooth_series ~window sim_series; model_series ];
  let gap = Series.area_between (smooth_series ~window sim_series) model_series in
  Output.note "mean |simulated - model| over the curve: %.3f" gap;
  Output.note "stratification correlation in the swarm: %.3f"
    (Bt.Metrics.stratification_correlation swarm);
  Output.note "TFT reciprocity: %.3f" (Bt.Metrics.reciprocity swarm);
  maybe_csv ctx "swarm_validation" [ sim_series; model_series ]


let strategies_ablation ctx =
  Output.section "Strategy ablation - best-mate vs decremental vs random initiatives";
  let n = scaled ctx 500 in
  let d = 10. in
  let t = Table.create [ "strategy"; "units to stability (median of 5)"; "active initiatives" ] in
  List.iter
    (fun strategy ->
      let units = ref [] and actives = ref [] in
      for seed = 0 to 4 do
        let rng = Rng.create (ctx.seed + seed) in
        let graph = Gen.gnd rng ~n ~d in
        let inst = Instance.create ~graph ~b:(Array.make n 1) () in
        let stable = Greedy.stable_config inst in
        let sim = Sim.create ~strategy ~scheduler:ctx.scheduler inst rng in
        match Sim.run_until_stable sim ~stable ~max_units:2000 with
        | Some steps ->
            units := (float_of_int steps /. float_of_int n) :: !units;
            actives := float_of_int (Sim.active_count sim) :: !actives
        | None -> ()
      done;
      let median l =
        let a = Array.of_list l in
        Array.sort Float.compare a;
        if Array.length a = 0 then Float.nan else a.(Array.length a / 2)
      in
      ignore
        (Table.add_float_row t
           (Initiative.strategy_name strategy)
           [ median !units; median !actives ]
           ~fmt:(Printf.sprintf "%.1f")))
    [ Initiative.Best_mate; Initiative.Decremental; Initiative.Random ];
  Output.table t;
  Output.note "all three strategies of the paper's Section 3 converge; less information";
  Output.note "means more (wasted) initiatives, not a different fixed point.";
  maybe_csv_table ctx "strategies" t

let scaling ctx =
  Output.section "Convergence scaling - initiatives/peer to stability vs n and d";
  (* The paper observes convergence in < n*d initiatives; here we fit the
     empirical scaling law the paper left open. *)
  let median_units ~n ~d =
    (* Five independent seeds; each kernel derives its own RNG from the
       index, so the medians do not depend on --jobs. *)
    let runs =
      Exec.map_indexed ~jobs:ctx.jobs ~count:5 (fun k ->
          let rng = Rng.create (ctx.seed + k) in
          let graph = Gen.gnd rng ~n ~d in
          let inst = Instance.create ~graph ~b:(Array.make n 1) () in
          let stable = Greedy.stable_config inst in
          let sim = Sim.create ~scheduler:ctx.scheduler inst rng in
          match Sim.run_until_stable sim ~stable ~max_units:4000 with
          | Some steps -> float_of_int steps /. float_of_int n
          | None -> Float.nan)
    in
    let a = Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list runs)) in
    Array.sort Float.compare a;
    a.(Array.length a / 2)
  in
  let ns = [| 125; 250; 500; 1000 |] in
  let n_points =
    Array.map (fun n -> (float_of_int (scaled ctx n), median_units ~n:(scaled ctx n) ~d:10.)) ns
  in
  let fit_n = Stratify_stats.Linreg.fit_loglog n_points in
  Output.note "fixed d=10, varying n: units ~ n^%.2f (r2 %.2f)" fit_n.Stratify_stats.Linreg.slope
    fit_n.Stratify_stats.Linreg.r_squared;
  let ds = [| 5.; 10.; 20.; 40. |] in
  let d_points = Array.map (fun d -> (d, median_units ~n:(scaled ctx 500) ~d)) ds in
  let fit_d = Stratify_stats.Linreg.fit_loglog d_points in
  Output.note "fixed n=%d, varying d: units ~ d^%.2f (r2 %.2f)" (scaled ctx 500)
    fit_d.Stratify_stats.Linreg.slope fit_d.Stratify_stats.Linreg.r_squared;
  Output.note "paper: 'the stable configuration is reached in less than n*d initiatives'";
  Output.note "(i.e. units/peer <~ d and roughly n-independent) - consistent when the";
  Output.note "n-exponent is near 0 and the d-exponent is at most ~1.";
  let series =
    [
      Series.make "units vs n (d=10)" n_points;
      Series.make "units vs d (n fixed)" d_points;
    ]
  in
  maybe_csv ctx "scaling" series

let alpha_fluid ctx =
  Output.section "Fluid limit across ranks - shift invariance of the mate-offset law";
  let n = scaled ctx 4000 in
  let d = 20. in
  let alphas = [| 0.; 0.25; 0.5; 0.75; 0.97 |] in
  let series =
    Array.to_list (Array.map (fun alpha -> Fluid.offset_series ~n ~d ~alpha) alphas)
  in
  (* Plot only the informative window around zero offset. *)
  let windowed =
    List.map
      (fun s ->
        let keep =
          Array.of_list
            (List.filter
               (fun (x, _) -> Float.abs x < 4. /. d)
               (Array.to_list s.Series.points))
        in
        { s with Series.points = keep })
      series
  in
  Output.plot ~x_label:"offset / n" ~y_label:"n * D" windowed;
  Output.note "mid-rank gap (alpha 0.4 vs 0.6): %.4f - pure translation"
    (Fluid.shift_invariance_gap ~n ~d ~alpha1:0.4 ~alpha2:0.6);
  Output.note "edge gap (alpha 0.0 vs 0.5):     %.4f - boundary effects"
    (Fluid.shift_invariance_gap ~n ~d ~alpha1:0. ~alpha2:0.5);
  Output.note "this is Section 5.3's stratification statement: the offset law does not";
  Output.note "depend on rank away from the boundaries (the 'finite horizon' property).";
  maybe_csv ctx "alpha_fluid" windowed

let latency ctx =
  Output.section "Utility-class contrast - global ranking vs symmetric latency (Section 7)";
  let n = scaled ctx 300 in
  let rng = Rng.create ctx.seed in
  let positions = Stratify_graph.Spatial.random_positions rng ~n in
  let dist = Stratify_graph.Spatial.distance positions in
  let graph = Gen.gnd rng ~n ~d:30. in
  let acceptance = Stratify_graph.Undirected.adjacency_arrays graph in
  let b = Array.make n 3 in
  (* Global-ranking matching on the same substrate. *)
  let inst = Instance.create ~graph ~b () in
  let ranked = Greedy.stable_config inst in
  (* Symmetric latency matching. *)
  let u = Utility.symmetric_distance dist in
  let gm = General_matching.create ~utility:u ~acceptance ~b in
  let sym = Symmetric_greedy.stable_state gm ~utility:u in
  let rank_offset_pairs config_mates =
    let pairs = ref [] in
    for p = 0 to n - 1 do
      List.iter (fun q -> pairs := (float_of_int p, float_of_int q) :: !pairs) (config_mates p)
    done;
    Array.of_list !pairs
  in
  let mean_partner_metric config_mates metric =
    let total = ref 0. and count = ref 0 in
    for p = 0 to n - 1 do
      List.iter
        (fun q ->
          total := !total +. metric p q;
          incr count)
        (config_mates p)
    done;
    !total /. float_of_int (Int.max 1 !count)
  in
  let ranked_mates p = Config.mates ranked p in
  let sym_mates p = General_matching.State.mates sym p in
  let t = Table.create [ "utility"; "rank corr (partners)"; "mean |rank offset|"; "mean distance" ] in
  let row name mates =
    ignore
      (Table.add_float_row t name
         [
           Stratify_stats.Correlation.pearson (rank_offset_pairs mates);
           mean_partner_metric mates (fun p q -> Float.abs (float_of_int (p - q)));
           mean_partner_metric mates dist;
         ]
         ~fmt:(Printf.sprintf "%.3f"))
  in
  row "global ranking" ranked_mates;
  row "symmetric latency" sym_mates;
  Output.table t;
  Output.note "global ranking stratifies by rank (high rank correlation, small rank";
  Output.note "offset, distance ~ random); latency clusters by proximity (small";
  Output.note "distance, rank structure gone) - Section 7's utility-class contrast.";
  (* Blended utilities: existence degrades between the two well-behaved
     poles. *)
  let score q = float_of_int (n - q) /. float_of_int n in
  let ranking_u = Utility.of_function (fun _ q -> score q) in
  let cycles alpha =
    let blended = Utility.blend ranking_u (Utility.symmetric_distance dist) ~alpha in
    let small_n = Int.min n 40 in
    let small_acc =
      Array.init small_n (fun p ->
          Array.of_list
            (List.filter (fun q -> q < small_n) (Array.to_list acceptance.(p))))
    in
    let g = General_matching.create ~utility:blended ~acceptance:small_acc ~b:(Array.make small_n 2) in
    let cycled = ref 0 in
    for k = 0 to 9 do
      let rng' = Rng.create (ctx.seed + (100 * k)) in
      match General_matching.best_response_run g ~max_steps:50_000 rng' with
      | General_matching.Cycled _ -> incr cycled
      | General_matching.Converged _ -> ()
    done;
    !cycled
  in
  List.iter
    (fun alpha -> Output.note "blend alpha=%.2f: %d/10 best-response runs failed to converge" alpha (cycles alpha))
    [ 0.; 0.5; 1. ];
  Output.note "(both pure classes provably converge; blends lose the guarantee - the";
  Output.note "adversarial cyclic utility in the test suite does cycle - though random";
  Output.note "geometric blends rarely do in practice)"

let gossip_experiment ctx =
  Output.section "Gossip peer sampling - matching on dynamic views (reference [8])";
  let n = scaled ctx 500 in
  let d_target = 10 in
  let rng = Rng.create ctx.seed in
  let t =
    Table.create
      [ "view size"; "coverage"; "in-degree sd"; "stable edges"; "disorder vs full-knowledge" ]
  in
  (* Full-knowledge reference: stable matching when everybody knows
     everybody. *)
  let full_inst = Instance.complete ~n ~b:(Array.make n 1) () in
  let full_stable = Greedy.stable_config full_inst in
  List.iter
    (fun view_size ->
      let g = Gossip.create rng ~n ~view_size in
      for _ = 1 to 20 do
        Gossip.round g
      done;
      let graph = Gossip.acceptance_graph g in
      let inst = Instance.create ~graph ~b:(Array.make n 1) () in
      let stable = Greedy.stable_config inst in
      (* Compare mate choices against the full-knowledge stable matching
         with the paper's disorder metric (full-knowledge pairs adjacent
         ranks). *)
      let gap =
        let total = ref 0 in
        for p = 0 to n - 1 do
          let m1 = match Config.best_mate stable p with Some q -> q | None -> n in
          let m2 = match Config.best_mate full_stable p with Some q -> q | None -> n in
          total := !total + abs (m1 - m2)
        done;
        2. *. float_of_int !total /. (float_of_int n *. float_of_int (n + 1))
      in
      ignore
        (Table.add_float_row t (string_of_int view_size)
           [
             Gossip.view_coverage g;
             Gossip.indegree_stddev g;
             float_of_int (Config.edge_count stable);
             gap;
           ]
           ~fmt:(Printf.sprintf "%.4g")))
    [ d_target / 2; d_target; 2 * d_target; 4 * d_target ];
  Output.table t;
  Output.note "a gossip view of c peers behaves like an Erdos-Renyi acceptance graph of";
  Output.note "expected degree ~2c: modest views already yield near-full matchings whose";
  Output.note "mates sit within a view's width of the full-knowledge mates.";
  (* Rank discovery - the use the paper cites for gossip. *)
  let scores = Array.init n (fun i -> float_of_int (n - i)) in
  let g = Gossip.create rng ~n ~view_size:d_target in
  let est = Gossip.Rank_estimator.create ~n in
  List.iter
    (fun rounds_so_far ->
      for _ = 1 to rounds_so_far do
        Gossip.round g;
        Gossip.Rank_estimator.observe est g ~scores
      done;
      Output.note "rank discovery: mean |error| %.1f ranks (of %d) after %d more rounds"
        (Gossip.Rank_estimator.mean_absolute_error est ~scores)
        n rounds_so_far)
    [ 1; 9; 40 ]

let flashcrowd ctx =
  Output.section "Flash crowd - before the paper's post-flash-crowd assumption holds";
  let n = scaled ctx 60 in
  let rng = Rng.create ctx.seed in
  let uploads =
    Array.init n (fun i -> if i = 0 then 200. else 80. *. Float.pow 0.94 (float_of_int i))
  in
  let result =
    Bt.Scenario.flash_crowd rng ~uploads ~pieces:300 ~piece_size:40. ~d:15. ~max_ticks:30_000
  in
  let completed =
    Array.fold_left
      (fun acc t -> if t <> None then acc + 1 else acc)
      0 result.Bt.Scenario.completion_ticks
  in
  Output.plot ~x_label:"tick" ~y_label:"completed peers" [ result.Bt.Scenario.completed_curve ];
  Output.note "completions: %d/%d within the horizon" completed n;
  Output.note "capacity/completion-time Spearman: %.3f (faster peers finish earlier)"
    (Bt.Scenario.completion_capacity_correlation result ~uploads);
  let swarm = result.Bt.Scenario.swarm in
  Output.note "stratification correlation at the end of the crowd: %.3f"
    (Bt.Metrics.stratification_correlation swarm);
  Output.note "the paper's Section 6 assumes this phase is over; the simulator shows the";
  Output.note "bandwidth hierarchy already shaping who finishes when during it.";
  maybe_csv ctx "flashcrowd" [ result.Bt.Scenario.completed_curve ]


let streaming_experiment ctx =
  Output.section "Streaming play-out delay - the cost of stratification (Section 7)";
  let n = scaled ctx 2000 in
  let rng = Rng.create ctx.seed in
  let t =
    Table.create
      [ "collaboration graph"; "mean delay"; "max delay"; "reached" ]
  in
  let add name adjacency =
    (* Source: the best peer (rank 0). *)
    let r = Streaming.measure ~adjacency ~sources:[ 0 ] in
    ignore
      (Table.add_float_row t name
         [ r.Streaming.mean_delay; float_of_int r.Streaming.max_delay;
           float_of_int r.Streaming.reachable ]
         ~fmt:(Printf.sprintf "%.1f"))
  in
  (* Stratified: global-ranking b-matching on the complete graph; b-mean 8
     with sigma 0.5 puts the whole population in one giant component (cf
     Fig 6) so the comparison is about delay, not disconnection. *)
  let b = Normal_b.rounded_normal rng ~n ~mean:8. ~sigma:0.5 in
  add "stratified (global ranking)" (Cluster.collaboration_graph ~b ());
  (* Latency-based: symmetric utility on random positions. *)
  let small = Int.min n 600 in
  let positions = Stratify_graph.Spatial.random_positions rng ~n:small in
  let acceptance =
    Stratify_graph.Undirected.adjacency_arrays
      (Gen.gnd rng ~n:small ~d:40.)
  in
  let u = Utility.symmetric_distance (Stratify_graph.Spatial.distance positions) in
  let gm = General_matching.create ~utility:u ~acceptance ~b:(Array.make small 8) in
  let sym = Symmetric_greedy.stable_state gm ~utility:u in
  let sym_adj =
    Array.init small (fun p -> Array.of_list (General_matching.State.mates sym p))
  in
  add (Printf.sprintf "latency-based (n=%d)" small) sym_adj;
  (* Random baseline with the same degree budget. *)
  add "random 8-regular" (Streaming.random_regular_baseline rng ~n ~degree:8);
  Output.table t;
  Output.note "Section 7: strong stratification -> large-diameter collaboration graph ->";
  Output.note "large play-out delay; random or proximity graphs spread content in";
  Output.note "O(log n) hops. The delay is the stratification price for streaming.";
  maybe_csv_table ctx "streaming" t

let edonkey_experiment ctx =
  Output.section "eDonkey credit queues vs BitTorrent TFT (Section 2's contrast)";
  let n = scaled ctx 200 in
  let uploads = Profile.rank_bandwidths Saroiu.profile ~n in
  let ticks = 1200 in
  (* TFT swarm. *)
  let rng = Rng.create ctx.seed in
  let swarm = Bt.Swarm.create rng { (Bt.Swarm.default_params ~uploads) with Bt.Swarm.d = 20. } in
  Bt.Swarm.run swarm ~ticks:(ticks / 2);
  Bt.Swarm.reset_counters swarm;
  Bt.Swarm.run swarm ~ticks:(ticks / 2);
  (* Credit-queue network. *)
  let rng2 = Rng.create ctx.seed in
  let ed =
    Stratify_edonkey.Queue_sim.create rng2
      { (Stratify_edonkey.Queue_sim.default_params ~uploads) with Stratify_edonkey.Queue_sim.d = 20. }
  in
  Stratify_edonkey.Queue_sim.run ed ~ticks:(ticks / 2);
  Stratify_edonkey.Queue_sim.reset_counters ed;
  Stratify_edonkey.Queue_sim.run ed ~ticks:(ticks / 2);
  let tft_ratios = Bt.Metrics.tft_share_ratios swarm in
  let ed_ratios = Stratify_edonkey.Queue_sim.share_ratios ed in
  let mean a lo hi =
    let s = ref 0. in
    for i = lo to hi - 1 do
      s := !s +. a.(i)
    done;
    !s /. float_of_int (hi - lo)
  in
  let t = Table.create [ "protocol"; "stratification corr"; "top-5 D/U"; "bottom-5 D/U" ] in
  ignore
    (Table.add_float_row t "BitTorrent TFT"
       [
         Bt.Metrics.stratification_correlation swarm;
         mean tft_ratios 0 5;
         mean tft_ratios (n - 5) n;
       ]
       ~fmt:(Printf.sprintf "%.3f"));
  ignore
    (Table.add_float_row t "eDonkey credit queues"
       [
         Stratify_edonkey.Queue_sim.stratification_correlation ed;
         mean ed_ratios 0 5;
         mean ed_ratios (n - 5) n;
       ]
       ~fmt:(Printf.sprintf "%.3f"));
  Output.table t;
  Output.note "TFT's per-rechoke rate competition stratifies partners by bandwidth;";
  Output.note "credit queues age everyone to the front eventually, so partner choice -";
  Output.note "hence stratification - is much weaker, as Section 2's contrast between";
  Output.note "the one-list (game) and two-list (queue) architectures suggests.";
  maybe_csv_table ctx "edonkey" t


let bigslots ctx =
  Output.section "More slots for fast peers - Section 6's prescription";
  (* Part 1 (model): "best peers have to set up a large number of
     connections in order to avoid bad download/upload ratio" - a top peer
     sweeps its slot count; per-slot bandwidth, hence rank, drops with
     every extra slot, and the expected D/U climbs towards 1. *)
  let n = scaled ctx 1000 in
  let top_upload = Profile.quantile Saroiu.profile 0.999 in
  let sweep =
    Share_ratio.sweep_slots_scaled ~n ~d:20. ~profile:Saroiu.profile ~my_upload:top_upload
      ~slots:[| 3; 6; 12; 24; 48; 96; 192 |]
  in
  let t = Table.create [ "slots"; "per-slot (kbps)"; "expected D/U" ] in
  Array.iter
    (fun (s, ratio) ->
      ignore
        (Table.add_float_row t (string_of_int s)
           [ top_upload /. float_of_int s; ratio ]
           ~fmt:(Printf.sprintf "%.3f")))
    sweep;
  Output.table t;
  Output.note "a %.0f kbps peer recovers a fair ratio only once its per-slot bandwidth" top_upload;
  Output.note "falls into the strata below - the paper's justification for BitTorrent's";
  Output.note "higher default connection counts on fast links.";
  (* Part 2 (simulator reality check): with only d = 20 acquaintances, slot
     scaling saturates - knowledge, not slots, binds. *)
  let n_swarm = scaled ctx 200 in
  let uploads = Profile.rank_bandwidths Saroiu.profile ~n:n_swarm in
  let run slots =
    let rng = Rng.create ctx.seed in
    let params = { (Bt.Swarm.default_params ~uploads) with Bt.Swarm.d = 20.; slots } in
    let swarm = Bt.Swarm.create rng params in
    Bt.Swarm.run swarm ~ticks:800;
    Bt.Swarm.reset_counters swarm;
    Bt.Swarm.run swarm ~ticks:800;
    let ratios = Bt.Metrics.tft_share_ratios swarm in
    let s = ref 0. in
    for i = 0 to 9 do
      s := !s +. ratios.(i)
    done;
    !s /. 10.
  in
  let uniform = run (Array.make n_swarm 3) in
  let maxed = run (Array.map (fun u -> if u > 4. *. uploads.(n_swarm / 2) then 20 else 3) uploads) in
  Output.note "swarm reality check (d = 20): top-10 TFT D/U %.3f with 3 slots, %.3f with" uniform maxed;
  Output.note "20 slots - opening more slots than you have acquaintances only dilutes";
  Output.note "per-partner bandwidth, so the prescription implicitly requires knowing";
  Output.note "(and being interesting to) proportionally more peers.";
  maybe_csv_table ctx "bigslots" t


let async_experiment ctx =
  Output.section "Asynchronous protocol - initiatives over real messages";
  (* The paper's dynamics assume atomic rewiring; over a message-passing
     propose/accept/commit handshake, decisions act on stale state.  How
     much latency can the convergence result absorb? *)
  let n = scaled ctx 400 in
  let d = 10. in
  let horizon = 60. in
  let series =
    List.map
      (fun latency ->
        let rng = Rng.create ctx.seed in
        let graph = Gen.gnd rng ~n ~d in
        let inst = Instance.create ~graph ~b:(Array.make n 1) () in
        let stable = Greedy.stable_config inst in
        let a =
          Async_dynamics.create inst rng { Async_dynamics.latency; initiative_rate = 1.; loss = 0. }
        in
        let traj = Async_dynamics.disorder_trajectory a ~stable ~horizon ~samples:30 in
        let inflight = Async_dynamics.inconsistency_count a in
        ignore (Async_dynamics.quiesce a);
        Output.note
          "latency %5.2f x initiative period: disorder %.4f at t=%.0f, %d one-sided listings \
           in flight, %d after drain"
          latency
          (Stratify_stats.Series.final_value traj)
          horizon inflight
          (Async_dynamics.inconsistency_count a);
        traj)
      [ 0.05; 0.5; 2.; 5. ]
  in
  Output.plot ~x_label:"time (~initiatives/peer)" ~y_label:"disorder (mutual edges)" series;
  Output.note "Theorem 1's convergence survives message latency up to the initiative";
  Output.note "period; beyond it, stale-state races keep a disorder floor and in-flight";
  Output.note "handshakes leave transient one-sided listings (repaired by keepalives).";
  (* Failure injection: lossy network at modest latency. *)
  let rng = Rng.create ctx.seed in
  let graph = Gen.gnd rng ~n ~d in
  let inst = Instance.create ~graph ~b:(Array.make n 1) () in
  let stable = Greedy.stable_config inst in
  let a =
    Async_dynamics.create inst rng
      { Async_dynamics.latency = 0.1; initiative_rate = 1.; loss = 0.15 }
  in
  Async_dynamics.run a ~horizon;
  let lost = Async_dynamics.messages_lost a in
  ignore (Async_dynamics.quiesce a);
  Output.note "with 15%% message loss (%d messages dropped): disorder %.4f, %d residual"
    lost
    (Disorder.disorder (Async_dynamics.mutual_config a) ~stable)
    (Async_dynamics.inconsistency_count a);
  Output.note "one-sided listings - audits make the handshake loss-tolerant.";
  maybe_csv ctx "async" series

let faults_experiment ctx =
  Output.section "Fault injection - convergence under loss x latency (stratify.net)";
  (* The async experiment varies latency with the legacy loss model; here
     every message crosses an explicit Net and the grid sweeps both axes.
     The observables: how long until the live protocol first touches the
     stable configuration, and where it ends up after draining. *)
  let n = scaled ctx 300 in
  let d = 10. in
  let horizon = 120. in
  let samples = 40 in
  let losses = [| 0.; 0.05; 0.15; 0.3 |] in
  let latencies = [| 0.05; 0.5; 2. |] in
  let count = Array.length losses * Array.length latencies in
  let cells =
    Exec.map_indexed ~jobs:ctx.jobs ~count (fun i ->
        let loss = losses.(i / Array.length latencies) in
        let latency = latencies.(i mod Array.length latencies) in
        let rng = Rng.create ctx.seed in
        let graph = Gen.gnd rng ~n ~d in
        let inst = Instance.create ~graph ~b:(Array.make n 1) () in
        let stable = Greedy.stable_config inst in
        let net =
          Net.create rng
            {
              Net.latency = Net.Constant latency;
              loss = (if loss > 0. then Net.Iid loss else Net.No_loss);
              duplicate = 0.;
              reorder = 0.;
              reorder_spread = 0.;
            }
        in
        let a =
          Async_dynamics.create ~net inst rng
            { Async_dynamics.latency; initiative_rate = 1.; loss }
        in
        (* March in fixed steps, recording the first instant the mutual
           configuration coincides with the stable one. *)
        let step = horizon /. float_of_int samples in
        let t_stable = ref None in
        for k = 1 to samples do
          Async_dynamics.run a ~horizon:step;
          if
            !t_stable = None
            && Disorder.disorder (Async_dynamics.mutual_config a) ~stable = 0.
          then t_stable := Some (step *. float_of_int k)
        done;
        let outcome = Async_dynamics.quiesce a in
        let final = Disorder.disorder (Async_dynamics.mutual_config a) ~stable in
        Stratify_obs.Counter.add
          (Stratify_obs.Counter.make (Printf.sprintf "checksum.faults_final/%d" i))
          (config_checksum (Async_dynamics.mutual_config a));
        (loss, latency, !t_stable, final, Net.dropped net, outcome))
  in
  let t =
    Table.create
      ("loss \\ latency"
      :: Array.to_list (Array.map (fun l -> Printf.sprintf "%g" l) latencies))
  in
  Array.iteri
    (fun row loss ->
      let cells_of_row =
        Array.to_list
          (Array.init (Array.length latencies) (fun col ->
               let _, _, t_stable, final, _, outcome =
                 cells.((row * Array.length latencies) + col)
               in
               match (outcome, t_stable) with
               | Async_dynamics.Budget_exhausted, _ -> "no-drain"
               | _, Some ts when final = 0. -> Printf.sprintf "t*=%g" ts
               | _, _ -> Printf.sprintf "D=%.4f" final))
      in
      Table.add_row t (Printf.sprintf "%g" loss :: cells_of_row))
    losses;
  Output.table t;
  let total_dropped =
    Array.fold_left (fun acc (_, _, _, _, dropped, _) -> acc + dropped) 0 cells
  in
  Output.note "t* = time to first reach the stable configuration (units ~ initiatives/peer);";
  Output.note "D = residual disorder after draining when t* was never reached within t=%g." horizon;
  Output.note "%d messages dropped across the grid; keepalive audits keep every drained"
    total_dropped;
  Output.note "cell consistent, so loss costs time, not correctness.";
  maybe_csv_table ctx "faults" t

let all =
  [
    ("fig1", "convergence from the empty configuration", fig1);
    ("fig2", "single-peer removal recovery", fig2);
    ("fig3", "disorder under continuous churn", fig3);
    ("fig4", "complete-graph clustering (b0 constant)", fig4);
    ("fig5", "extra slot reconnects clusters", fig5);
    ("table1", "cluster size and MMO table", table1);
    ("fig6", "sigma phase transition", fig6);
    ("fig7", "exact vs independent model, n=3", fig7);
    ("fig8", "mate-rank distributions", fig8);
    ("fig9", "Monte-Carlo validation of Algorithm 3", fig9);
    ("fig10", "upstream capacity CDF", fig10);
    ("fig11", "expected D/U ratio", fig11);
    ("slots", "slot-count ablation (4-slot default)", slots_ablation);
    ("swarm", "TFT swarm simulator vs analytic model", swarm_validation);
    ("strategies", "initiative-strategy ablation", strategies_ablation);
    ("scaling", "convergence-speed scaling law", scaling);
    ("alpha", "fluid limit across ranks (shift invariance)", alpha_fluid);
    ("latency", "utility-class contrast: ranking vs latency", latency);
    ("gossip", "matching on gossip-maintained views", gossip_experiment);
    ("flashcrowd", "flash-crowd completion dynamics", flashcrowd);
    ("streaming", "play-out delay of stratified graphs", streaming_experiment);
    ("edonkey", "credit-queue baseline vs TFT", edonkey_experiment);
    ("bigslots", "bandwidth-scaled slot counts (Section 6 prescription)", bigslots);
    ("async", "message-passing dynamics vs latency", async_experiment);
    ("faults", "convergence under loss x latency (stratify.net)", faults_experiment);
  ]

let find name =
  List.find_map (fun (n, _, f) -> if n = name then Some f else None) all

(* ------------------------------------------------------------------ *)

module Obs = Stratify_obs

let run_named ctx (name, _desc, f) =
  validate_context ctx;
  match ctx.manifest_dir with
  | None -> f ctx
  | Some dir ->
      Obs.Counter.reset_all ();
      Obs.Histogram.reset_all ();
      Obs.Span.reset ();
      Obs.Profile.reset ();
      Obs.Control.set_enabled true;
      if ctx.profile_phases then Obs.Profile.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Obs.Control.set_enabled false;
          Obs.Profile.set_enabled false)
        (fun () -> Obs.Span.with_ name (fun () -> f ctx));
      let manifest =
        Obs.Run_manifest.capture ~kind:"experiment" ~name ~seed:ctx.seed ~scale:ctx.scale
          ~jobs:ctx.jobs ()
      in
      let path = Obs.Run_manifest.write ~dir manifest in
      Output.note "wrote manifest %s" path
