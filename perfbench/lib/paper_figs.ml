(* paper-figs: [Experiments.run_named] on fig1, fig3, table1, fig4
   (n = 10^6, 4 bands) and fig9, one domain.  fig3 and fig9 run at pinned
   smaller scales so that one pass takes ~3 s and a run holds about ten
   passes to take the median of.  Each figure's report goes to a file in
   the scratch directory, not the terminal; the digest of that report
   plus the figure's CSV is the output oracle.  The set-up of a pass is
   clearing and recreating its output tree. *)

module Experiments = Stratify_cli.Experiments
module Rng = Stratify_prng.Rng
module Gen = Stratify_graph.Gen
open Stratify_core

type shape = { scale : float; fig3_scale : float; fig9_scale : float; fig4_n : int; fig4_bands : int }

let full = { scale = 1.0; fig3_scale = 0.5; fig9_scale = 0.15; fig4_n = 1_000_000; fig4_bands = 4 }
let tiny = { scale = 0.05; fig3_scale = 0.05; fig9_scale = 0.05; fig4_n = 10_000; fig4_bands = 2 }

let context shape ~seed ~csv_dir name =
  let base = { Experiments.default_context with seed; scale = shape.scale; csv_dir = Some csv_dir } in
  match name with
  | "fig3" -> { base with scale = shape.fig3_scale }
  | "fig4" -> { base with n_override = Some shape.fig4_n; bands = shape.fig4_bands }
  | "fig9" -> { base with scale = shape.fig9_scale }
  | _ -> base

let entry name =
  match List.find_opt (fun (n, _, _) -> n = name) Experiments.all with
  | Some e -> e
  | None -> invalid_arg ("paper-figs: no experiment " ^ name)

(* Run [f] with stdout sent to [path]. *)
let with_stdout_to path f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

(* The report minus its "wrote <path>" notes, plus the CSV if any. *)
let digest ~out ~csv_dir name =
  let report =
    String.split_on_char '\n' (Files.read out)
    |> List.filter (fun l ->
           not (String.length l >= 10 && String.sub l 0 10 = "  . wrote "))
    |> String.concat "\n"
  in
  let csv = Filename.concat csv_dir (name ^ ".csv") in
  let csv = if Sys.file_exists csv then Files.read csv else "" in
  Digest.to_hex (Digest.string (report ^ "\000" ^ csv))

type fig = {
  name : string;
  wall_s : float;
  probes : float * float;  (** the probes taken right before and after the figure *)
  digest : string;
  raised : bool;
}

type pass = {
  setup_s : float;  (** clearing and recreating the output tree, reference seconds *)
  pass_s : float;  (** the five figures, set-up and probes excluded *)
  figs : fig list;
  counters : (string * int) list;  (** summed over the figures; traced pass only *)
}

let counters_of_interest =
  [ "sim.steps"; "sim.active"; "initiative.rewires"; "shard.fixup_pops"; "greedy.stable_config" ]

(* One pass over the five figures; [manifest_dir] turns the library's
   own observability on (the traced pass), and [run_named] then resets
   the counters per figure, so they are summed after each one. *)
let pass ?manifest_dir shape ~seed ~dir () =
  let csv_dir = Filename.concat dir "csv" in
  let (), _, setup_s =
    Timing.time_ref (fun () ->
        Files.fresh_dir dir;
        Sys.mkdir csv_dir 0o755)
  in
  let totals = Hashtbl.create 8 in
  let probing_s = ref 0. in
  let probe () =
    let p, dp = Timing.time Timing.probe in
    probing_s := !probing_s +. dp;
    p
  in
  let t0 = Timing.now_ns () in
  let figs =
    List.map
      (fun name ->
        let before = probe () in
        let ctx = { (context shape ~seed ~csv_dir name) with manifest_dir } in
        let out = Filename.concat dir (name ^ ".out") in
        let raised, wall_s =
          Timing.time (fun () ->
              match with_stdout_to out (fun () -> Experiments.run_named ctx (entry name)) with
              | () -> false
              | exception (Invalid_argument _ | Failure _ | Not_found) -> true)
        in
        if manifest_dir <> None then
          List.iter
            (fun c ->
              let v = Stratify_obs.Counter.value (Stratify_obs.Counter.make c) in
              Hashtbl.replace totals c (v + Option.value ~default:0 (Hashtbl.find_opt totals c)))
            counters_of_interest;
        let after = probe () in
        {
          name;
          wall_s;
          probes = (before, after);
          digest = (if raised then "" else digest ~out ~csv_dir name);
          raised;
        })
      Metrics.figures
  in
  let pass_s = Timing.seconds_since t0 -. !probing_s in
  let counters =
    List.map (fun c -> (c, Option.value ~default:0 (Hashtbl.find_opt totals c))) counters_of_interest
  in
  { setup_s; pass_s; figs; counters }

(* Report + CSV digests of the full-shape pass at seed 42. *)
let golden_seed = 42

let golden =
  [
    ("fig1", "58a4a8dce5395c69027460112f7c7f59");
    ("fig3", "acd7d65e555d1238dfe019aec035d406");
    ("table1", "b0612b8d707ca4e8ef8159fc9bf5d1a9");
    ("fig4", "af9318bbe8f8bf29dd586524bf4b527a");
    ("fig9", "bdda93606744a64180039f0d330b4636");
  ]

(* Isolated kernel replays with each figure's parameters. *)
let kernel_replays shape ~seed ~fig9_replicas =
  let rng = Rng.create seed in
  let rows = ref [] in
  let add name v = rows := (name, v) :: !rows in
  (* fig9: G(n,p) -> instance -> stable 2-matching *)
  let n9 = max 1 (int_of_float (Float.round (5000. *. shape.fig9_scale))) in
  let p9 = Float.min 0.9 (0.01 /. shape.fig9_scale) in
  let gnp = ref 0. and build = ref 0. and greedy = ref 0. and edges = ref 0 in
  for _ = 1 to fig9_replicas do
    let adj, dt = Timing.time (fun () -> Gen.gnp_adjacency rng ~n:n9 ~p:p9) in
    gnp := !gnp +. dt;
    edges := !edges + (Array.fold_left (fun acc row -> acc + Array.length row) 0 adj / 2);
    let inst, dt = Timing.time (fun () -> Instance.of_adjacency ~adj ~b:(Array.make n9 2) ()) in
    build := !build +. dt;
    let _, dt = Timing.time (fun () -> Greedy.stable_config inst) in
    greedy := !greedy +. dt
  done;
  add "graph.gnp_s" !gnp;
  add "core.instance_build_s" !build;
  add "core.greedy_s" !greedy;
  add "graph.edges" (float_of_int !edges);
  (* fig1: the (1000, 10) trajectory *)
  let n1 = max 2 (int_of_float (Float.round (1000. *. shape.scale))) in
  let graph = Gen.gnd rng ~n:n1 ~d:10. in
  let inst = Instance.create ~graph ~b:(Array.make n1 1) () in
  let stable = Greedy.stable_config inst in
  let sim = Sim.create inst rng in
  let _, dt =
    Timing.time (fun () -> Sim.disorder_trajectory sim ~stable ~units:40 ~samples_per_unit:4)
  in
  add "core.sim_trajectory_s" dt;
  (* fig3: one churn rate *)
  let n3 = max 2 (int_of_float (Float.round (1000. *. shape.fig3_scale))) in
  let _, dt =
    Timing.time (fun () ->
        Churn.run rng
          {
            Churn.n = n3;
            d = 10.;
            b = 1;
            rate = 0.01;
            units = 20;
            samples_per_unit = 4;
            strategy = Initiative.Best_mate;
            scheduler = Scheduler.Random_poll;
          })
  in
  add "core.churn_run_s" dt;
  (* fig4: banded solve and cluster analysis on the complete graph *)
  let b = Normal_b.constant ~n:shape.fig4_n ~b0:2 in
  let _, dt =
    Timing.time (fun () ->
        Shard.stable_config ~bands:shape.fig4_bands (Instance.complete ~n:shape.fig4_n ~b ()))
  in
  add "core.shard_s" dt;
  let adj = Cluster.collaboration_graph ~bands:shape.fig4_bands ~b () in
  let _, dt = Timing.time (fun () -> Cluster.analyze adj) in
  add "core.cluster_s" dt;
  List.rev !rows

(* ------------------------------------------------------------------ *)

let name = "paper-figs"

let spec (cfg : Harness.config) =
  let shape = match cfg.size with Harness.Full -> full | Tiny -> tiny in
  let dir = Filename.concat cfg.tmp "figs" in
  let manifest_dir = Filename.concat cfg.tmp "figs-manifests" in
  let digests p = List.map (fun f -> (f.name, f.digest)) p.figs in
  (* The warm-up pass, untimed, gives the reference digests: they must
     equal the recorded ones at seed 42 and every later pass must
     reproduce them. *)
  let warm = pass shape ~seed:cfg.seed ~dir () in
  let golden_ok = cfg.seed <> golden_seed || cfg.size <> Full || digests warm = golden in
  let reference = digests warm in
  let iterate ~traced =
    if traced then pass ~manifest_dir shape ~seed:cfg.seed ~dir () else pass shape ~seed:cfg.seed ~dir ()
  in
  let measured p =
    let figs = List.map (fun f -> f.wall_s) p.figs in
    let bad f = f.raised || (not golden_ok) || List.assoc_opt f.name reference <> Some f.digest in
    {
      Harness.setup_s = [ p.setup_s ];
      (* each figure, then what the pass spent around them *)
      segments = Array.of_list (figs @ [ p.pass_s -. List.fold_left ( +. ) 0. figs ]);
      (* each figure between its two probes; the tail after the last figure *)
      probes =
        Array.of_list
          (List.map (fun f -> fst f.probes) p.figs
          @ List.init 2 (fun _ -> snd (List.nth p.figs (List.length p.figs - 1)).probes));
      wall_s = p.pass_s;
      attempted = List.length p.figs;
      failed = List.length (List.filter bad p.figs);
    }
  in
  (* each pass's time of figure [n], in reference seconds *)
  let fig_walls iters n =
    List.map
      (fun p ->
        let f = List.find (fun f -> f.name = n) p.figs in
        let before, after = f.probes in
        Timing.at_ref ~probe:(0.5 *. (before +. after)) f.wall_s)
      iters
  in
  let end_to_end ~wall_s:_ iters =
    let ms n = 1e3 *. Timing.median (fig_walls iters n) in
    ( (ms "fig3", ms "fig9"),
      List.map (fun (n, d) -> Printf.sprintf "digest %-8s %s" n d) reference
      @ List.map
          (fun n ->
            let xs = fig_walls iters n in
            Harness.line name (n ^ "_s") (Timing.median xs) "s"
              ("reference seconds, median of " ^ Harness.spread xs))
          Metrics.figures )
  in
  let layers ~plain ~traced =
    let fig9_replicas = match cfg.size with Full -> 8 | Tiny -> 2 in
    let kernels = kernel_replays shape ~seed:cfg.seed ~fig9_replicas in
    (* the traced pass writes one manifest, so forks git once, per figure *)
    let forks_s = Harness.git_forks_s (List.length traced.figs) in
    {
      Harness.rows =
        List.map (fun f -> ("fig." ^ f.name ^ "_s", f.wall_s)) plain.figs
        @ kernels
        @ List.map (fun (c, v) -> (c, float_of_int v)) traced.counters
        @ [ ("obs.git_describe_s", forks_s) ];
      busy_s = List.fold_left (fun acc f -> acc +. f.wall_s) 0. plain.figs;
      untraced_work_s = forks_s;
    }
  in
  {
    Harness.check =
      (if cfg.seed = golden_seed then "figure digests = recorded seed-42 digests"
       else "figure digests identical across passes");
    iterate;
    measured;
    end_to_end;
    layers;
    notes =
      [
        "note graph.* and core.* seconds are isolated kernel replays with each figure's parameters, \
         not self time inside the figures";
        "note obs.git_describe_s is the traced pass's git describe forks (one per figure manifest), \
         measured and taken out of trace_overhead_s";
      ];
  }

let run cfg = Harness.run ~name cfg (spec cfg)
