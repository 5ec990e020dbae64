(* Command-line driver regenerating every table and figure of the paper.

   Usage:
     stratify_experiments all
     stratify_experiments fig8 --scale 0.5 --csv results/
     stratify_experiments list *)

open Cmdliner
module E = Stratify_cli.Experiments

let seed_arg =
  let doc = "PRNG seed; runs are bit-for-bit reproducible for a given seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let scale_arg =
  let doc =
    "Workload scale in (0, 1]: 1.0 reproduces the paper's population sizes; smaller values \
     shrink populations and replicate counts proportionally for quick smoke runs."
  in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"SCALE" ~doc)

let csv_arg =
  let doc = "Directory to write raw results as CSV (created if missing)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the Monte-Carlo-heavy experiments (fig1, table1, fig6, fig9, scaling). \
     Results are bit-identical for any value, including 1; defaults to the machine's \
     recommended domain count."
  in
  Arg.(
    value
    & opt int (Stratify_exec.Exec.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"JOBS" ~doc)

let n_arg =
  let doc =
    "Override the population size of the complete-acceptance-graph experiments (fig4, table1, \
     fig6), bypassing --scale for the population.  These experiments use the implicit complete \
     backend, so e.g. --n 100000 needs O(n) memory, not O(n^2)."
  in
  Arg.(value & opt (some int) None & info [ "n"; "num-peers" ] ~docv:"N" ~doc)

let scheduler_arg =
  let doc =
    "Convergence scheduler for the dynamics experiments (fig1, fig2, fig3, scaling, \
     strategies): 'random' polls a uniform peer per step (the paper's setting, default); \
     'worklist' drains a dirty queue of active candidates seeded through the rewire hook — \
     the reached stable configurations are identical (Theorem 1), with far fewer wasted \
     initiative attempts."
  in
  Arg.(
    value
    & opt (enum [ ("random", Stratify_core.Scheduler.Random_poll);
                  ("worklist", Stratify_core.Scheduler.Worklist) ])
        Stratify_core.Scheduler.Random_poll
    & info [ "scheduler" ] ~docv:"POLICY" ~doc)

let bands_arg =
  let doc =
    "Rank bands for the complete-acceptance-graph matchings (fig4, table1, fig6, scaling): the \
     population splits into BANDS overlapping rank intervals solved independently on the --jobs \
     domain pool, with a deterministic worklist fixup reconciling the boundaries.  The result is \
     bit-identical for every band count (Theorem 1's uniqueness); more bands means more \
     parallelism at 10^6-10^7 peers."
  in
  Arg.(value & opt int 1 & info [ "bands" ] ~docv:"BANDS" ~doc)

let band_overlap_arg =
  let doc =
    "Extension width of each rank band, in ranks.  Defaults to the concentration bound of the \
     paper's Section 4 (~(3/4)*b0 padded by one cluster width).  Any value >= 0 yields the same \
     matching; smaller overlaps only shift work into the boundary fixup."
  in
  Arg.(value & opt (some int) None & info [ "band-overlap" ] ~docv:"RANKS" ~doc)

let manifest_arg =
  let doc =
    "Directory to write one JSON run manifest per experiment (created if missing): seed, scale, \
     jobs, git describe, per-phase wall/CPU timings, and the step / active-initiative / rewire / \
     chunk counter totals.  Enables the stratify.obs probes for the run; counter totals are \
     identical for every --jobs value."
  in
  Arg.(value & opt (some string) None & info [ "manifest" ] ~docv:"DIR" ~doc)

let profile_phases_arg =
  let doc =
    "Record a per-kernel profile section in the run manifests (requires --manifest): wall time, \
     entry and operation counts, and GC allocation deltas (minor/major/promoted words) for the \
     instrumented matching kernels (greedy build, cluster-cut scan, band solves, stitch, \
     fixup).  Purely additive — without this flag the manifests are byte-identical to previous \
     versions."
  in
  Arg.(value & flag & info [ "profile-phases" ] ~doc)

let context seed scale csv_dir jobs manifest_dir n_override scheduler bands band_overlap
    profile_phases =
  let ctx =
    {
      E.seed;
      scale;
      csv_dir;
      jobs;
      manifest_dir;
      n_override;
      scheduler;
      bands;
      band_overlap;
      profile_phases;
    }
  in
  (* Same checks (and messages) as the library entry point. *)
  match E.validate_context ctx with
  | () -> `Ok ctx
  | exception Invalid_argument msg -> `Error (false, msg)

let run_experiment entry seed scale csv_dir jobs manifest_dir n_override scheduler bands
    band_overlap profile_phases =
  match
    context seed scale csv_dir jobs manifest_dir n_override scheduler bands band_overlap
      profile_phases
  with
  | `Error _ as e -> e
  | `Ok ctx ->
      E.run_named ctx entry;
      `Ok ()

let experiment_cmd ((name, description, _) as entry) =
  let doc = Printf.sprintf "Regenerate %s of the paper (%s)." name description in
  Cmd.v
    (Cmd.info name ~doc)
    Term.(
      ret
        (const (run_experiment entry) $ seed_arg $ scale_arg $ csv_arg $ jobs_arg $ manifest_arg
       $ n_arg $ scheduler_arg $ bands_arg $ band_overlap_arg $ profile_phases_arg))

let all_cmd =
  let doc = "Run every experiment in sequence." in
  let run seed scale csv_dir jobs manifest_dir n_override scheduler bands band_overlap
      profile_phases =
    match
      context seed scale csv_dir jobs manifest_dir n_override scheduler bands band_overlap
        profile_phases
    with
    | `Error _ as e -> e
    | `Ok ctx ->
        List.iter (E.run_named ctx) E.all;
        `Ok ()
  in
  Cmd.v (Cmd.info "all" ~doc)
    Term.(
      ret
        (const run $ seed_arg $ scale_arg $ csv_arg $ jobs_arg $ manifest_arg $ n_arg
       $ scheduler_arg $ bands_arg $ band_overlap_arg $ profile_phases_arg))

let list_cmd =
  let doc = "List available experiments." in
  let run () =
    List.iter (fun (name, description, _) -> Printf.printf "%-8s %s\n" name description) E.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let main =
  let doc =
    "Reproduction experiments for 'Stratification in P2P Networks - Application to BitTorrent' \
     (Gai, Mathieu, Reynier & de Montgolfier, ICDCS 2007)."
  in
  let info = Cmd.info "stratify_experiments" ~version:"1.0.0" ~doc in
  Cmd.group info (all_cmd :: list_cmd :: List.map experiment_cmd E.all)

let () = exit (Cmd.eval main)
