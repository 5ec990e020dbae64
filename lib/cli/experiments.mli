(** One regeneration function per table/figure of the paper.

    Every function prints a human-readable report (tables, ASCII plots,
    paper-vs-measured notes) and, when [csv_dir] is given, writes the raw
    data as CSV.  [scale] shrinks the workload for smoke runs: 1.0 is
    paper scale, 0.1 divides population sizes / replicate counts by ~10.

    The registry at the bottom drives both the [stratify_experiments]
    binary and the benchmark harness. *)

type context = {
  seed : int;
  scale : float;
  csv_dir : string option;
  jobs : int;
  manifest_dir : string option;
  n_override : int option;
  scheduler : Stratify_core.Scheduler.policy;
  bands : int;
  band_overlap : int option;
  profile_phases : bool;
}
(** [jobs] is the worker-domain count handed to {!Stratify_exec.Exec} by
    the Monte-Carlo-heavy experiments (fig1, table1, fig6, fig9, scaling).
    Output is bit-identical for every [jobs ≥ 1] — replicas run on
    replica-indexed random substreams, never worker-indexed ones.

    [manifest_dir], when set, turns observability on for the run: each
    experiment executed through {!run_named} then writes a
    {!Stratify_obs.Run_manifest} JSON record
    ([<dir>/<name>-<seed>.json]) with per-phase timings, counter totals
    (steps / active initiatives / rewires / chunks) and chunk-latency
    histograms.  Counter totals are deterministic for a given seed and
    identical for every [jobs] value, which is what the golden-manifest
    CI job pins.

    [n_override], when set, replaces the population size of the
    complete-acceptance-graph experiments (fig4, table1, fig6) —
    bypassing [scale] for the population (replicate counts still scale).
    Because those experiments run on the implicit [Instance.complete]
    backend, [--n 100000] holds O(n·b̄) memory, not O(n²).

    [scheduler] selects how the dynamics experiments (fig1, fig2, fig3,
    strategies, scaling) pick initiative takers:
    {!Stratify_core.Scheduler.Random_poll} (the paper's uniform polling,
    the default) or {!Stratify_core.Scheduler.Worklist} (drain the dirty
    queue of active candidates).  By Theorem 1's uniqueness both reach
    the same stable configurations — fig1 pins this with the
    [checksum.fig1_final/<i>] manifest counters.

    [bands] (default 1) and [band_overlap] (default: the §4-derived
    {!Stratify_core.Shard.default_overlap}) route the
    complete-acceptance-graph matchings (fig4, table1, fig6) and
    scaling's reference fixed points through
    {!Stratify_core.Shard.stable_config} on the [jobs] domain pool.  On
    those complete graphs the [bands] rank bands snap to cluster cuts and
    are solved in place, into disjoint rows of one configuration;
    sparse acceptance graphs solve [bands] overlapping bands instead and
    reconcile the boundaries with the worklist fixup.  Results are
    identical for every band count — fig4 pins this with the
    [checksum.fig4_graph]/[checksum.fig4_clusters] manifest counters,
    and table1's [checksum.table1_rows] pins its measured cells.

    [profile_phases] (default false; requires [manifest_dir]) turns
    {!Stratify_obs.Profile} on for the run: the instrumented kernels
    ("greedy.build", "shard.cluster_cuts", "shard.band_solve",
    "shard.stitch", "shard.fixup") record wall time, entry/op counts and
    GC allocation deltas, written as the manifest's [profile] section.
    Purely additive: the section is omitted when off, so default
    manifests stay byte-identical. *)

val default_context : context
(** seed 42, scale 1.0, no CSV, [jobs = 1], no manifests, random-poll
    scheduler, 1 band, no phase profiling. *)

val validate_context : context -> unit
(** Raise a named [Invalid_argument] on out-of-range fields: scale
    outside (0, 1], [jobs < 1], [n < 1], [bands < 1], [bands > n] (when
    [n_override] is set) or a negative [band_overlap].  {!run_named}
    calls this first. *)

val run_named : context -> string * string * (context -> unit) -> unit
(** Run one registry entry.  Without [manifest_dir] this just calls the
    function; with it, the run happens under a root {!Stratify_obs.Span}
    named after the experiment, counters/histograms/spans are reset
    first, and the manifest is written afterwards (observability is
    switched back off even if the experiment raises). *)

val fig1 : context -> unit
(** Convergence from the empty configuration, (n,d) ∈
    {(100,50),(1000,10),(1000,50)}. *)

val fig2 : context -> unit
(** Disorder after removing peer 1/100/300/600 from the stable state. *)

val fig3 : context -> unit
(** Disorder under continuous churn at rates 30/10/3/0.5/0 per 1000. *)

val fig4 : context -> unit
(** Constant b0-matching clustering on the complete graph. *)

val fig5 : context -> unit
(** One extra slot reconnects the clusters. *)

val table1 : context -> unit
(** Average cluster size and MMO, constant vs N(b̄, 0.2²) budgets. *)

val fig6 : context -> unit
(** σ phase transition at b̄ = 6. *)

val fig7 : context -> unit
(** Exact vs Algorithm-2 probabilities on 3 peers. *)

val fig8 : context -> unit
(** Mate-rank distributions for peers 200/2500/4800, n = 5000. *)

val fig9 : context -> unit
(** Monte-Carlo validation of Algorithm 3 (2-matching, peer 3000). *)

val fig10 : context -> unit
(** Upstream-capacity CDF. *)

val fig11 : context -> unit
(** Expected download/upload ratio vs upload per slot. *)

val slots_ablation : context -> unit
(** §6 discussion: a rational peer's slot-count sweep and the 4-slot
    trade-off (not a numbered figure in the paper). *)

val swarm_validation : context -> unit
(** End-to-end cross-check: the TFT swarm simulator vs the analytic
    share-ratio model (extension experiment). *)

val strategies_ablation : context -> unit
(** §3's three initiative strategies compared: time and active-initiative
    cost to stability. *)

val scaling : context -> unit
(** Empirical convergence-speed scaling law in n and d (the proof the
    paper leaves open, measured). *)

val alpha_fluid : context -> unit
(** Mate-offset distributions across relative ranks: §5.3's
    shift-invariance ("finite horizon") statement. *)

val latency : context -> unit
(** §7's utility-class contrast: global ranking vs symmetric latency, and
    the convergence cost of blending them. *)

val gossip_experiment : context -> unit
(** Stable matching on gossip-maintained acceptance views (reference [8]
    of the paper). *)

val flashcrowd : context -> unit
(** Flash-crowd completion dynamics — the phase before §6's
    post-flash-crowd assumption holds. *)

val streaming_experiment : context -> unit
(** §7's streaming remark measured: play-out delay of stratified vs
    proximity vs random collaboration graphs. *)

val edonkey_experiment : context -> unit
(** §2's architectural contrast: TFT reciprocation vs eDonkey-style
    credit queues on the same population. *)

val bigslots : context -> unit
(** §6's prescription simulated: bandwidth-scaled slot counts rescue the
    best peers' download/upload ratio. *)

val async_experiment : context -> unit
(** The dynamics as a real message-passing protocol: convergence and
    consistency vs message latency. *)

val all : (string * string * (context -> unit)) list
(** (name, description, run) for every experiment above. *)

val find : string -> (context -> unit) option
