(** Churn experiments (§3, Figs 2–3): peer departures and arrivals over a
    fixed rank universe.

    A departure isolates a peer (its acceptance edges and collaborations
    vanish); an arrival re-inserts an absent peer with fresh Erdős–Rényi
    edges to the present population.  Disorder is always measured
    against the {e instant stable configuration}, restricted to present
    peers.

    Events are {e incremental}: the world keeps one [`Dynamic]
    {!Instance} alive for the whole run and patches its acceptance rows
    in place, and the instant stable configuration is {e repaired} —
    a dirty queue seeded with just the perturbed neighbourhood (the
    departed peer's ex-mates, or the arrival itself) is drained with
    best-mate initiatives — instead of recomputed from scratch.  By
    Theorem 1's uniqueness the repaired configuration is bit-identical
    to a full [Greedy.stable_config] rebuild, at O(cascade) per event
    instead of O(n + m); the repair draws no randomness, so trajectories
    match the historical full-rebuild implementation exactly. *)

type params = {
  n : int;  (** rank-universe size *)
  d : float;  (** expected acceptance degree *)
  b : int;  (** per-peer slot budget (the paper uses 1) *)
  rate : float;  (** churn events per initiative step (e.g. 30/1000) *)
  units : int;  (** duration in base units *)
  samples_per_unit : int;
  strategy : Initiative.strategy;
  scheduler : Scheduler.policy;
      (** how initiative takers are chosen: [Random_poll] (the paper's
          uniform sampling, the default) or [Worklist] (drain the dirty
          queue — same fixed points, far fewer wasted polls) *)
}

val run : Stratify_prng.Rng.t -> params -> Stratify_stats.Series.t
(** Fig 3: from the empty configuration, disorder relative to the instant
    stable configuration over time, under continuous churn. *)

val removal_trajectory :
  ?scheduler:Scheduler.policy ->
  Stratify_prng.Rng.t ->
  n:int ->
  d:float ->
  b:int ->
  remove:int ->
  units:int ->
  samples_per_unit:int ->
  Stratify_stats.Series.t
(** Fig 2: start {e at} the stable configuration, remove one peer (rank
    label, 0 = best), and track disorder towards the new stable
    configuration. *)

val mean_disorder_tail : Stratify_stats.Series.t -> skip_units:float -> float
(** Average disorder after a warm-up prefix — the "plateau level" used to
    compare churn rates. *)

(** {2 World plumbing}

    The event-level API, exposed for tests and custom drivers. *)

type world
(** Present mask + budgets + one live [`Dynamic] instance carrying the
    acceptance graph, the evolving configuration and the incrementally
    repaired instant stable configuration. *)

val make_world :
  ?scheduler:Scheduler.policy ->
  ?bands:int ->
  Stratify_prng.Rng.t ->
  n:int ->
  d:float ->
  b:int ->
  world
(** Fresh world over [G(n, d)] with constant budget [b], everyone
    present, the empty configuration and its stable target (the run's
    single from-scratch solve, by {!Shard.stable_config}).  [bands]
    (default 1) is checked there ([1 <= bands <= n], else
    [Invalid_argument]) but does not decompose the solve: a sparse
    acceptance graph has no rank cuts, so it is solved unsharded. *)

val restore_world :
  n:int ->
  b:int ->
  present:bool array ->
  adjacency:int array array ->
  stable_pairs:(int * int) list ->
  world
(** Rebuild a world from serialized state (the deterministic service
    snapshots of [stratify.serve]): acceptance rows as sorted adjacency
    arrays (absent peers' rows empty), the present mask, and the stable
    configuration as a pair list.  The evolving configuration starts
    empty — a served world never runs an initiative.  Restored worlds
    always use [Random_poll]; the repair machinery is reconstructed
    empty, which is exact because every event drains it before
    returning.  Raises [Invalid_argument] on mis-sized inputs, on an
    absent peer with acceptance edges, (via {!Config.of_pairs}) on pairs
    that violate acceptability or budgets, or when the pairs are not the
    instance's unique stable configuration (Theorem 1) — checked against
    a {!Greedy.stable_config} rebuild, the message naming the first
    differing peer and both of its mate lists. *)

val remove_peer : world -> int -> unit
(** Departure: isolate the peer in the live instance, drop its
    collaborations, and repair the stable configuration from the freed
    neighbourhood. *)

val insert_peer : Stratify_prng.Rng.t -> world -> int -> p:float -> unit
(** Arrival: mark present, attach fresh Erdős–Rényi acceptance edges
    (probability [p] to each present peer) in place, and repair the
    stable configuration from the arrival. *)

val churn_event : Stratify_prng.Rng.t -> world -> p:float -> unit
(** One random event: a removal or an insertion (fair coin), falling
    back to the other kind when impossible. *)

val initiative_step : Stratify_prng.Rng.t -> world -> Initiative.strategy -> unit
(** One initiative on the evolving configuration — by a uniformly random
    present peer ([Random_poll]) or the next dirty peer ([Worklist]). *)

val random_member : Stratify_prng.Rng.t -> bool array -> bool -> int option
(** [random_member rng mask value] draws an index [i] with
    [mask.(i) = value] uniformly: one [Rng.int] over the number of such
    indices, then the index of that rank in increasing order.  [None],
    with no draw, when no index matches.  The churn loops pick present
    peers ([true]) and absent ones ([false]) with it. *)

val world_instance : world -> Instance.t
val world_config : world -> Config.t
val world_stable : world -> Config.t
val world_present : world -> bool array

val reconfigure : Config.t -> Instance.t -> bool array -> Config.t
(** Reference semantics of an event's effect on a configuration: rebuild
    on [instance], keeping exactly the collaborations whose endpoints
    are both present and still acceptable.  The incremental event path
    is equivalent (a departure touches only the departed peer's pairs;
    an arrival touches none) — kept for tests. *)
