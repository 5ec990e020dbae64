(** Rank-banded sharded matching — the million-peer layer.

    §4's concentration bound (MMO → (3/4)·b0, {!Mmo.asymptote}) says a
    peer's stable mates live within a few budget-widths of its own rank,
    so the global b-matching decomposes almost perfectly into rank
    bands.  [stable_config] exploits that: it partitions the population
    into [bands] contiguous rank intervals, solves every band
    independently with Algorithm 1, fanned out over the
    {!Stratify_exec.Exec} domain pool, and reconciles the boundaries
    with the rank-ordered {!Scheduler} worklist until no cross-band
    blocking pair remains.  On the complete-family backends the bands
    snap to cluster cuts and each one is solved in place, straight into
    its own rows of the one global {!Config} ({!Greedy.solve_window}),
    which is sealed once.  On sparse backends each band is extended by
    [overlap] ranks on both sides, solved as a band-local sub-instance,
    and stitched pair by pair.

    {2 Why the result is exact, for any band count and overlap}

    The fixup seeds every peer that could possibly be an endpoint of a
    blocking pair after stitching:

    - every peer within [overlap] of an internal band boundary (its
      band-local mates may differ between the two bands that both see
      it);
    - both endpoints of every stitch conflict (a pair the tolerant
      stitch had to skip);
    - every peer with a free slot (a peer missing one of its band-local
      mates necessarily has [deg < b], and two open peers in different
      bands can always block each other on a complete acceptance
      graph).

    Any pair of {e unseeded} peers is then provably non-blocking: two
    unseeded interiors of the same band carry their band-local mate
    lists, and the band solution is stable; two full unseeded interiors
    of different bands cannot want each other, because each one's worst
    mate is strictly better-ranked than the other band's interior.  So
    "every blocking pair has an endpoint in the queue" holds when the
    drain starts, the {!Scheduler} invariant preserves it, and an empty
    queue certifies stability.  Theorem 1 makes the stable configuration
    unique, hence the sharded result is {e identical} to the unsharded
    one — for any [bands >= 1] and any [overlap >= 0]; the overlap only
    controls how much reconciliation work is left.  The drain uses
    {!Initiative.Best_mate}, which consumes no randomness, so the whole
    pipeline is deterministic for any [jobs], like the rest of the
    [--jobs] discipline.

    {2 Why boundaries are snapped on complete-family backends}

    Correct-for-any-boundary is not fast-for-any-boundary: Algorithm 1
    run on a suffix [\[lo, n)] anchors its clusters at [lo], while the
    global solution anchors them at renewal points of its own scan, so a
    band whose start is mid-cluster produces an entirely {e phase-
    shifted} local solution that the serial fixup must re-match pair by
    pair — O(n) serial work, the opposite of sharding.  For [`Complete]
    and [`Complete_minus], [cluster_cuts] replays Algorithm 1's
    availability evolution with pure counters (no configuration, O(n·b̄)
    integer ops) and returns exactly the ranks no stable pair crosses;
    starting a band at such a cut makes its local solve equal the global
    solution restricted to the band, so it can write its rows in place
    (the bands' rows are disjoint, so any [jobs] is race-free), and the
    fixup is an (almost) empty drain.  [stable_config] snaps
    nominal boundaries to the nearest cut on those backends (dropping
    bands that collapse when cuts are sparser than bands — giant fused
    clusters parallelize gracelessly by nature) and ignores [overlap]
    there; sparse backends keep nominal boundaries plus extensions and
    pay the tolerant per-pair stitch. *)

type band = {
  core_lo : int;  (** first rank owned by this band *)
  core_hi : int;  (** one past the last owned rank *)
  ext_lo : int;  (** [core_lo - overlap], clamped to 0 *)
  ext_hi : int;  (** [core_hi + overlap], clamped to [n] *)
}

val band_ranges : n:int -> bands:int -> overlap:int -> band array
(** The band decomposition: cores partition [\[0, n)] into [bands]
    near-equal contiguous intervals ([core_lo = i·n/bands]), extensions
    pad each core by [overlap] ranks on both sides.  Raises
    [Invalid_argument] on [bands < 1], [bands > max 1 n] or
    [overlap < 0]. *)

val cluster_cuts : ?arena:Greedy.arena -> Instance.t -> int array
(** The ascending rank positions that no stable collaboration crosses
    (always including [0] and [n]): renewal points of Algorithm 1's
    scan, computed in O(n·b̄) integer work without building a
    configuration.  Exact for [`Complete]/[`Complete_minus] (on constant
    budgets [b0 > 0] these are precisely the multiples of [b0+1], §4's
    block structure); on sparse backends the window-claim replay is only
    an approximation and [stable_config] does not use it.  [arena]
    supplies the scan's scratch pair; the result is the same without
    it. *)

val snap_ranges : n:int -> bands:int -> int array -> band array
(** [snap_ranges ~n ~bands cuts] snaps each nominal boundary
    [i·n/bands] to the nearest member of [cuts], deduplicates (possibly
    returning fewer than [bands] bands), and returns extension-free
    bands ([ext = core]). *)

val default_overlap : Instance.t -> int
(** The §4-derived overlap: [⌈(3/4)·bmax⌉ + bmax + 1] where [bmax] is
    the largest slot budget — the MMO concentration bound padded by one
    full cluster width, so a remainder cluster at a band edge sits
    wholly inside the extension. *)

val stable_config :
  ?jobs:int -> ?bands:int -> ?overlap:int -> ?arena:Greedy.arena -> Instance.t -> Config.t
(** The unique stable configuration, computed by band decomposition.
    [bands] defaults to 1 (plain {!Greedy.stable_config}, byte-identical
    to the unsharded path); [overlap] defaults to
    {!default_overlap}; [jobs] (default 1) are the worker domains the
    band solves fan out over — the result is bit-identical for any
    value.  Peak memory is O(n·b̄) and no n×n structure ever exists:
    snapped bands allocate one configuration and one scratch pair in
    all; sparse bands add their sub-instances and local configurations,
    O(Σ band width · b̄).  Raises [Invalid_argument] (with the offending
    value named) on [bands < 1], [bands > max 1 n], [overlap < 0] or
    [jobs < 1].

    [arena] (single-threaded; never shared across domains) supplies the
    scratch pair of the band-1 greedy build, and of the snapped path's
    cut scan and band fills: its buffers are taken once on the calling
    domain, and each band touches only its own window of them.  Sparse
    band solves use fresh scratch.  The result is bit-identical with or
    without it.

    Observability (when {!Stratify_obs.Control} is on): "shard.bands",
    "shard.stitch_conflicts", "shard.fixup_seeded", "shard.fixup_active"
    and "shard.fixup_pops" counters.  When {!Stratify_obs.Profile} is
    on, the phases record as "shard.cluster_cuts", "shard.band_solve",
    "shard.stitch" (the snapped path's one {!Config.seal}, or the sparse
    per-pair stitch) and "shard.fixup" kernels; every band solve also
    records one "greedy.build" row from its worker domain. *)
