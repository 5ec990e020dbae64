(** Rank-banded sharded matching — the million-peer layer.

    On a complete acceptance graph, §4's concentration says the stable
    configuration splits into clusters at ranks that no pair crosses:
    building it greedily along the ranking, a prefix that no earlier
    pair reaches past fixes its own rows.  [stable_config] exploits
    that on the complete-family backends ([`Complete],
    [`Complete_minus]): it snaps [bands] nominal rank boundaries to such
    cuts, solves every band independently with Algorithm 1, fanned out
    over the {!Stratify_exec.Exec} domain pool, straight into its own
    rows of the one global {!Config} ({!Greedy.solve_window}), seals it
    once, and certifies the result with the rank-ordered {!Scheduler}
    worklist.

    Sparse backends ([`Dense], [`Dynamic]) are solved unsharded by
    {!Greedy.stable_config} whatever [bands] says: §5's Erdős–Rényi
    graphs have no such cuts (at G(10⁴, d = 10), b = 3 the median
    stable pair spans about 1,200 ranks), so every band split leaves a
    serial repair costlier than the whole plain solve (DESIGN.md §11).

    {2 Why the banded result is exact, for any band count}

    The fixup seeds every peer with a free slot.  Any pair of
    {e unseeded} peers is then provably non-blocking: two full peers of
    the same band carry their band-local mate lists, and the band
    solution is stable; two full peers of different bands cannot want
    each other, because each one's worst mate is strictly better-ranked
    than the other band's interior.  So "every blocking pair has an
    endpoint in the queue" holds when the drain starts, the
    {!Scheduler} invariant preserves it, and an empty queue certifies
    stability.  Theorem 1 makes the stable configuration unique, hence
    the sharded result is {e identical} to the unsharded one — for any
    [bands >= 1].  The drain uses {!Initiative.Best_mate}, which
    consumes no randomness, so the whole pipeline is deterministic for
    any [jobs], like the rest of the [--jobs] discipline.

    {2 Why boundaries are snapped}

    Correct-for-any-boundary is not fast-for-any-boundary: Algorithm 1
    run on a suffix [\[lo, n)] anchors its clusters at [lo], while the
    global solution anchors them at renewal points of its own scan, so a
    band whose start is mid-cluster would produce an entirely
    {e phase-shifted} local solution that the serial fixup must
    re-match pair by pair — O(n) serial work, the opposite of sharding.
    [cluster_cuts] replays Algorithm 1's availability evolution with
    pure counters (no configuration, O(n·b̄) integer ops) and returns
    exactly the ranks no stable pair crosses; starting a band at such a
    cut makes its local solve equal the global solution restricted to
    the band, so it can write its rows in place (the bands' rows are
    disjoint, so any [jobs] is race-free), and the fixup is an (almost)
    empty drain.  Bands that collapse when cuts are sparser than bands
    are dropped — giant fused clusters parallelize gracelessly by
    nature. *)

type band = {
  lo : int;  (** first rank of the band *)
  hi : int;  (** one past its last rank *)
}

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
    [i·n/bands] to the nearest member of [cuts] and deduplicates: the
    returned bands partition [\[0, n)], possibly into fewer than
    [bands] intervals. *)

val stable_config : ?jobs:int -> ?bands:int -> ?arena:Greedy.arena -> Instance.t -> Config.t
(** The unique stable configuration.  [bands] defaults to 1 (plain
    {!Greedy.stable_config}, byte-identical to the unsharded path); on
    the complete-family backends [bands > 1] solves snapped rank bands
    in place, on sparse backends it changes nothing.  [jobs] (default 1)
    are the worker domains the band solves fan out over — the result is
    bit-identical for any value.  Peak memory is O(n·b̄) and no n×n
    structure ever exists: the banded path allocates one configuration
    and one scratch pair in all.  Raises [Invalid_argument] (with the
    offending value named) on [bands < 1], [bands > max 1 n] or
    [jobs < 1], whatever the backend.

    [arena] (single-threaded; never shared across domains) supplies the
    scratch pair of the greedy build, and of the banded path's cut scan
    and band fills: its buffers are taken once on the calling domain,
    and each band touches only its own window of them.  The result is
    bit-identical with or without it.

    Observability (when {!Stratify_obs.Control} is on): the banded path
    adds to the "shard.bands", "shard.fixup_seeded",
    "shard.fixup_active" and "shard.fixup_pops" counters; the greedy
    path counts one "greedy.stable_config".  When
    {!Stratify_obs.Profile} is on, the banded phases record as
    "shard.cluster_cuts", "shard.band_solve", "shard.stitch" (the one
    {!Config.seal}) and "shard.fixup" kernels; every band solve also
    records one "greedy.build" row from its worker domain. *)
