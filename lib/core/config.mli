(** Configurations (the paper's "matchings"): who currently collaborates
    with whom.

    A configuration is a subgraph of the acceptance graph in which every
    peer [p] has degree at most [b(p)].  The structure is mutable — the
    initiative dynamics of §3 rewires it in place.  Mates are stored in
    one flat [int array] of fixed-capacity sorted segments (capacity
    [min b(p) (acceptance degree)], so O(n·b̄) total even on complete
    acceptance graphs); [connect]/[disconnect] are zero-allocation O(b)
    shifts and [degree]/[worst_mate]/[free_slots] are O(1). *)

type t

val empty : Instance.t -> t
(** The empty configuration [C∅]. *)

val instance : t -> Instance.t

val degree : t -> int -> int
(** Current number of mates of a peer.  O(1) — cached, not recomputed. *)

val free_slots : t -> int -> int
(** [b(p)] minus current degree. *)

val mates : t -> int -> int list
(** Mates best-ranked first, as a fresh list.  Allocates — hot paths use
    [mate_at] instead. *)

val mate_at : t -> int -> int -> int
(** [mate_at t p i] is [p]'s [i]-th best current mate
    ([0 <= i < degree t p]).  O(1), no allocation. *)

val best_mate : t -> int -> int option

val worst_mate : t -> int -> int option
(** O(1): segments are sorted, so the worst mate is the last entry — it
    is probed by [Blocking.would_accept] on every initiative. *)

val worst_rank : t -> int -> int
(** Allocation-free [worst_mate]: the worst mate's rank label, or [-1]
    when unmated.  The dynamics' innermost loop uses this to avoid
    boxing an option per probe. *)

val mated : t -> int -> int -> bool
(** Whether two peers are currently mates.  When the word-packed mate
    filter is enabled ({!mask_enabled}, the default for b̄ ≤ 63) a clear
    bit of [p]'s 63-bit mask (bit [q mod 63] is set whenever [q] is a
    mate) answers "no" in one load; otherwise (and on a set bit) an
    early-exit scan of the (short, sorted, flat) mate segment — all
    comparisons are immediate int compares. *)

val mated_linear : t -> int -> int -> bool
(** The flat-array reference path of {!mated}, never consulting the mate
    filter.  Same answer by construction; the equivalence tests pin the
    two against each other. *)

val mask_enabled : t -> bool
(** Whether {!mated} consults the 63-bit mate filter first.  Chosen at
    construction ([max b ≤ 63], where the filter is selective); the
    filter itself is always maintained. *)

val set_use_mask : t -> bool -> unit
(** Force the filter path on or off — a test hook for the bitset ≡
    flat-array equivalence properties; either setting is correct. *)

val connect : t -> int -> int -> unit
(** Add a collaboration.  Raises [Invalid_argument] if the pair is
    unacceptable, already mated, or either side has no free slot — callers
    decide what to drop first. *)

val disconnect : t -> int -> int -> unit
(** Remove a collaboration.  Raises [Invalid_argument] if absent. *)

val drop_worst : t -> int -> int option
(** Disconnect and return a peer's worst mate ([None] if unmated). *)

val drop_worst_rank : t -> int -> int
(** Allocation-free {!drop_worst}: the dropped mate's rank, or [-1] when
    unmated (nothing dropped).  [Initiative.perform] uses this to keep
    steady-state rewiring option-free. *)

val edge_count : t -> int
(** Number of collaborations. *)

val iter_pairs : (int -> int -> unit) -> t -> unit
(** Iterate each collaboration once with [p < q] (rank labels). *)

val copy : t -> t

val equal : t -> t -> bool
(** Same collaboration set (instances assumed identical). *)

val same_mates : t -> t -> int -> bool
(** [same_mates a b p]: whether peer [p] has the identical mate set in
    both configurations (instances assumed identical).  O(b), no
    allocation — [Sim]'s convergence tracker calls it per rewired peer. *)

val signature : t -> string
(** Canonical string key of the collaboration set — used to detect
    configuration revisits (Theorem 1 asserts none happen). *)

val to_adjacency : t -> int array array
(** Collaboration graph as sorted adjacency arrays over rank labels. *)

val of_pairs : Instance.t -> (int * int) list -> t
(** Build from explicit pairs; validates acceptability and budgets. *)

(** {2 Ordered row writer}

    Algorithm 1 ({!Greedy}) produces every mate segment in ascending
    order, so it fills a configuration without [connect]'s search,
    shift and per-pair refresh: start from {!unsealed}, [append] each
    side of each pair, then [seal] once.  Until [seal], the segments
    are the only truth — the derived views ([raw_thresh],
    {!first_accepting}, the mate filter behind {!mated}, {!edge_count})
    are stale, and nothing but [append] may run. *)

val unsealed : Instance.t -> t
(** The empty configuration's storage, with no derived view computed:
    {!empty} is [unsealed] then {!seal}.  Only the ordered writer may
    use it — {!append} its rows, then {!seal} before any other
    operation reads it.  A build that seals once derives its views
    once, where [empty] would derive them a second time. *)

val append : t -> int -> int -> unit
(** [append t p q] writes [q] as [p]'s next mate, after every current
    one.  O(1).  It writes only [p]'s segment and degree, so disjoint
    rank windows may be filled from different domains.  Raises
    [Invalid_argument] when [p] or [q] is outside the population, [p]'s
    segment is full, or [q] is not above [p]'s last mate. *)

val seal : t -> unit
(** Derive [raw_thresh], the {!first_accepting} tree, the mate filter
    and {!edge_count} from the segments, in one O(n + edges) pass. *)

(** {2 Low-level views}

    Read-only views of the flat mate storage for fused hot-loop kernels
    ([Blocking.best_blocking_mate]).  [raw_off] is immutable after
    construction; [raw_data]/[raw_deg] are the live arrays — callers must
    never mutate them, and must re-read after any [connect]/[disconnect]. *)

val raw_off : t -> int array
(** Segment offsets: peer [p]'s mates live at indices
    [raw_off t.(p) .. raw_off t.(p) + raw_deg t.(p) - 1] of [raw_data]. *)

val raw_data : t -> int array
val raw_deg : t -> int array

val raw_thresh : t -> int array
(** Per-peer acceptance threshold, maintained on every rewire:
    [q < (raw_thresh t).(p)] ⟺ [Blocking.would_accept t p q] — [max_int]
    while [p] has a free slot, its worst mate's rank when full, [-1]
    when full and unmated ([b(p) = 0]).  Collapses the accepts-back
    probe of the fused blocking kernels to a single load. *)

val first_accepting : t -> lo:int -> hi:int -> int -> int
(** [first_accepting t ~lo ~hi p] is the smallest [q] in [\[lo, hi)]
    with [(raw_thresh t).(q) > p] — i.e. the best-ranked peer in the
    range that would accept [p] — or [-1] when none exists.  O(log n)
    via a max segment tree over [raw_thresh], maintained incrementally
    on every rewire; allocation-free.  The complete-backend blocking
    scan descends this tree instead of probing each rank in turn. *)
