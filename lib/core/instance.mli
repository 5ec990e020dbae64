(** A global-ranking b-matching instance (§2 of the paper).

    Bundles the three ingredients of the model: an {e acceptance graph}
    (who may collaborate with whom — symmetric), a {e global ranking}
    [S(p)], and per-peer {e slot budgets} [b(p)].  Internally, peers are
    relabelled by rank so that peer [0] is the best; acceptance lists are
    stored best-first, which every algorithm in this library exploits.

    The acceptance graph is held by a pluggable {e backend}:

    - [`Dense] — the acceptance graph's own CSR rows (one flat
      [int array] plus offsets), shared with the graph, not copied, under
      the identity ranking; O(Σ degree) memory.
    - [`Complete] — fully implicit: [accepts p q ⇔ p ≠ q].  O(1) memory
      for the acceptance graph (the budgets are one n-array),
      so the paper's §4 experiments (which all run on complete acceptance
      graphs) scale to 10⁵⁺ peers without an n×n adjacency.
    - [`Complete_minus] — complete minus a removal set, for
      connectivity-repair runs; O(n) memory.
    - [`Dynamic] — mutable per-peer rows for churn workloads: arrivals
      and departures patch the acceptance graph in place
      ({!dyn_add_edge}/{!dyn_isolate}) so the instance — and every
      {!Config} built on it — survives peer events.

    Algorithms should use [degree]/[acceptable_at] or the iteration
    functions below rather than [acceptable], which materializes a row. *)

type t

val create :
  ?ranking:Ranking.t ->
  graph:Stratify_graph.Undirected.t ->
  b:int array ->
  unit ->
  t
(** Build a [`Dense] instance.  [b.(p)] is peer [p]'s slot budget (must be
    non-negative).  [ranking] defaults to the identity ranking (peer id =
    rank), the convention of all the paper's experiments.  Vertices of
    [graph] are peer ids.  Under the identity ranking the instance reads
    the graph's rows in place, at no cost per edge; any other ranking
    relabels the edges once into a new graph. *)

val of_adjacency : ?ranking:Ranking.t -> adj:int array array -> b:int array -> unit -> t
(** [create] on [Undirected.of_adjacency_arrays adj]: the rows may be
    unsorted, and the instance accepts their symmetric closure.  A row
    entry outside [0..n-1] or a peer listing itself raises the builder's
    [Invalid_argument]. *)

val complete : ?ranking:Ranking.t -> n:int -> b:int array -> unit -> t
(** The complete acceptance graph on [n] peers, fully implicit: no
    adjacency is materialized, ever.  [accepts p q ⇔ p ≠ q].  Under the
    default identity ranking the instance holds one array, a copy of
    [b] (the budgets by rank); a scored ranking adds its own three. *)

val complete_minus :
  ?ranking:Ranking.t -> n:int -> b:int array -> removed:int list -> unit -> t
(** The complete acceptance graph on [n] peers minus every peer in
    [removed] (given as peer ids): removed peers accept nobody and nobody
    accepts them.  O(n) memory. *)

val dynamic : graph:Stratify_graph.Undirected.t -> b:int array -> unit -> t
(** A [`Dynamic] instance copying [graph]'s rows (identity ranking only:
    peer id = rank, so in-place mutations are unambiguous).  Unlike the
    frozen backends its acceptance rows may change after construction
    through {!dyn_add_edge}/{!dyn_isolate}; budgets stay fixed. *)

val dyn_add_edge : t -> int -> int -> unit
(** Add an acceptance edge to a [`Dynamic] instance (no-op when already
    present).  O(degree) per endpoint.  Raises [Invalid_argument] on
    other backends, self-loops, or out-of-range peers. *)

val dyn_isolate : t -> int -> unit
(** Drop every acceptance edge of a peer in a [`Dynamic] instance (a
    churn departure).  O(Σ neighbour degree). *)

val backend_kind : t -> [ `Dense | `Complete | `Complete_minus | `Dynamic ]
(** Which backend holds the acceptance graph — lets algorithms pick
    specialised fast paths ([Greedy.stable_config] does). *)

val n : t -> int
(** Number of peers. *)

val slots : t -> int -> int
(** Slot budget of a peer (by rank label). *)

val slot_total : t -> int
(** [B = Σ b(p)] — the bound of Theorem 1 is [B/2] initiatives. *)

val degree : t -> int -> int
(** Acceptance-list length.  O(1) on every backend. *)

val acceptable_at : t -> int -> int -> int
(** [acceptable_at t p i] is the [i]-th best acceptable peer of [p]
    ([0 <= i < degree t p]).  O(1) on every backend — this plus [degree]
    replaces row materialization in all hot paths. *)

val acceptable : t -> int -> int array
(** Acceptance list of a peer, best-ranked first, as a {e fresh} array.
    Peers are rank labels: [0] is the globally best peer.  Allocates
    O(degree) — use [acceptable_at]/[iter_acceptable] in hot paths. *)

val accepts : t -> int -> int -> bool
(** Symmetric acceptability test.  O(log degree) on [`Dense], O(1) on the
    implicit backends. *)

val iter_acceptable : t -> int -> (int -> unit) -> unit
(** Apply a function to each acceptable peer, best-ranked first. *)

val fold_acceptable : t -> int -> ('a -> int -> 'a) -> 'a -> 'a
(** Fold over acceptable peers, best-ranked first. *)

val first_index_above : t -> int -> rank:int -> int
(** Smallest row index [i] of peer [p] with
    [acceptable_at t p i > rank], or [degree t p] if none — i.e. where a
    "peers ranked after [rank]" scan starts.  O(log degree). *)

val rank_to_id : t -> int -> int
(** Translate a rank label back to the original peer id of the input
    graph. *)

val id_to_rank : t -> int -> int
(** Translate an original peer id to its rank label. *)

(** {2 Low-level views}

    Read-only views of the backend storage for fused hot-loop kernels
    (the [Blocking] scan runs a few hundred million probes per
    experiment, and without cross-module inlining every accessor call
    costs more than the probe itself).  The returned arrays are the
    live internals: callers must never mutate them. *)

type raw_backend =
  | Raw_dense of { off : int array; data : int array }
      (** CSR rows: peer [p]'s acceptance list is
          [data.(off.(p)) .. data.(off.(p+1)-1)], increasing. *)
  | Raw_complete  (** [accepts p q ⇔ p ≠ q]; nothing stored. *)
  | Raw_complete_minus of { alive : int array; pos : int array }
      (** Surviving ranks, increasing; [pos.(p)] is [p]'s index in
          [alive], [-1] if removed. *)
  | Raw_dynamic of { rows : int array array; len : int array }
      (** Mutable rows: peer [p]'s acceptance list is
          [rows.(p).(0 .. len.(p)-1)], increasing.  Row buffers are
          replaced on growth, so re-read [rows.(p)] on every use. *)

val raw_backend : t -> raw_backend
(** Backend storage view.  O(1), allocates one small block. *)

val raw_slots : t -> int array
(** Slot budgets indexed by rank label — the live array, do not
    mutate. *)
