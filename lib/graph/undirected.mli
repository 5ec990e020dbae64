(** Immutable undirected simple graphs over a fixed vertex universe
    [0..n-1], in compressed-sparse-row form.

    This is the acceptance-graph / collaboration-graph representation used
    throughout the library.  Vertices are peer ranks (0 = best peer).  A
    graph is built once, from an edge stream, and never changes: every
    row is strictly increasing (best peer first under the rank-as-label
    convention), every edge is listed at both endpoints and no vertex
    lists itself.  The type is abstract, so consumers read the rows
    without checking or sorting them.  Churn (peer departure/arrival, §3
    of the paper) patches the rows of a [`Dynamic] instance built from
    the graph, not the graph. *)

type t

val of_edges : ?capacity:int -> int -> ((int -> int -> unit) -> unit) -> t
(** [of_edges n iter] is the graph on [0..n-1] whose edges are the pairs
    [iter add] passes to [add u v], in any order and either orientation,
    repeats allowed: their symmetric closure, each edge once.  Rows fill
    in stream order, and only when a scan finds a row out of order (an
    inversion or a repeat) does one linear transposition reorder them,
    so a stream in increasing [(u, v)] order with [u < v] (the G(n,p)
    walk, {!Gen.complete}) is taken as it fills.  O(n + stream length).
    The stream is buffered in room for [capacity] pairs (default 0),
    which doubles whenever the stream outgrows it: a caller that knows
    its stream length saves the copies, and any capacity gives the same
    graph.  Raises [Invalid_argument] naming the value on a negative
    [n] or [capacity], a vertex outside [0..n-1] or a self-loop. *)

val of_adjacency_arrays : int array array -> t
(** {!of_edges} over the rows: row [u] listing [v] gives the edge
    [{u,v}].  Rows may be unsorted, repeat entries or list an edge at one
    endpoint only; the result is their symmetric closure. *)

val vertex_count : t -> int
(** Size of the vertex universe (including isolated vertices). *)

val edge_count : t -> int
(** Number of edges. *)

val mem_edge : t -> int -> int -> bool
(** Edge membership test, a binary search of the shorter row. *)

val degree : t -> int -> int
(** Number of neighbours of a vertex. *)

val iter_edges : (int -> int -> unit) -> t -> unit
(** Iterate each edge exactly once, as [f u v] with [u < v], in
    increasing [(u, v)] order. *)

val adjacency_csr : t -> int array * int array
(** The rows themselves, [(off, nbr)]: the neighbours of [v] are
    [nbr.(off.(v)) .. nbr.(off.(v+1) - 1)], strictly increasing.  These
    are the graph's live arrays, not a copy — the form [Instance.create]
    and [Swarm] read in place — so callers must never mutate them. *)

val adjacency_arrays : t -> int array array
(** One fresh array per row, each strictly increasing: the per-row form
    some consumers (eDonkey queues, general utilities, tests) index. *)
