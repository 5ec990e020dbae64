(** Graph generators.

    The paper's simulations use loopless symmetric Erdős–Rényi graphs
    [G(n, d)] where [d] is the {e expected degree} (each edge present
    independently with probability [d/(n-1)]); complete graphs serve as the
    §4 toy model.  Every generator streams its edges into
    {!Undirected.of_edges}. *)

val empty : int -> Undirected.t
(** Graph with [n] isolated vertices. *)

val complete : int -> Undirected.t
(** Complete graph [K_n]. *)

val ring : int -> Undirected.t
(** Cycle on [n >= 3] vertices. *)

val path : int -> Undirected.t
(** Path on [n] vertices. *)

val star : int -> Undirected.t
(** Star with centre [0]. *)

val iter_gnp_edges :
  Stratify_prng.Rng.t -> n:int -> p:float -> (int -> int -> unit) -> unit
(** [iter_gnp_edges rng ~n ~p f] walks the edges of Erdős–Rényi [G(n,p)]
    by geometric skipping over the [n(n-1)/2] pairs (Batagelj & Brandes,
    2005), calling [f u v] for each, with [u < v], in increasing
    [(u, v)] order; O(n + m) expected draws.  It is {!gnp}'s stream: the
    same [rng] state gives the same edges from the same draws.  An
    exception raised by [f] ends the walk, with no further draw.  Raises
    [Invalid_argument] when [p] is outside [\[0, 1\]]. *)

val gnp : Stratify_prng.Rng.t -> n:int -> p:float -> Undirected.t
(** Erdős–Rényi [G(n,p)]: the graph of {!iter_gnp_edges}'s walk.  The
    walk emits edges in increasing [(u, v)] order, so every row fills
    sorted and none is re-sorted. *)

val gnd : Stratify_prng.Rng.t -> n:int -> d:float -> Undirected.t
(** The paper's parameterisation: expected degree [d], i.e.
    [G(n, p = d/(n-1))].  [d] is clamped to the feasible range. *)

val gnp_adjacency : Stratify_prng.Rng.t -> n:int -> p:float -> int array array
(** [Undirected.adjacency_arrays (gnp rng ~n ~p)]: the same graph, from
    the same draws, as one sorted array per row. *)

val iter_fresh_edges :
  Stratify_prng.Rng.t ->
  n:int ->
  v:int ->
  p:float ->
  present:(int -> bool) ->
  (int -> unit) ->
  unit
(** Sample a fresh Erdős–Rényi arrival's neighbourhood: call [f w] for
    every vertex [w ≠ v] with [present w] kept independently with
    probability [p], in increasing order of [w], O(n·p) expected draws.
    The RNG consumption depends only on [(n, p)] — not on [present] or
    [f] — so a churn arrival ([Churn.insert_peer], which adds the edges
    to its [`Dynamic] instance) draws the same whoever is present. *)
