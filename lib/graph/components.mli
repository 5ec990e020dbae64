(** Connected components. *)

type t = {
  component : int array;
      (** component id of each vertex, in [0, count), numbered in order of
          each component's smallest vertex *)
  sizes : int array;  (** size of each component, indexed by id. *)
  count : int;  (** number of components. *)
}

val of_graph : Undirected.t -> t
(** Components of a graph, labelled by {!of_segments} over its rows in
    place. *)

val of_segments : off:int array -> deg:int array -> data:int array -> t
(** Components of an undirected graph stored as flat segments: vertex
    [u]'s neighbours are [data.(off.(u) + i)] for [i < deg.(u)], over
    [Array.length deg] vertices, every edge listed at both endpoints —
    a configuration's mate storage or a graph's rows, read in place.
    Breadth-first, O(n + edges). *)

val of_adjacency : int array array -> t
(** Same, from frozen adjacency arrays (every edge listed at both
    endpoints), laid end to end and labelled by {!of_segments}. *)

val largest_size : t -> int
(** Size of the largest component (0 for the empty graph). *)

val mean_size : t -> float
(** Average component size, i.e. [n / count]. *)

val is_connected : t -> bool
(** Whether there is exactly one component covering all vertices. *)

val members : t -> int -> int list
(** Vertices of a component, in increasing order. *)
