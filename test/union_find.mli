(** Disjoint-set forest with union by rank and path compression.

    The test oracle for [Components]: its sets, merged over a graph's
    edges, must be the components the breadth-first kernel labels. *)

type t

val create : int -> t
(** [create n] makes [n] singleton sets labelled [0 .. n-1]. *)

val find : t -> int -> int
(** Canonical representative of an element's set. *)

val union : t -> int -> int -> bool
(** [union t a b] merges the sets of [a] and [b]; returns [false] when they
    were already in the same set. *)

val same : t -> int -> int -> bool
(** Whether two elements share a set. *)

val size : t -> int -> int
(** Number of elements in an element's set. *)

val count : t -> int
(** Number of distinct sets. *)

val components : Stratify_graph.Undirected.t -> Stratify_graph.Components.t
(** A graph's components: sets merged over its edges, ids handed out in
    order of each component's smallest vertex, as [Components] numbers
    them. *)
