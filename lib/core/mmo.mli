(** Mean Max Offset (MMO) — the paper's stratification depth measure (§4).

    For each peer, the {e max offset} is the rank distance to its furthest
    mate in the collaboration graph; the MMO averages this over peers.  A
    small MMO relative to [n] means collaboration stays between peers of
    similar intrinsic value — stratification. *)

val of_adjacency : int array array -> float
(** Empirical MMO of a collaboration graph (vertices = rank labels).
    Unmated peers contribute 0. *)

val of_config : Config.t -> float
(** The same, read from a configuration's sorted mate segments (first
    and last mate of each peer):
    [of_config c = of_adjacency (Config.to_adjacency c)]. *)

val closed_form : int -> float
(** The constant-[b0] complete-graph value:
    [MMO(b0) = (Σ_{i=1}^{b0+1} max(i−1, b0+1−i)) / (b0+1)] —
    e.g. 1.67 at [b0=2], 2.5 at 3, 3.2 at 4 (Table 1). *)

val asymptote : int -> float
(** The paper's limit [3·b0/4] (up to O(1/b0) terms). *)
