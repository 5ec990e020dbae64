(** Cluster structure of stable configurations on complete acceptance
    graphs (§4).

    With constant budgets [b0] the stable collaboration graph is a chain of
    complete blocks of size [b0+1] (Fig 4); heterogeneous budgets fuse the
    blocks into huge components (Table 1, Fig 6). *)

type analysis = {
  component_sizes : int array;  (** sorted decreasingly *)
  mean_size : float;
  largest : int;
  count : int;
}

val stable_config :
  ?jobs:int -> ?bands:int -> ?overlap:int -> b:int array -> unit -> Config.t
(** The stable configuration on the complete acceptance graph (identity
    ranking) with budgets [b].  Fast path — O(n · max b), no n×n
    structure.  [bands]/[overlap]/[jobs] (defaults 1 /
    {!Shard.default_overlap} / 1) route the matching through
    {!Shard.stable_config}: snapped rank bands solved in place on the
    domain pool — the result is identical for every combination
    (Theorem 1's uniqueness).  Raises [Invalid_argument] on a negative
    budget. *)

val collaboration_graph :
  ?jobs:int -> ?bands:int -> ?overlap:int -> b:int array -> unit -> int array array
(** [Config.to_adjacency (stable_config ~b ())]: the collaboration graph
    as sorted adjacency arrays, one per peer. *)

val analyze : int array array -> analysis
(** Component statistics of a collaboration graph. *)

val analyze_config : Config.t -> analysis
(** The same statistics read from the configuration's flat mate
    segments, with no per-peer arrays:
    [analyze_config c = analyze (Config.to_adjacency c)]. *)

val analyze_budgets : b:int array -> analysis
(** [analyze_config (stable_config ~b ())]. *)

val predicted_block : n:int -> b0:int -> peer:int -> int list
(** The members of [peer]'s predicted cluster under constant [b0]-matching:
    the block [\[k(b0+1), …\]] containing it, truncated at [n]. *)

val matches_block_structure : n:int -> b0:int -> int array array -> bool
(** Does a collaboration graph consist exactly of the predicted complete
    blocks? (Fig 4's claim.) *)

val config_matches_block_structure : b0:int -> Config.t -> bool
(** The same check on a configuration's rows, read in place:
    [matches_block_structure ~n ~b0 (Config.to_adjacency c)] with [n]
    the configuration's population. *)
