(** The σ phase transition of variable b-matching (§4.2, Table 1, Fig 6).

    Sweeping the budget dispersion σ at fixed mean b̄ on a complete
    acceptance graph: around σ ≈ 0.15 the average cluster size explodes
    from [b̄+1] to a value growing roughly factorially with b̄, while the
    MMO {e decreases}. *)

type point = {
  sigma : float;
  mean_cluster_size : float;
  largest_cluster : float;
  mmo : float;
}

val measure :
  ?jobs:int ->
  ?bands:int ->
  ?overlap:int ->
  Stratify_prng.Rng.t ->
  n:int ->
  mean_b:float ->
  sigma:float ->
  replicates:int ->
  point
(** Average cluster size and MMO over [replicates] independent budget
    draws on [n] peers, read from each draw's flat configuration
    ({!Cluster.analyze_config}, {!Mmo.of_config}).  [bands]/[overlap]/
    [jobs] are forwarded to {!Cluster.stable_config} (rank-banded
    sharded matching); results are identical for every combination. *)

val sweep :
  ?jobs:int ->
  ?bands:int ->
  ?overlap:int ->
  Stratify_prng.Rng.t ->
  n:int ->
  mean_b:float ->
  sigmas:float array ->
  replicates:int ->
  point array
(** Fig 6's abscissa sweep. *)

val transition_sigma : point array -> threshold:float -> float option
(** First σ whose mean cluster size exceeds [threshold] × the σ=0 size —
    the measured location of the phase transition. *)
