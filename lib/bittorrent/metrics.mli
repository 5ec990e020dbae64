(** Swarm measurement: share ratios and stratification indices.

    These are the observables Figs 8–11 of the paper predict; the
    simulator measures them directly so the analytic model can be
    validated end-to-end. *)

val share_ratios : Swarm.t -> float array
(** Per-peer downloaded/uploaded over the measurement window (0 for peers
    that uploaded nothing). *)

val mean_partner_capacity : Swarm.t -> float array
(** For each peer, the average upload capacity of its current unchoke
    targets (0 when it unchokes nobody). *)

val stratification_correlation : Swarm.t -> float
(** Pearson correlation, over peers with at least one unchoke target,
    between own log-capacity and mean partner log-capacity.  Values near 1
    mean strong stratification (peers exchange with their own stratum). *)

val reciprocity : Swarm.t -> float
(** Fraction of TFT unchoke edges that are reciprocated — TFT should
    drive this high after convergence. *)

val mean_partner_rank_offset : Swarm.t -> ranks:int array -> float
(** Average |rank(peer) − rank(partner)| over current TFT unchoke edges —
    the simulator-side analogue of the MMO. *)

val tft_share_ratios : Swarm.t -> float array
(** Like {!share_ratios} but restricted to traffic exchanged on TFT slots
    — the quantity §6's analytic model predicts (the optimistic slot is
    the "generous" extra the model excludes). *)
