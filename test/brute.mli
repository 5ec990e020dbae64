(** Exhaustive enumeration of stable configurations — the ground truth
    against which Algorithm 1, Irving's algorithm and the dynamics are
    cross-validated on small instances.

    Complexity is exponential in the number of acceptance edges; intended
    for [n ≤ 8]. *)

open Stratify_core

val all_configs : Instance.t -> Config.t list
(** Every degree-feasible subset of the acceptance edges. *)

val all_stable_configs : Instance.t -> Config.t list
(** The stable ones among them.  For a global-ranking instance this list
    has exactly one element (Tan's uniqueness). *)

val count_configs : Instance.t -> int
(** Number of feasible configurations (without materialising them). *)
