(** Utility functions over peers — the generic framework of §2/§7.

    The paper's analysis covers the {e global ranking} class, but its
    framework (and its conclusion) is about arbitrary utility functions:
    each peer [p] scores each acceptable peer [q] and prefers higher
    scores.  This module represents such functions and derives the
    preference lists the matching machinery consumes.

    Three structural classes matter:
    - {e global ranking}: [u p q = S q] — a peer's attractiveness is the
      same for everyone.  Unique stable configuration (§3).
    - {e symmetric}: [u p q = u q p] — e.g. negative latency.  A stable
      configuration always exists (take globally best edges greedily) but
      it need not be unique.
    - {e arbitrary}: stability can fail altogether (Tan's odd cycles). *)

type t

val global_ranking : Ranking.t -> t
(** [u p q = score q]. *)

val of_function : (int -> int -> float) -> t
(** Arbitrary utility [u p q]: the value of [q] {e for} [p]. *)

val symmetric_distance : (int -> int -> float) -> t
(** [u p q = -. dist p q] for a symmetric distance (latency, say);
    closer = better. *)

val blend : t -> t -> alpha:float -> t
(** [blend a b ~alpha]: [alpha·a + (1−alpha)·b] — the paper's §7
    "combining different utility functions". *)

val value : t -> int -> int -> float
(** Evaluate the utility. *)

val is_symmetric : t -> n:int -> bool
(** Exhaustively check [u p q = u q p] over [n] peers (tests; O(n²)). *)

val preference_lists : t -> acceptance:int array array -> int array array
(** For each peer, its acceptance list sorted by decreasing utility, ties
    broken by peer id (documented determinism; the theory assumes strict
    preferences, so callers should avoid exact ties where it matters). *)
