(** Preference systems and Tan's preference cycles (§3 of the paper).

    Tan (1991) characterised stable-matching existence in the roommates
    setting: a stable configuration exists iff there is no {e odd}
    preference cycle of length > 1, and it is unique if additionally there
    is no even cycle of length > 2.  A preference cycle is a set of
    distinct peers [i1 … ik] in which every peer prefers its successor to
    its predecessor.  Global rankings admit no cycle at all — that is the
    paper's existence-and-uniqueness argument — and this module provides
    both the general representation and a brute-force cycle finder used to
    test the theorem on small adversarial instances. *)

open Stratify_core

type t
(** A general preference system: each peer holds a strict preference order
    over a subset of the other peers. *)

val of_lists : int array array -> t
(** [of_lists prefs] where [prefs.(p)] lists [p]'s acceptable partners,
    most-preferred first.  Raises [Invalid_argument] on self-references or
    duplicates.  Acceptability is symmetrised: pairs listed by only one
    side are dropped. *)

val of_global_ranking : Instance.t -> t
(** The preference system a global-ranking instance induces. *)

val size : t -> int

val preference_list : t -> int -> int array

val accepts : t -> int -> int -> bool

val prefers : t -> int -> int -> int -> bool
(** [prefers t p a b]: does [p] rank [a] strictly before [b]?  Both must be
    acceptable to [p]. *)

val find_preference_cycle : ?parity:[ `Any | `Odd | `Even ] -> t -> int list option
(** Exhaustive search for a preference cycle of length ≥ 3, optionally
    restricted to a parity class.  Exponential; for [size ≤ 10]. *)

val is_global_ranking_like : t -> bool
(** Whether some global ranking induces exactly these preferences (i.e. all
    preference lists are consistent with one total order). *)
