(** Global rankings (the paper's intrinsic value [S(p)]).

    Every peer carries a scalar mark — available bandwidth, computational
    capacity, shared storage … — and all peers agree that higher marks are
    better.  The paper requires marks to be distinct ("Note on ties", §3):
    ties break the existence guarantees of the global-ranking class, so the
    constructor rejects them loudly rather than resolving them silently. *)

type t

exception Ties of int * int
(** Raised by {!of_scores} when two peers have equal scores. *)

val of_scores : float array -> t
(** [of_scores s] ranks peer ids [0 .. n-1] by decreasing score.
    @raise Ties if two scores are equal (two equal infinities included).
    @raise Invalid_argument naming the peer if a score is NaN: a NaN
    equals nothing, so it could not tie, yet it is no mark either. *)

val identity : int -> t
(** The label ranking used throughout the paper's simulations: peer id [i]
    has rank [i] (id 0 is the best peer).  It stores no array: O(1)
    memory whatever [n].  Every accessor answers as {!of_scores} of the
    scores [-i] would, and raises [Invalid_argument] on an index outside
    [\[0, n)], as the scored form's array reads do.
    @raise Invalid_argument naming the size if [n < 0]. *)

val size : t -> int

val rank : t -> int -> int
(** [rank t p] is the position of peer [p], [0] = best. *)

val peer_at : t -> int -> int
(** [peer_at t r] is the peer holding rank [r]; inverse of {!rank}. *)

val score : t -> int -> float
(** Original score of a peer ([-rank] for {!identity} rankings). *)

val prefers : t -> int -> int -> bool
(** [prefers t p q]: is [p] strictly better-ranked than [q]? *)

val compare_peers : t -> int -> int -> int
(** Comparator ordering peers best-first (negative when the first argument
    is better). *)

val is_identity : t -> bool
(** Whether ranks coincide with ids (enables fast paths). *)
