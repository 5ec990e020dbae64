(** TFT unchoke selection.

    Every rechoke period a peer unchokes the [slots] interested neighbours
    from which it downloaded fastest over the estimation window, plus one
    {e optimistic} unchoke rotated periodically among the remaining
    interested neighbours — the exploration move that lets new
    reciprocation relationships form (it plays the role of the "random
    initiative" of §3 of the paper).

    A rechoke streams the interested neighbours through a reused top-[slots]
    buffer: nothing is allocated per rechoke.  Neighbours are identified by
    any non-negative int (the swarm passes edge ids). *)

type t

val create : slots:int -> t
(** A buffer for rechokes of up to [slots] slots. *)

val start : t -> slots:int -> optimistic:int -> unit
(** Begin a rechoke for a peer with [slots] TFT slots (at most the
    capacity given to {!create}; a negative count means none) whose
    current optimistic unchoke is [optimistic] ([-1] for none). *)

val offer : t -> float -> int -> int -> unit
(** [offer t rate tag id]: neighbour [id] is interested and was observed
    at [rate].  The buffer keeps the best [slots] offers ranked by rate,
    higher first; equal rates rank by [tag], lower first (the swarm draws
    a random tag per offer so rate ties break uniformly); equal keys keep
    their offer order.  This is exactly the prefix of a stable sort of
    all offers on that key. *)

val count : t -> int
(** The number of TFT unchokes the rechoke chose: [min slots offers]. *)

val nth : t -> int -> int
(** [nth t k]: the [k]-th TFT unchoke in rank order, [0 <= k < count t]. *)

val optimistic : t -> int
(** The optimistic unchoke after the rechoke: the one given to {!start}
    if it was offered (still interested) and did not become a TFT
    unchoke, [-1] otherwise. *)

val rotate : Stratify_prng.Rng.t -> int array -> int -> int
(** [rotate rng eligible k] chooses a new optimistic unchoke uniformly
    among [eligible.(0) .. eligible.(k-1)] — the interested neighbours
    that are not TFT unchokes — with one [Rng.int] draw; [-1], drawing
    nothing, when [k = 0]. *)
