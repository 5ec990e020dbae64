(** Peer positions, for latency.

    §7 of the paper proposes latency — a {e symmetric} ranking — as a
    second collaboration criterion.  Peers get uniform positions in the
    unit square, and the distance between two peers is their latency. *)

type positions = (float * float) array
(** Peer coordinates in the unit square. *)

val random_positions : Stratify_prng.Rng.t -> n:int -> positions

val distance : positions -> int -> int -> float
(** Euclidean distance between two peers (a latency proxy). *)
