(** Piece bitfields and rarest-first selection.

    The optional piece-level mode of the swarm simulator tracks which
    pieces each peer holds; transfers are gated on the sender actually
    having a piece the receiver lacks, and receivers pick the globally
    rarest such piece — BitTorrent's "rarest first" policy, which is what
    justifies the paper's post-flash-crowd assumption that availability is
    not a bottleneck. *)

type t
(** A peer's piece set. *)

val create : pieces:int -> t
(** Empty bitfield over [pieces] pieces. *)

val pieces : t -> int
val has : t -> int -> bool
val count : t -> int
val is_complete : t -> bool

val add : t -> int -> bool
(** Mark a piece as held; [false] if already held. *)

val random_fill : t -> Stratify_prng.Rng.t -> fraction:float -> unit
(** Mark each missing piece independently with the given probability —
    the synthetic post-flash-crowd initial state. *)

val fill_all : t -> unit
(** A seed's bitfield. *)

val clear : t -> unit
(** Drop every piece (peer-recycling support). *)

val iter_held : t -> (int -> unit) -> unit
(** Visit each held piece index. *)

val wants : have:t -> from_:t -> bool
(** Whether [from_] holds a piece [have] lacks — the receiver [have]
    is "interested" in the sender [from_].  A byte-wise scan of the two
    bitfields, which must have the same piece count. *)

(** Global piece availability across the swarm. *)
module Availability : sig
  type counts

  val create : pieces:int -> counts
  val on_add : counts -> int -> unit
  val on_remove : counts -> int -> unit
  val of_swarm : pieces:int -> t array -> counts

  val rarest_wanted : counts -> have:t -> from_:t -> int
  (** The rarest piece the sender [from_] holds that the receiver [have]
      lacks, the lowest index among equally rare ones; [-1] when the
      sender has nothing useful (the receiver is "not interested"). *)
end
