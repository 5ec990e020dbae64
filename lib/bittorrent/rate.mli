(** Sliding-window transfer-rate estimation.

    BitTorrent's Tit-for-Tat ranks neighbours by the download rate observed
    "in the last 10 seconds"; this module is that estimator: a circular
    per-tick byte counter over a fixed window.  One store holds many
    windows of the same length side by side in flat arrays — the swarm
    keeps one per knowledge-graph edge — so recording and reading a rate
    touch no allocation. *)

type t

val create : window:int -> int -> t
(** [create ~window k]: [k] empty windows [0 .. k-1], each observing the
    last [window] ticks.  Raises [Invalid_argument] unless [window > 0]
    and [k >= 0]. *)

val window : t -> int

val record : t -> int -> tick:int -> float -> unit
(** [record t k ~tick amount] credits window [k] with an amount of data
    transferred during [tick].  Ticks must be supplied
    non-decreasingly. *)

val rate : t -> int -> tick:int -> float
(** Window [k]'s average per-tick rate over the window ending at [tick]
    (exclusive of ticks older than the window). *)

val total : t -> int -> float
(** All data ever recorded in window [k]. *)

val clear : t -> int -> unit
(** Empty window [k], as at {!create}. *)

val dump : t -> int -> float array * int array * float
(** [(buckets, stamps, total)] — fresh copies of window [k]'s circular
    per-tick buckets, their tick stamps, and its lifetime total: the
    serializable form used by deterministic snapshot/restore. *)

val restore : t -> int -> buckets:float array -> stamps:int array -> total:float -> unit
(** Overwrite window [k] with {!dump} output.  Raises [Invalid_argument]
    unless both arrays have exactly [window] entries. *)
