(** Calendar-queue event-queue backend ([--queue calendar]).

    A power-of-two directory of "day" buckets cycled year after year:
    O(1) amortized insert and pop when inter-event gaps are near-uniform
    (R. Brown, CACM 1988) — the regime `Net`'s latency draws produce.
    The directory resizes (with a deterministic width recomputation)
    as the population grows and shrinks.

    Same contract as {!Binq}: slots ordered by the total key
    [(times.(slot), seq)], popped in identical order to every other
    backend.  Times must be non-negative and inserts must not predate
    the last removal — both guaranteed by the engine.  Steady-state
    operation allocates nothing; only pool and directory growth do. *)

type t

val create : unit -> t

val size : t -> int

val buckets : t -> int
(** Current bucket-directory size (a power of two) — exposed for the
    resize unit tests. *)

val resizes : t -> int
(** Number of directory rebuilds so far — exposed for the resize unit
    tests. *)

val add : t -> float array -> seq:int -> slot:int -> unit
(** [add q times ~seq ~slot] inserts [slot] with key
    [(times.(slot), seq)]; the time is copied. *)

val pop_min : t -> max_time:float -> int
(** Remove and return the least-key slot if its time is [<= max_time];
    [-1] when empty or the minimum lies beyond [max_time] (nothing is
    removed or otherwise committed in that case). *)

val pop_before : t -> float array -> slot:int -> seq:int -> int
(** The bounded pop, as {!Binq.pop_before}: remove and return the
    least-key slot only if its key orders strictly before
    [(times.(slot), seq)]; [-1] otherwise. *)

val clear : t -> unit
(** Empty the queue and release backing storage. *)
