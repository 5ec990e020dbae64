(** Ladder-queue event-queue backend ([--queue ladder]).

    Top / rungs / Bottom tiers (Tang, Goh & Thng, ACM TOMACS 2005,
    simplified): far-future inserts pile unsorted into Top; when their
    turn approaches they are spread over a rung of bucket spans,
    recursively refined ("spawned") one rung finer whenever a bucket
    holds more than the sort threshold; small buckets are
    insertion-sorted into Bottom, where pops come from.  Robust to the
    skewed and bursty schedules that defeat a calendar queue's uniform
    day width.

    Same contract as {!Binq}: slots ordered by the total key
    [(times.(slot), seq)], popped in identical order to every other
    backend.  Times must not predate the last removal (guaranteed by
    the engine).  Rungs and pools are preallocated and reused, so
    steady-state operation allocates nothing. *)

type t

val create : unit -> t

val size : t -> int

val active_rungs : t -> int
(** Rungs currently live — exposed for the spawn-threshold unit
    tests. *)

val spawned : t -> int
(** Child rungs ever spawned (bucket populations over the sort
    threshold forced a finer subdivision) — exposed for the
    spawn-threshold unit tests. *)

val add : t -> float array -> seq:int -> slot:int -> unit
(** [add q times ~seq ~slot] inserts [slot] with key
    [(times.(slot), seq)]; the time is copied. *)

val pop_min : t -> max_time:float -> int
(** Remove and return the least-key slot if its time is [<= max_time];
    [-1] when empty or the minimum lies beyond [max_time] (nothing is
    removed in that case; internal lazy restructuring may still run). *)

val pop_before : t -> float array -> slot:int -> seq:int -> int
(** The bounded pop, as {!Binq.pop_before}: remove and return the
    least-key slot only if its key orders strictly before
    [(times.(slot), seq)]; [-1] otherwise. *)

val clear : t -> unit
(** Empty the queue and release backing storage. *)
