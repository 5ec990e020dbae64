(** Structure-of-arrays binary min-heap on (time, seq) keys — the
    engine's event queue.

    Entries are int [slot] values ordered by the total key
    [(times.(slot), seq)], where [seq] is the engine's monotonically
    increasing insertion sequence.  The key order is total, so the pop
    order is a function of the inserts alone (DESIGN.md §14).

    The event time is read from [times.(slot)] rather than passed as a
    [float] argument: without flambda a freshly computed float crossing
    a function boundary gets boxed, and the engine's steady-state
    scheduling path must not allocate.  A [float array] load/store stays
    unboxed. *)

type t

val create : unit -> t

val size : t -> int

val add : t -> float array -> seq:int -> slot:int -> unit
(** [add q times ~seq ~slot] inserts [slot] with key
    [(times.(slot), seq)].  The time is copied; later mutation of
    [times.(slot)] does not affect ordering. *)

val pop_min : t -> max_time:float -> int
(** Remove and return the least-key slot if its time is [<= max_time];
    [-1] when the queue is empty or the minimum lies beyond [max_time]
    (nothing is removed in that case).  Pass [infinity] for an
    unconditional pop. *)

val pop_before : t -> float array -> slot:int -> seq:int -> int
(** The bounded pop: remove and return the least-key slot if its key
    orders strictly before [(times.(slot), seq)]; [-1] when the queue is
    empty or its minimum does not (nothing is removed in that case).
    The engine calls it with the head of its in-order lane as the
    bound, so each pop searches the heap once.  The bound's time is
    read from an array for the same boxing reason as in {!add}. *)
