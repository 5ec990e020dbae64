(** Discrete-event simulation engine.

    A simulated clock plus an event queue.  Events scheduled for the
    same instant fire in scheduling order, so runs are deterministic.
    This is the substrate of the asynchronous message-passing dynamics
    (the paper's peers act "anytime", not in rounds).

    An event is a defunctionalized "packed" code — a non-negative int
    (typically bit-packed src/dst/kind, see [Net.Packed]) dispatched
    through a per-engine handler — so the steady-state scheduling path
    is allocation-free: no closure, no heap block, just scalars in
    recycled slot arrays.  A binary heap pops events in the total
    (time, seq) order.  In front of it, relative schedules that repeat
    one constant delay (a constant-latency network's messages) wait in
    an in-order FIFO lane instead; pops merge the lane with the heap
    under the same order, so the lane changes no result (DESIGN.md §14).

    Every time, delay and clock handed to the engine must be finite:
    [nan] and [±inf] raise [Invalid_argument] naming the function and
    the value. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time. *)

val schedule_packed : t -> delay:float -> int -> unit
(** Fire [code ≥ 0] through the handler installed with
    {!set_packed_handler}, [delay] time units from now.  Raises
    [Invalid_argument] naming the offending value on a negative code, a
    negative delay (jittered latency draws that go negative fail
    loudly, not silently) or a non-finite event time.  Allocation-free
    in steady state. *)

val schedule_packed_at : t -> time:float -> int -> unit
(** Absolute-time variant of {!schedule_packed}; [time] must be finite
    and not in the past.  Raises [Invalid_argument] naming the
    offending time and the current clock. *)

val set_packed_handler : t -> (t -> int -> unit) -> unit
(** Install the dispatcher for event codes.  Firing an event with no
    handler installed raises [Invalid_argument]. *)

val pending : t -> int

val step : t -> bool
(** Fire the single earliest pending event; [false] when idle. *)

val run_until : t -> time:float -> unit
(** Process events with timestamp [≤ time], then advance the clock to
    [time] (finite, not in the past). *)

val dump_packed : t -> (float * int) array
(** The pending queue as pure data, in the canonical (time, seq) pop
    order — the serializable form used by deterministic
    snapshot/restore.  Non-destructive: the queue is intact (and
    equivalent) afterwards. *)

val restore_packed : now:float -> (float * int) array -> t
(** A fresh engine whose clock reads [now] and whose queue pops exactly
    the given [(time, code)] entries in array order (entries must be in
    canonical order, i.e. straight from {!dump_packed}).  A negative or
    non-finite clock, and entry times that are non-finite or before
    [now], raise [Invalid_argument]. *)

val drain : ?max_events:int -> t -> bool
(** Process everything left (events may schedule more).  Returns [false]
    if the [max_events] budget (default 10⁷) ran out first — the runaway
    guard for event loops that feed themselves.  A budget exhaustion also
    bumps the ["des.drain_budget_exhausted"] observability counter so
    instrumented runs cannot mistake a truncated drain for quiescence. *)
