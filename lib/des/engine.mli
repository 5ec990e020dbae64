(** Discrete-event simulation engine.

    A simulated clock plus an event queue.  Events scheduled for the
    same instant fire in scheduling order, so runs are deterministic.
    This is the substrate of the asynchronous message-passing dynamics
    (the paper's peers act "anytime", not in rounds).

    The queue itself is pluggable ({!backend}, the [--queue] flag):
    a binary heap, a calendar queue, or a ladder queue.  All three pop
    in the identical total (time, seq) order, so the backend choice
    never changes simulation results — only events/sec (DESIGN.md §14).
    In front of the backend, relative schedules that repeat one constant
    delay (a constant-latency network's messages) wait in an in-order
    FIFO lane instead of the queue; pops merge the lane with the backend
    under the same (time, seq) order, so the lane changes no result
    either.

    Two payload flavours share the queue: classic closure callbacks,
    and defunctionalized "packed" events — a non-negative int code
    (typically bit-packed src/dst/kind, see [Net.Packed]) dispatched
    through a per-engine handler.  Packed events make the steady-state
    scheduling path allocation-free: no closure, no heap entry, just
    scalars in recycled slot arrays. *)

type t

(** {1 Queue backends} *)

type backend =
  | Heap  (** binary heap — the robust general-purpose baseline *)
  | Calendar  (** calendar queue — O(1) amortized for near-uniform gaps *)
  | Ladder  (** ladder queue — robust to skewed / bursty schedules *)

val backends : backend list
(** All backends, in flag order: heap, calendar, ladder. *)

val backend_name : backend -> string
(** ["heap"], ["calendar"] or ["ladder"] — the [--queue] spelling. *)

val backend_of_string : string -> backend option

val set_default_backend : backend -> unit
(** Process-wide default for {!create} — how the [--queue] flag reaches
    engines created deep inside [Net] / [Async_dynamics] / [Plan]
    without threading a parameter through every constructor.  Initially
    {!Heap}. *)

val default_backend : unit -> backend

(** {1 Engine} *)

val create : ?backend:backend -> unit -> t
(** [backend] defaults to {!default_backend}. *)

val backend : t -> backend

val now : t -> float
(** Current simulated time. *)

val schedule : t -> delay:float -> (t -> unit) -> unit
(** Run a callback [delay] time units from now ([delay ≥ 0]).  Raises
    [Invalid_argument] naming the offending delay otherwise — jittered
    latency draws that go negative fail loudly, not silently. *)

val schedule_at : t -> time:float -> (t -> unit) -> unit
(** Absolute-time variant; [time] must not be in the past.  Raises
    [Invalid_argument] naming the offending time and the current clock. *)

val schedule_packed : t -> delay:float -> int -> unit
(** Like {!schedule} for a defunctionalized event: [code ≥ 0] is stored
    instead of a closure and dispatched through the handler installed
    with {!set_packed_handler}.  Allocation-free in steady state. *)

val schedule_packed_at : t -> time:float -> int -> unit
(** Absolute-time variant of {!schedule_packed}. *)

val set_packed_handler : t -> (t -> int -> unit) -> unit
(** Install the dispatcher for packed event codes.  Firing a packed
    event with no handler installed raises [Invalid_argument]. *)

val pending : t -> int

val step : t -> bool
(** Fire the single earliest pending event; [false] when idle. *)

val run_until : t -> time:float -> unit
(** Process events with timestamp [≤ time], then advance the clock to
    [time]. *)

val dump_packed : t -> (float * int) array
(** The pending queue as pure data, in the canonical pop order (the total
    (time, seq) order every backend agrees on) — the serializable form
    used by deterministic snapshot/restore.  Non-destructive: the queue
    is intact (and equivalent) afterwards.  Raises [Invalid_argument]
    when a closure event is pending — only packed events are data. *)

val restore_packed : ?backend:backend -> now:float -> (float * int) array -> t
(** A fresh engine whose clock reads [now] and whose queue pops exactly
    the given [(time, code)] entries in array order (entries must be in
    canonical order, i.e. straight from {!dump_packed} — times before
    [now] raise [Invalid_argument]).  Because the dump order is the
    backend-invariant total order, a snapshot taken under one [backend]
    restores bit-identically under any other. *)

val drain : ?max_events:int -> t -> bool
(** Process everything left (events may schedule more).  Returns [false]
    if the [max_events] budget (default 10⁷) ran out first — the runaway
    guard for event loops that feed themselves.  A budget exhaustion also
    bumps the ["des.drain_budget_exhausted"] observability counter so
    instrumented runs cannot mistake a truncated drain for quiescence. *)
