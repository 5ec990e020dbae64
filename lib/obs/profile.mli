(** Per-kernel profiling: wall time and GC allocation deltas.

    Each [start]/[stop] pair (or [with_]) folds one interval into the
    named kernel's aggregate: total wall seconds, entry count, a
    caller-supplied operation count, and the GC deltas over the
    interval: minor words from [Gc.minor_words] (exact for the calling
    domain, excluding the probes' own allocation), major and promoted
    words from [Gc.counters].  The allocation
    deltas are what the zero-alloc discipline (DESIGN.md §13) is
    checked against: a steady-state kernel's minor-words-per-op must
    stay at (essentially) zero.

    Unlike {!Span}, aggregates are mutex-protected, so kernels running
    inside worker domains (sharded band solves) may record rows; and the
    enable flag is separate from {!Control} — profiling reads the clock
    and GC counters around every kernel entry, which only
    [--profile-phases] runs opt into.  Instrument once-per-build kernels
    (greedy builds, cut scans, stitches, drains), never per-initiative
    paths.  When disabled, [start] returns a shared sentinel and the
    whole probe is a flag test. *)

type entry = {
  kernel : string;
  wall_s : float;
  count : int;
  ops : int;
  minor_words : float;
  major_words : float;
  promoted_words : float;
}

val set_enabled : bool -> unit
val enabled : unit -> bool

type snap
(** A clock + GC-counter snapshot taken at kernel entry. *)

val start : unit -> snap
(** Snapshot now; a shared allocation-free sentinel when disabled. *)

val stop : string -> ?ops:int -> snap -> unit
(** [stop kernel ~ops snap] folds the interval since [snap] into
    [kernel]'s row, crediting it [ops] operations (default 0).  A no-op
    when disabled or when [snap] was taken while disabled. *)

val with_ : string -> ?ops:int -> (unit -> 'a) -> 'a
(** [start]/[stop] around a thunk, exception-safe. *)

val record :
  string ->
  ?ops:int ->
  ?minor_words:float ->
  ?major_words:float ->
  ?promoted_words:float ->
  wall_s:float ->
  unit ->
  unit
(** Fold an {e externally measured} interval into a kernel's row —
    for harnesses (bench.des) that time and [Gc]-meter a region
    themselves and want the result to ride the same snapshot/manifest
    machinery (and its zero-alloc ratchet) as instrumented kernels.
    A no-op when disabled. *)

val snapshot : unit -> entry list
(** Current aggregates, in first-entry order. *)

val reset : unit -> unit
(** Drop all aggregates (the enable flag is left as-is). *)
