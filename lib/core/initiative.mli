(** Initiatives — the decentralised rewiring moves of §3.

    A peer [p] "takes the initiative" by proposing partnership to peers on
    its acceptance list; the initiative is {e active} when it finds a
    blocking mate [q], in which case both sides drop their worst mate if
    full and the pair connects.  Three scanning strategies from the paper:

    - {e best mate}: [p] knows everyone's rank and availability and jumps
      straight to the best blocking mate;
    - {e decremental}: [p] knows ranks but not availability, so it scans
      its list circularly from the last peer it asked;
    - {e random}: [p] knows nothing and asks a single uniform peer. *)

type strategy = Best_mate | Decremental | Random

val strategy_name : strategy -> string

type state
(** Per-peer cursors used by the decremental strategy. *)

val create_state : Instance.t -> state

val find_mate_int : Config.t -> state -> strategy -> Stratify_prng.Rng.t -> int -> int
(** The rank of the blocking mate peer [p] would reach under the given
    strategy, or [-1], without modifying the configuration (advances
    decremental cursors).  Option-free, so a failed scan (the
    steady-state common case) allocates nothing. *)

val perform : ?on_rewire:(int -> unit) -> Config.t -> int -> int -> unit
(** Execute the pairing move of an active initiative: each side drops its
    worst mate if it has no free slot, then the two connect.  The pair must
    actually block (checked).  [on_rewire] is called, after all rewiring,
    for each peer whose mate list changed: the two principals and any
    dropped mates (a peer dropped by both sides is reported twice, so the
    hook must be idempotent) — this is what incremental convergence
    detectors ({!Sim}) use to avoid rescanning the whole configuration.
    When observability is enabled, each call bumps the
    "initiative.performed" counter and adds the number of changed mate
    lists to "initiative.rewires". *)

val attempt :
  ?on_rewire:(int -> unit) -> Config.t -> state -> strategy -> Stratify_prng.Rng.t -> int -> bool
(** [find_mate_int] then [perform]; returns whether the initiative was
    active. *)

val no_note : int -> unit
(** The shared do-nothing rewire hook.  Callers on the steady-state path
    pass this (or their own preallocated closure) to {!attempt_hook}
    instead of wrapping an option per attempt. *)

val attempt_hook :
  Config.t -> state -> strategy -> Stratify_prng.Rng.t -> int -> note:(int -> unit) -> bool
(** {!attempt} with a non-optional rewire hook: semantics and counter
    effects are identical, but an attempt boxes neither the found mate
    nor the hook — the allocation-free form [Scheduler.drain] and
    [Sim] step on. *)
