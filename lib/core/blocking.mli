(** Blocking pairs and stability (§2 of the paper).

    A pair [{p, q}] {e blocks} a configuration when the two peers are
    acceptable to each other, not currently mates, and each is either
    under-budget or prefers the other to its worst current mate.  A
    configuration with no blocking pair is {e stable} — a Nash equilibrium
    of the collaboration game. *)

val would_accept : Config.t -> int -> int -> bool
(** [would_accept c p q]: would [p] welcome [q] as a new mate — free slot,
    or [q] better than [p]'s worst mate?  (Does not check acceptability or
    current matedness.)  One load of {!Config.raw_thresh}. *)

val is_blocking : Config.t -> int -> int -> bool
(** Full blocking-pair test for [{p, q}]. *)

val best_blocking_mate : Config.t -> int -> int option
(** Best-ranked blocking mate of [p], if any — the target of a "best mate"
    initiative.  O(acceptance degree). *)

val best_blocking_mate_int : Config.t -> int -> int
(** Option-free {!best_blocking_mate}: the mate's rank, or [-1] when no
    pair involving [p] blocks.  The steady-state convergence loop calls
    this per attempt and allocates nothing. *)

val blocking_mate_cursor : Config.t -> int -> int array -> int
(** Circular scan of [p]'s acceptance list (for "decremental"
    initiatives), with the per-peer cursor state threaded as an array:
    starts at position [cursors.(p)], and only on a hit stores the
    follow-up position back into [cursors.(p)] and returns the mate's
    rank; [-1] (cursor untouched) when nothing blocks. *)

val blocking_pairs : Config.t -> (int * int) list
(** All blocking pairs, [p < q].  O(n · degree); intended for tests and
    small instances. *)

val is_stable : Config.t -> bool

val first_blocking_pair : Config.t -> (int * int) option
