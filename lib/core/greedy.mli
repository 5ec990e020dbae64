(** Algorithm 1 of the paper: the unique stable configuration of a
    global-ranking b-matching instance, computed greedily.

    Peers are processed best-rank-first; each takes the best acceptable
    peers that still have free slots.  Every connection made this way is
    stable by immediate recurrence, and with a global ranking the result is
    the {e unique} stable configuration (Tan 1991). *)

type arena
(** Reusable scratch buffers for the greedy scans.  Passing the same
    arena to repeated {!stable_config} calls (churn repair, sharded band
    solves, benchmark loops) reuses the per-build working arrays instead
    of reallocating them; the result is bit-identical to the arena-free
    path.  Single-threaded: share one arena per domain, never across
    domains. *)

val create_arena : unit -> arena
(** An empty arena; its buffers grow lazily to the largest instance
    solved through it. *)

val scratch : ?arena:arena -> int -> int array * int array
(** [scratch ?arena n] is an [(avail, next)] pair of scratch arrays of
    length >= [n] with unspecified contents: the arena's buffers when
    one is given (grown as needed), fresh ones otherwise.  Callers fill
    what they read — {!solve_window} resets its own window. *)

val find_next : int array -> int array -> int -> int -> int
(** [find_next avail next hi i] is the smallest [j] in [\[i, hi)] with
    [avail.(j) > 0], or [hi]: the next-pointer jump of the complete fast
    path, compressing the pointers it walks.  [next.(j)] must be [j] or
    a value this function wrote, for every [j] in [\[i, hi)]; it reads
    and writes no entry outside that range. *)

val stable_config : ?arena:arena -> Instance.t -> Config.t
(** O(Σ degree) over the acceptance lists.  The pairs go in through
    {!Config.append} in scan order, into a {!Config.unsealed}
    configuration, and the result is {!Config.seal}ed once.
    When profiling is on ({!Stratify_obs.Profile}), each build is
    recorded under the "greedy.build" kernel with [n] ops. *)

val solve_window :
  Config.t -> avail:int array -> next:int array -> lo:int -> hi:int -> unit
(** [solve_window config ~avail ~next ~lo ~hi] runs Algorithm 1 on the
    rank window [\[lo, hi)] of [config]'s instance as if the window were
    the whole population, and appends its pairs to the window's rows,
    which must be empty.  [avail] and [next] are scratch of length
    >= [hi]; it resets their window entries itself.  It writes no row
    and no scratch entry outside [\[lo, hi)], and reads none another
    window writes, so disjoint windows may be solved from different
    domains.  Counts one build and records one "greedy.build" row of
    [hi - lo] ops, like {!stable_config}.  [config] may be
    {!Config.unsealed}; the caller {!Config.seal}s it once every window
    is written. *)

val mates_of_stream : b:int array -> peer:int -> ((int -> int -> unit) -> unit) -> int list
(** [mates_of_stream ~b ~peer iter] is [peer]'s mates, best first, in the
    stable configuration of the instance whose acceptance graph is the
    edges [iter add] passes to [add u v], under the identity ranking,
    with slot budgets [b] (so [n = Array.length b]): the
    {!Config.mates} of {!stable_config}, computed as one pass over the
    stream with only a copy of [b] as free-slot counts.  The stream must
    give each edge once, as [u < v], in increasing [(u, v)] order — the
    order of the G(n,p) walk.  The pass stops the stream (with an
    exception of its own) at the first edge past row [peer], once that
    edge is checked, or as soon as [peer] has no free slot, since no
    later edge changes [peer]'s mates; the stream gives no edge after
    that point, and a [b.(peer)] of 0 reads none.  Counts one
    build and records one "greedy.build" row of [n] ops, like
    {!stable_config}.  Raises [Invalid_argument] naming the value on a
    [peer] outside [\[0, n)], a negative budget, an edge that is not
    [0 <= u < v < n], or an edge that does not follow the previous one. *)

val stable_complete : b:int array -> int array array
(** Fast path for a complete acceptance graph with identity ranking (§4's
    toy model): returns the stable collaboration graph as adjacency arrays
    without materialising the O(n²) acceptance graph.  [b.(i)] is the slot
    budget of the rank-[i] peer.  O(n · max b) via a skip-list over
    still-available peers. *)

val stable_partners_array : Instance.t -> int array
(** For 1-matching instances only: the mate of each peer, or [-1] when
    unmatched.  Raises [Invalid_argument] if some budget exceeds 1. *)
