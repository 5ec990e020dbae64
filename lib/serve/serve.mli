(** The request-driven service layer: a continuously simulated world
    behind a tracker-style announce/join/leave/scrape/stats interface.

    One {!t} holds a peer {e population} — a churn oracle
    ({!Stratify_core.Churn.world}) whose instant stable configuration is
    repaired incrementally as peers arrive and depart — and any number
    of concurrent {e swarms} (fixed-capacity
    {!Stratify_bittorrent.Swarm} simulators with tick-level
    {!Stratify_net.Net.Tick} faults).  A DES engine drives everything:
    a self-rescheduling packed tick event advances every swarm and the
    churn process once per simulated second, and scripted requests are
    packed events stamped with their injection times.  Announce
    responses are fed from the oracle's stable configuration (mates
    first, then uniform members) — the tracker serves the paper's
    stratified matching, which is the whole point.

    {2 Determinism and snapshots}

    Every run is a pure function of its {!Request.script}: all
    randomness flows from the script seed through named substreams, the
    engine pops the total (time, seq) order, and responses fold into a
    checksum.  {!snapshot} serializes the {e
    complete} world — RNG streams, DES queue contents, matching config,
    swarm piece/rate state, net fault state — such that
    {!restore}d service replays bit-for-bit: stopping at tick [T] and
    resuming produces the same {!manifest} as the uninterrupted run
    (the snapshot stores the queue in its canonical (time, seq) order).
    DESIGN.md §15 gives the argument. *)

type t

val create : Request.script -> t
(** Build the world and schedule the script: the tick loop (first tick
    at time 1.0) plus one packed event per request.  Nothing runs until
    {!run_to}. *)

val script : t -> Request.script
val engine : t -> Stratify_des.Engine.t
val now : t -> float
val ticks : t -> int
(** World ticks completed so far. *)

val checksum : t -> int
(** FNV-1a fold of every response string served so far, each followed
    by a newline — the replay-equality fingerprint. *)

val requests_handled : t -> int

val oracle : t -> Stratify_core.Churn.world

val handle : t -> Request.kind -> string
(** Serve one request at the current simulated time and return the
    response line ("OK ..." or "ERR ..." for state-dependent refusals
    such as joining a full swarm).  Referencing an unknown swarm id or
    a peer outside the population raises a named [Invalid_argument] —
    the contract the stdio frontend and the error-path tests lean on.
    The response is folded into {!checksum}.  A request that raises is
    not handled: it changes no state, and neither [requests_handled]
    nor its kind's tally in the {!manifest} and {!snapshot} counts it.
    The reply is written into a buffer the world reuses, so apart from
    the float fields of scrape and stats replies the returned string is
    the only value a request allocates. *)

val run_to : t -> float -> unit
(** Advance the world to an absolute simulated time (events at that
    time included).  Raises [Invalid_argument] (via the engine) when
    the time is in the past. *)

val run_script : t -> unit
(** [run_to] the script horizon. *)

val manifest : ?git:string -> t -> Stratify_obs.Run_manifest.t
(** A [kind:"serve"] manifest built purely from world-internal tallies
    (no global counters, no wall-clock, no phases): request and churn
    totals, the response checksum, per-swarm membership / completion /
    fault-drop / upload aggregates, and oracle occupancy.  Byte-identical
    across runs and stop/resume boundaries. *)

val snapshot : t -> Stratify_obs.Jsonx.t
(** Serialize the complete world state. *)

val snapshot_string : t -> string

val restore : Stratify_obs.Jsonx.t -> t
(** Rebuild a world from {!snapshot} output.  Raises [Jsonx.Parse_error]
    naming the field path on shape errors and unknown keys, and named
    [Invalid_argument] on semantic ones, naming the swarm and slot: a
    member outside the population or seated in two slots, and an
    unchoke, optimistic unchoke or link-progress entry that names a slot
    outside the knowledge-graph neighbourhood (the invariant
    {!Stratify_bittorrent.Swarm.recycle_peer} relies on). *)

val restore_string : string -> t
