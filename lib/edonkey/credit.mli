(** eMule-style pairwise credit accounting.

    §2 of the paper contrasts BitTorrent's single game-theoretic
    preference list with "a protocol like eDonkey [which] optimizes
    independently two preference lists on the server and the client
    sides".  The server side ranks waiting clients by
    [waiting time × credit modifier]; the modifier rewards clients that
    previously uploaded to this server.  This module implements the
    classic eMule modifier:

    {v modifier = clamp(1, 10, min(2·U/D, sqrt(U + 2))) v}

    where [U] are the megabytes the client sent {e to me} and [D] the
    megabytes it received {e from me} ([2·U/D] is skipped while [D] is
    negligible). *)

type t

val create : int array array -> t
(** [create rows]: zeroed ledgers over a symmetric neighbour graph, where
    [rows.(s)] lists [s]'s neighbours in ascending order.  Every ledger
    entry is an edge: peer [s]'s [k]-th neighbour is [rows.(s).(k)].
    Raises [Invalid_argument] when a row is unsorted, names a peer
    outside [[0, n)], or is not mirrored by the neighbour's own row. *)

val record_transfer : t -> from_:int -> k:int -> float -> unit
(** [from_] sent the given volume to its [k]-th neighbour.  Raises
    [Invalid_argument] on a negative volume. *)

val uploaded_to : t -> judge:int -> k:int -> float
(** Volume [judge]'s [k]-th neighbour has sent to [judge]. *)

val downloaded_from : t -> judge:int -> k:int -> float
(** Volume [judge]'s [k]-th neighbour has received from [judge]. *)

val modifier : t -> judge:int -> k:int -> float
(** The eMule credit modifier of [judge]'s [k]-th neighbour in [judge]'s
    queue, in [1, 10]. *)
