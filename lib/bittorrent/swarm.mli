(** Discrete-time BitTorrent swarm simulator.

    One tick ≈ one second.  Each tick every peer splits its upload capacity
    evenly across its unchoked-and-interested neighbours; every
    [rechoke_period] ticks the TFT choker re-selects the top uploaders;
    every [optimistic_period] ticks the optimistic slot rotates to a random
    interested neighbour.

    Two operating modes:
    - {e bandwidth-only} (default): the paper's post-flash-crowd
      assumption — content availability never gates a transfer, so the
      dynamics are driven purely by bandwidth reciprocation.  This is the
      regime §6 models analytically.
    - {e piece mode}: an explicit file of [pieces] pieces with rarest-first
      selection, used to check rather than assume that availability is not
      a bottleneck. *)

type piece_params = {
  pieces : int;
  piece_size : float;  (** data units per piece *)
  init_fraction : float;  (** initial per-piece holding probability *)
  seeds : int;  (** peers 0..seeds-1 start complete *)
}

type params = {
  uploads : float array;  (** per-peer upload capacity, units/tick *)
  downloads : float array option;
      (** per-peer download capacity; [None] = unlimited (the paper's
          model).  When set, a receiver over capacity throttles every
          inbound stream proportionally — 2006-era links were asymmetric,
          and a saturated downlink weakens the TFT signal. *)
  slots : int array;  (** per-peer TFT slot count *)
  d : float;  (** expected knowledge degree (Erdős–Rényi) *)
  rechoke_period : int;  (** BitTorrent default: 10 *)
  optimistic_period : int;  (** BitTorrent default: 30 *)
  rate_window : int;  (** rate-estimation window, ticks *)
  piece : piece_params option;
  faults : Stratify_net.Net.Tick.t option;
      (** tick-level link faults: per-tick per-link loss and scheduled
          partitions.  A dropped link wastes the sender's share for that
          tick (capacity is split before the network has its say).  [None]
          = the historical fault-free swarm, bit-identical and drawing
          nothing. *)
}

val default_params : uploads:float array -> params
(** slots = 3 everywhere, d = 20, periods 10/30, window 10, no pieces, no
    download caps, no link faults. *)

type t

val create : Stratify_prng.Rng.t -> params -> t
val size : t -> int
val tick_count : t -> int
val peer : t -> int -> Peer.t

val step : t -> unit
(** Advance one tick. *)

val run : t -> ticks:int -> unit

val reset_counters : t -> unit
(** Zero all cumulative counters — call after warm-up so that measured
    ratios cover the steady state only. *)

val link_drops : t -> int
(** Transfers suppressed by the fault model so far (0 without [faults]). *)

val completed : t -> int
(** Number of peers holding the full file (piece mode; [size t] in
    bandwidth-only mode). *)

val recycle_peer : t -> int -> unit
(** Replace a peer with a fresh arrival in its slot: empty bitfield
    (availability updated), cleared choke/rate state, zeroed counters.
    The knowledge graph position is inherited (the newcomer bootstraps
    from the same tracker answer).  No-op consequences in bandwidth-only
    mode beyond the state reset.  Other peers' references to the slot
    (unchokes, optimistic unchoke, in-flight piece progress both ways)
    are dropped by visiting the slot's knowledge-graph neighbours only:
    O(degree), correct because the simulation never lets choke or
    progress state name a non-neighbour.  Used by the steady-churn
    scenario and by lib/serve's seat/leave path. *)

val interested : t -> int -> int -> bool
(** [interested t q p]: would peer [q] want data from [p]?  Always true in
    bandwidth-only mode; in piece mode, true iff [p] holds a piece [q]
    lacks. *)

val rng : t -> Stratify_prng.Rng.t
(** The swarm's private random source — exposed so snapshot/restore can
    capture and re-seed its state ({!Stratify_prng.Rng.state}). *)

val set_tick : t -> int -> unit
(** Overwrite the tick counter (snapshot/restore; [tick >= 0]). *)

val set_held_pieces : t -> int -> int list -> unit
(** Overwrite a peer's bitfield to exactly the given pieces, keeping the
    global availability counts in sync (each change goes through the
    same on_remove/on_add bookkeeping as the simulation).  Raises
    [Invalid_argument] when given pieces in bandwidth-only mode. *)

val iter_link_progress : t -> (int -> int -> float -> unit) -> unit
(** Visit every (sender, receiver, partial-piece progress) entry, in
    hash-table order — sort before serializing. *)

val set_link_progress : t -> sender:int -> receiver:int -> float -> unit
(** Set one link's partial-piece progress ([>= 0]). *)

val clear_link_progress : t -> unit
