(** Asynchronous message-passing initiative dynamics.

    The paper's §3 model is asynchronous in spirit — peers act "anytime" —
    but its simulations (and {!Sim}) are round-based with atomic rewiring.
    This module implements the dynamics as an actual distributed protocol
    over a discrete-event simulation: peers fire initiatives on
    independent exponential clocks and rewire through a
    propose/accept/commit handshake whose messages cross a
    {!Stratify_net.Net} network, so decisions are made on {e stale} state
    and must be re-validated (with retract/drop compensation) on arrival.

    Local mate lists can disagree transiently ({e inconsistency}); edges
    both endpoints agree on form the {e mutual configuration}.  The
    protocol is eventually consistent: once initiatives stop and messages
    drain, mate lists are symmetric again.  The [async] experiment
    measures how convergence degrades as latency approaches the initiative
    period; the [faults] experiment sweeps loss and latency through the
    full network layer. *)

type params = {
  latency : float;  (** one-way message delay *)
  initiative_rate : float;  (** per-peer exponential initiative rate *)
  loss : float;  (** probability a message silently vanishes, in [0,1) *)
}

val default_params : params
(** latency 0.05, rate 1 (per time unit), no loss. *)

type outcome =
  | Drained  (** all in-flight messages processed; mate lists symmetric *)
  | Budget_exhausted
      (** the event budget ran out before quiescence — an explicit
          non-convergence verdict, never silently conflated with success *)

type t

val create :
  ?net:Stratify_net.Net.t ->
  Instance.t ->
  Stratify_prng.Rng.t ->
  params ->
  t
(** Peers use the paper's {e random} initiative strategy (propose to a
    uniform acceptable peer) — the only one available without a global
    availability oracle.

    Without [?net], messages cross a private fault-free-by-default
    network built from [params]: constant [latency], i.i.d. [loss] — the
    legacy fault model, bit-identical to scheduling each message straight
    on the engine.  With [?net], all messages route through the given
    network (its latency/loss/duplication/reordering/partition faults
    apply; [params.latency] and [params.loss] are ignored) and the
    dynamics runs on that network's engine — this is how the scenario
    harness injects faults.

    Protocol messages are packed event codes sent with
    {!Stratify_net.Net.send}, so [create] installs its own handler with
    {!Stratify_net.Net.set_handler}, replacing any handler the network
    had: do not share the network with another packed-event workload.
    The network's partition schedule keeps working.  Raises
    [Invalid_argument] on a negative latency, a non-positive or
    non-finite initiative rate, a loss outside [0, 1), or when the
    instance has more peers than packed codes can address
    ([Net.Packed.max_id + 1]). *)

val net : t -> Stratify_net.Net.t
(** The network carrying this instance's messages (the private one if
    [create] built it). *)

val time : t -> float

val run : t -> horizon:float -> unit
(** Advance the simulation clock (initiatives keep firing). *)

val quiesce : ?max_events:int -> t -> outcome
(** Stop all initiative clocks and drain in-flight messages.
    [Budget_exhausted] means the [max_events] drain budget (default 10⁷)
    ran out first — the run did {e not} reach a stable configuration and
    callers must report it as such. *)

val mutual_config : t -> Config.t
(** The edges both endpoints currently list. *)

val inconsistency_count : t -> int
(** Directed listings without reciprocation — in-flight handshakes and
    not-yet-delivered drops. *)

val messages_sent : t -> int
val messages_lost : t -> int
(** Messages dropped in transit (loss model + partitions). *)

val disorder_trajectory :
  t -> stable:Config.t -> horizon:float -> samples:int -> Stratify_stats.Series.t
(** Run to [horizon], sampling the mutual configuration's disorder at
    evenly spaced instants (x-axis: time units ≈ initiatives/peer). *)
