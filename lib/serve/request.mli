(** Tracker requests and replayable request scripts.

    The service layer ({!Serve}) is driven by timestamped {e requests} —
    the announce/join/leave/scrape/stats vocabulary of a BitTorrent
    tracker — injected either from a {e script} (a JSON file parsed with
    the same discipline as [Plan.of_json]: unknown keys rejected at
    every level, validation errors named) or line by line from a
    stdio frontend ({!of_line}).

    A script fixes the whole world: the peer population and its churn
    process, every swarm (capacity, knowledge degree, tick-level faults,
    optional piece mode), the request schedule and the horizon.  Two
    runs of the same script are byte-identical; that is what the
    serve-suite CI job pins. *)

type kind =
  | Join of { peer : int; swarm : string }
      (** Take a slot in the swarm (error if already a member). *)
  | Leave of { peer : int; swarm : string }
      (** Release the slot (error if not a member). *)
  | Announce of { peer : int; swarm : string; want : int }
      (** Tracker announce: joins implicitly if needed, brings an
          offline peer back online, and returns up to [want] member
          peers — stable-configuration mates first, then uniform
          members. *)
  | Scrape of { swarm : string }  (** Per-swarm aggregate stats. *)
  | Stats  (** Service-wide stats. *)

type t = { at : float; kind : kind }
(** A request stamped with its injection time (simulated seconds). *)

type groups =
  | Halves  (** split the swarm into two equal groups *)
  | Heal  (** remove the partition *)
  | Groups of int array  (** explicit per-slot group labels *)

type partition = { at_tick : int; groups : groups }

type piece_spec = { pieces : int; piece_size : float; init_fraction : float; seeds : int }

type swarm_spec = {
  sid : string;  (** unique swarm id, the name requests use *)
  size : int;  (** slot capacity (the swarm simulates all slots) *)
  d : float;  (** expected knowledge degree *)
  loss : float;  (** per-link per-tick loss in [0, 1) *)
  partitions : partition list;
  piece : piece_spec option;  (** [None] = bandwidth-only mode *)
}

type world_spec = {
  n : int;  (** population size (rank universe of the oracle) *)
  d : float;  (** oracle acceptance degree *)
  b : int;  (** oracle slot budget *)
  churn_rate : float;  (** per-tick probability of one churn event *)
  bands : int;  (** rank bands for the initial stable solve (§11) *)
  swarms : swarm_spec list;
}

type script = {
  name : string;
  seed : int;
  world : world_spec;
  requests : t array;  (** same-time requests fire in array order *)
  horizon : float;
}

val validate : script -> script
(** Check every cross-field constraint — peer ids within the population,
    swarm references resolving, request times within [0, horizon],
    group arrays sized to their swarm, unique swarm ids, … — raising a
    named [Invalid_argument] on the first violation.  Returns the
    script for pipelining. *)

val codec : script Stratify_obs.Codec.t
(** The script's JSON form; decoding also runs {!validate}.  A snapshot
    carries its script through it. *)

val of_json : Stratify_obs.Jsonx.t -> script
(** Parse and {!validate}.  Unknown keys anywhere (top level, world,
    swarm, pieces, partition or request objects, and a request key its
    kind does not take) raise [Jsonx.Parse_error] naming the key and
    its path — a typo cannot silently drop a request. *)

val to_json : script -> Stratify_obs.Jsonx.t
(** Round-trips: [of_json (to_json s) = s] for every valid script. *)

val load : string -> script
(** Read and parse a script file. *)

val of_line : string -> kind
(** Parse one stdio-frontend command:
    ["announce <peer> <swarm> [want]"], ["join <peer> <swarm>"],
    ["leave <peer> <swarm>"], ["scrape <swarm>"] or ["stats"].  A peer
    id and a want are plain decimal digits, as in a script: ["0x5"],
    ["1_0"] and ["-3"] are refused.  Raises [Invalid_argument] naming
    the offending command or field otherwise. *)
