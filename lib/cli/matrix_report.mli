(** Matrix-run summaries: JSON schema, shard merging, baseline
    comparison and the markdown report.

    A {e summary} ([matrix-summary.json]) is the per-cell outcome of one
    matrix run (or of several merged shards): pass/fail, check details,
    deterministic metrics, and wall time.  The checked-in {e baseline}
    ([results/matrix/baseline.json]) is a summary stripped of wall times
    and check details ({!baseline_of_summary}), so it is byte-stable
    across machines; {!regressions} compares a fresh summary against it
    cell by cell with exact metric equality — the metrics are
    deterministic functions of the plan, so any drift is a real
    behaviour change. *)

module Jsonx := Stratify_obs.Jsonx
module Plan := Stratify_net_plan.Plan
module Matrix := Stratify_net_plan.Matrix

type cell_result = {
  name : string;
  seed : int;
  axes : (string * string) list;
  passed : bool;
  checks : Plan.check list;
  metrics : (string * float) list;  (** deterministic (no wall times) *)
  wall_ms : float;  (** informational only — never compared *)
}

type summary = {
  matrix_seed : int;
  cardinality : int;  (** the generator's full cardinality *)
  cells : cell_result list;  (** sorted by name, unique *)
}

val cell_of_run : cell:Matrix.cell -> result:Plan.result -> wall_ms:float -> cell_result

val make : matrix_seed:int -> cardinality:int -> cell_result list -> summary
(** Sorts by cell name; raises [Invalid_argument] on duplicate names. *)

val to_json : summary -> Jsonx.t
val of_json : Jsonx.t -> summary
(** Raises {!Jsonx.Parse_error} on schema mismatch (wrong ["kind"],
    missing or unknown fields). *)

val read : string -> summary
val write : string -> summary -> unit

val merge : summary list -> summary
(** Merge shard summaries: same matrix seed and cardinality required,
    cell names must not collide.  Raises [Invalid_argument] otherwise
    (or on the empty list). *)

val baseline_of_summary : summary -> summary
(** Strip wall times and check details, keeping name/seed/axes/passed/
    metrics — the byte-stable form checked in as the baseline. *)

val regressions : baseline:summary -> summary -> (string * string) list
(** [(cell, what)] pairs, sorted by cell name: baseline cells missing
    from the summary, pass→fail flips, seed changes, and exact metric
    drift.  Cells absent from the baseline are {e not} regressions (they
    are reported as "new" in the markdown).  A matrix-seed or
    cardinality mismatch is itself a regression (under cell ["<matrix>"]). *)

val render_markdown : ?baseline:summary -> summary -> string
(** One table row per cell (status, checks, wall time, baseline
    verdict), preceded by a totals header.  With [baseline], rows gain a
    regression column and baseline-only cells appear as skipped. *)
