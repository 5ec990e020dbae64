(* Compare run manifests against checked-in baselines — the decision
   logic behind the bench-regression and golden-experiments CI jobs,
   kept in the repo so it is testable and usable locally.

   Usage:
     manifest_check bench  BASELINE.json CANDIDATE.json [--max-slowdown 2.0]
     manifest_check golden GOLDEN.json   CANDIDATE.json [--counters k1,k2,...]
     manifest_check serve  REFERENCE.json CANDIDATE.json
     manifest_check matrix SUMMARY.json  [--cells N]

   `bench` enforces the perf/correctness contract: every "checksum"
   counter of the baseline must match the candidate exactly, and every
   throughput metric — "replicas_per_sec/<jobs>" or any "rate/..." —
   may not be more than --max-slowdown times slower (faster is always
   fine — baselines only ratchet by being regenerated and committed).

   `golden` enforces determinism end to end: the named counters (default:
   all counters recorded in the golden manifest) must match exactly, as
   must name, seed and scale.  Timings are ignored — they are the
   machine's business, not the algorithm's.

   `serve` enforces the service layer's replay contract: both manifests
   must be kind:"serve" (written by `stratify_serve` / `Serve.manifest`,
   pure functions of the request script), and they must agree exactly —
   name, seed, scale, every counter (including the response checksum)
   in both directions, and every metric bit for bit.  This is what the
   serve-suite CI job runs on its double-run and stop/resume pairs.

   `matrix` validates an aggregated matrix-summary.json: the schema must
   parse, the recorded cardinality must equal the generator's compiled-in
   cardinality, the cell count must equal the cardinality (a merged full
   run left nothing behind — override the expected count with --cells N
   for deliberately partial runs), cell names must be unique and agree
   with their recorded axes, and per-cell seeds must match the
   generator's name-keyed derivation from the matrix seed.

   Exit 0 when every check passes and 1 when one fails.  A usage error,
   a flag outside its mode or its range (--max-slowdown must be finite
   and >= 1, --cells a positive integer), or a file that cannot be read
   or parsed exits 2 with `manifest_check: FLAG-OR-PATH: MESSAGE`. *)

module M = Stratify_obs.Run_manifest
module Arg_file = Stratify_cli.Arg_file

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n" s)
    fmt

let ok fmt = Printf.ksprintf (fun s -> Printf.printf "  ok %s\n" s) fmt

let check_bench ~max_slowdown baseline candidate =
  List.iter
    (fun (name, expected) ->
      if String.length name >= 8 && String.sub name 0 8 = "checksum" || name = "bench.checksum"
      then
        match M.counter candidate name with
        | Some got when got = expected -> ok "counter %s = %d" name got
        | Some got -> fail "counter %s: baseline %d, candidate %d" name expected got
        | None -> fail "counter %s missing from candidate" name)
    baseline.M.counters;
  List.iter
    (fun (name, base_rate) ->
      let is_rate =
        (String.length name >= 16 && String.sub name 0 16 = "replicas_per_sec")
        || (String.length name >= 5 && String.sub name 0 5 = "rate/")
      in
      if is_rate then
        match M.metric candidate name with
        | None -> fail "metric %s missing from candidate" name
        | Some rate when rate *. max_slowdown < base_rate ->
            fail "metric %s: %.2f is over %.1fx slower than baseline %.2f" name rate max_slowdown
              base_rate
        | Some rate -> ok "metric %s: %.2f vs baseline %.2f" name rate base_rate;
      (* "speedup/..." metrics are dimensionless ratios of two rates
         measured in the same run (e.g. the matching core's sweep rate
         over its pre-rewrite replica's in bench.core), so machine noise
         largely cancels and they get a much tighter band than raw
         rates: the candidate may not fall below baseline/1.25.  Like
         rates, they only ratchet up by regenerating the baseline. *)
      let speedup_tolerance = 1.25 in
      if String.length name >= 8 && String.sub name 0 8 = "speedup/" then
        match M.metric candidate name with
        | None -> fail "metric %s missing from candidate" name
        | Some s when s *. speedup_tolerance < base_rate ->
            fail "metric %s: %.2fx is below baseline %.2fx (tolerance /%.2f)" name s base_rate
              speedup_tolerance
        | Some s -> ok "metric %s: %.2fx vs baseline %.2fx" name s base_rate)
    baseline.M.metrics;
  (* Profile rows, when the baseline has them: per-kernel wall time per
     op may not regress past --max-slowdown, and a kernel the baseline
     records as allocation-free (the zero-alloc discipline, DESIGN.md
     §13) must stay allocation-free — minor words per op is a ratchet,
     not a tolerance. *)
  let zero_alloc_limit = 0.5 (* minor words per op that still counts as "zero" *) in
  List.iter
    (fun (b : Stratify_obs.Profile.entry) ->
      match M.profile_row candidate b.kernel with
      | None -> fail "profile kernel %s missing from candidate" b.kernel
      | Some c ->
          if b.ops > 0 && c.ops > 0 then begin
            let base_per_op = b.wall_s /. float_of_int b.ops
            and cand_per_op = c.wall_s /. float_of_int c.ops in
            if base_per_op > 0. && cand_per_op > base_per_op *. max_slowdown then
              fail "profile %s: %.3e s/op is over %.1fx slower than baseline %.3e" b.kernel
                cand_per_op max_slowdown base_per_op
            else ok "profile %s: %.3e s/op vs baseline %.3e" b.kernel cand_per_op base_per_op;
            let base_alloc = b.minor_words /. float_of_int b.ops
            and cand_alloc = c.minor_words /. float_of_int c.ops in
            if base_alloc <= zero_alloc_limit && cand_alloc > zero_alloc_limit then
              fail "profile %s: %.2f minor words/op, baseline is allocation-free (%.2f)"
                b.kernel cand_alloc base_alloc
            else ok "profile %s: %.2f minor words/op" b.kernel cand_alloc
          end)
    baseline.M.profile

let check_golden ~counters golden candidate =
  if golden.M.name <> candidate.M.name then
    fail "experiment name: golden %s, candidate %s" golden.M.name candidate.M.name;
  if golden.M.seed <> candidate.M.seed then
    fail "seed: golden %d, candidate %d" golden.M.seed candidate.M.seed;
  if golden.M.scale <> candidate.M.scale then
    fail "scale: golden %g, candidate %g" golden.M.scale candidate.M.scale;
  let keys =
    match counters with Some ks -> ks | None -> List.map fst golden.M.counters
  in
  List.iter
    (fun key ->
      match (M.counter golden key, M.counter candidate key) with
      | Some g, Some c when g = c -> ok "counter %s = %d" key g
      | Some g, Some c -> fail "counter %s: golden %d, candidate %d" key g c
      | Some _, None -> fail "counter %s missing from candidate" key
      | None, _ -> fail "counter %s missing from golden" key)
    keys

(* Two serve manifests of the same script must be indistinguishable: the
   layer's whole claim is that a run is a pure function of its script,
   so replay divergence anywhere — a counter present on one side only,
   a metric off in the last bit — is a determinism bug, never noise. *)
let check_serve reference candidate =
  if reference.M.kind <> "serve" then
    fail "reference kind %S, expected \"serve\"" reference.M.kind;
  if candidate.M.kind <> "serve" then fail "candidate kind %S, expected \"serve\"" candidate.M.kind;
  if reference.M.name <> candidate.M.name then
    fail "script name: reference %s, candidate %s" reference.M.name candidate.M.name;
  if reference.M.seed <> candidate.M.seed then
    fail "seed: reference %d, candidate %d" reference.M.seed candidate.M.seed;
  if reference.M.scale <> candidate.M.scale then
    fail "scale: reference %g, candidate %g" reference.M.scale candidate.M.scale;
  List.iter
    (fun (key, r) ->
      match M.counter candidate key with
      | Some c when c = r -> ok "counter %s = %d" key r
      | Some c -> fail "counter %s: reference %d, candidate %d" key r c
      | None -> fail "counter %s missing from candidate" key)
    reference.M.counters;
  List.iter
    (fun (key, _) ->
      if M.counter reference key = None then fail "counter %s missing from reference" key)
    candidate.M.counters;
  List.iter
    (fun (key, r) ->
      match M.metric candidate key with
      | Some c when Int64.bits_of_float c = Int64.bits_of_float r -> ok "metric %s = %g" key r
      | Some c -> fail "metric %s: reference %g, candidate %g" key r c
      | None -> fail "metric %s missing from candidate" key)
    reference.M.metrics;
  List.iter
    (fun (key, _) ->
      if M.metric reference key = None then fail "metric %s missing from reference" key)
    candidate.M.metrics

module Matrix = Stratify_net_plan.Matrix
module Report = Stratify_cli.Matrix_report

let check_matrix ~expected_cells summary =
  let cells = summary.Report.cells in
  if summary.Report.cardinality <> Matrix.cardinality then
    fail "cardinality: summary records %d, generator produces %d" summary.Report.cardinality
      Matrix.cardinality
  else ok "cardinality %d matches the generator" Matrix.cardinality;
  let expected = match expected_cells with Some n -> n | None -> Matrix.cardinality in
  let count = List.length cells in
  if count <> expected then fail "cell count: %d, expected %d" count expected
  else ok "cell count %d" count;
  (* Report.of_json already rejects duplicate names; re-derive the axis
     name and seed per cell so a hand-edited summary cannot drift. *)
  List.iter
    (fun c ->
      let from_axes =
        List.map
          (fun k -> match List.assoc_opt k c.Report.axes with Some v -> v | None -> "?")
          [ "workload"; "backend"; "scheduler"; "size"; "fault" ]
      in
      let derived = String.concat "-" from_axes in
      if derived <> c.Report.name then
        fail "cell %s: axes spell %S" c.Report.name derived;
      let seed = Matrix.cell_seed ~matrix_seed:summary.Report.matrix_seed ~name:c.Report.name in
      if seed <> c.Report.seed then
        fail "cell %s: seed %d, generator derives %d" c.Report.name c.Report.seed seed)
    cells;
  ok "%d cell(s) named and seeded consistently" count

let usage () =
  prerr_endline
    "usage: manifest_check bench BASELINE CANDIDATE [--max-slowdown X]\n\
    \       manifest_check golden GOLDEN CANDIDATE [--counters k1,k2,...]\n\
    \       manifest_check serve REFERENCE CANDIDATE\n\
    \       manifest_check matrix SUMMARY [--cells N]";
  exit 2

let bad_flag flag msg = Arg_file.fail ~binary:"manifest_check" flag msg
let read path reader = Arg_file.with_arg_file ~binary:"manifest_check" path reader

(* Flags are parsed and checked before any file is read: a bad value
   exits 2 naming the flag, never as an uncaught exception or a silently
   disabled check. *)
let max_slowdown = function
  | None -> 2.0
  | Some s -> (
      match float_of_string_opt s with
      | Some x when Float.is_finite x && x >= 1. -> x
      | _ -> bad_flag "--max-slowdown" (Printf.sprintf "expected a finite number >= 1, got %S" s))

let expected_cells = function
  | None -> None
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> Some n
      | _ -> bad_flag "--cells" (Printf.sprintf "expected a positive integer, got %S" s))

let () =
  (* Flags may appear anywhere after the mode: split them out first. *)
  let rec split_flags = function
    | [] -> ([], [])
    | k :: v :: rest when String.length k >= 2 && String.sub k 0 2 = "--" ->
        let flags, pos = split_flags rest in
        ((k, v) :: flags, pos)
    | k :: [] when String.length k >= 2 && String.sub k 0 2 = "--" -> usage ()
    | p :: rest ->
        let flags, pos = split_flags rest in
        (flags, p :: pos)
  in
  let mode, flags, positional =
    match Array.to_list Sys.argv with
    | _ :: mode :: rest ->
        let flags, positional = split_flags rest in
        (mode, flags, positional)
    | _ -> usage ()
  in
  let known =
    match mode with
    | "bench" -> [ "--max-slowdown" ]
    | "golden" -> [ "--counters" ]
    | "serve" -> []
    | "matrix" -> [ "--cells" ]
    | _ -> usage ()
  in
  List.iter
    (fun (k, _) -> if not (List.mem k known) then bad_flag k ("not a flag of mode " ^ mode))
    flags;
  let opt key = List.assoc_opt key flags in
  (match (mode, positional) with
  | "matrix", [ path ] ->
      let expected_cells = expected_cells (opt "--cells") in
      let summary = read path Report.read in
      Printf.printf "matrix: %s\n" path;
      check_matrix ~expected_cells summary
  | ("bench" | "golden" | "serve"), [ base_path; cand_path ] -> (
      let max_slowdown = max_slowdown (opt "--max-slowdown") in
      let counters = Option.map (String.split_on_char ',') (opt "--counters") in
      let baseline = read base_path M.read and candidate = read cand_path M.read in
      Printf.printf "%s: %s vs %s\n" mode base_path cand_path;
      match mode with
      | "bench" -> check_bench ~max_slowdown baseline candidate
      | "golden" -> check_golden ~counters baseline candidate
      | _ -> check_serve baseline candidate)
  | _ -> usage ());
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
  else print_endline "all checks passed"
