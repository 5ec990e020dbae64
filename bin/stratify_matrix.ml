(* Run the generated scenario matrix (see lib/net/matrix.mli).

   Usage:
     stratify_matrix [--seed N] [--filter SUB] [--shard K/M] [--jobs J]
                     [--queue BACKEND] [--out DIR] [--summary FILE]
                     [--baseline FILE] [--report FILE] [--write-baseline FILE]
     stratify_matrix --list [--seed N] [--filter SUB] [--shard K/M]
     stratify_matrix --merge OUT.json SHARD.json [SHARD.json ...]
                     [--baseline FILE] [--report FILE] [--write-baseline FILE]

   The default mode expands the matrix, selects cells (--filter substring
   match, then --shard K/M round-robin), runs them in parallel on the
   Exec domain pool, writes one kind:"matrix" manifest per cell to --out
   (default results/manifests/matrix) plus a matrix-summary.json, and —
   when --baseline is given — compares cell outcomes and metrics against
   the checked-in baseline.  Cell manifests are deterministic: two
   same-seed runs of the same binary produce byte-identical files for any
   --jobs value.

   --list prints the selected cells without running anything.  --merge
   combines shard summaries (same matrix seed required) into one, for the
   CI aggregation step.

   --queue selects the DES event-queue backend for every cell run
   (heap | calendar | ladder).  Backends pop in the same total
   (time, seq) order, so cell manifests are byte-identical across
   backends — CI re-runs every shard under each backend and diffs the
   manifest trees.

   Exit status: 0 all selected cells passed and no baseline regression;
   1 otherwise; 2 usage error or bad input.  Bad input — a malformed
   flag value, a summary or baseline that cannot be read or parsed, an
   output that cannot be written — prints
   "stratify_matrix: FLAG-OR-PATH: MESSAGE", never an uncaught
   exception. *)

module Engine = Stratify_des.Engine
module Matrix = Stratify_net_plan.Matrix
module Plan = Stratify_net_plan.Plan
module Report = Stratify_cli.Matrix_report
module Manifest = Stratify_obs.Run_manifest
module Exec = Stratify_exec.Exec
module Arg_file = Stratify_cli.Arg_file

let fail what msg = Arg_file.fail ~binary:"stratify_matrix" what msg
let with_arg_file path f = Arg_file.with_arg_file ~binary:"stratify_matrix" path f

let int_flag ?(positive = false) flag v =
  match int_of_string_opt v with
  | Some n when n >= 1 || not positive -> n
  | _ ->
      let what = if positive then "a positive integer" else "an integer" in
      fail flag (Printf.sprintf "expected %s, got %S" what v)

let usage () =
  prerr_endline
    "usage: stratify_matrix [--seed N] [--filter SUB] [--shard K/M] [--jobs J]\n\
    \                       [--queue BACKEND] [--out DIR] [--summary FILE]\n\
    \                       [--baseline FILE] [--report FILE] [--write-baseline FILE]\n\
    \       stratify_matrix --list [--seed N] [--filter SUB] [--shard K/M]\n\
    \       stratify_matrix --merge OUT.json SHARD.json [SHARD.json ...] [flags]";
  exit 2

let parse_shard s =
  match String.split_on_char '/' s with
  | [ k; m ] -> (
      match (int_of_string_opt k, int_of_string_opt m) with
      | Some k, Some m when m >= 1 && k >= 1 && k <= m -> (k, m)
      | _ ->
          Printf.eprintf "stratify_matrix: bad --shard %S (want K/M with 1 <= K <= M)\n" s;
          exit 2)
  | _ ->
      Printf.eprintf "stratify_matrix: bad --shard %S (want K/M)\n" s;
      exit 2

type opts = {
  mutable seed : int;
  mutable filter : string option;
  mutable shard : (int * int) option;
  mutable jobs : int;
  mutable out : string;
  mutable summary : string option;
  mutable baseline : string option;
  mutable report : string option;
  mutable write_baseline : string option;
  mutable list_only : bool;
  mutable merge_mode : bool;
  mutable positional : string list; (* in order; merge mode: OUT :: SHARDS *)
}

let parse_args () =
  let o =
    {
      seed = 42;
      filter = None;
      shard = None;
      jobs = Exec.default_jobs ();
      out = "results/manifests/matrix";
      summary = None;
      baseline = None;
      report = None;
      write_baseline = None;
      list_only = false;
      merge_mode = false;
      positional = [];
    }
  in
  let rec go = function
    | [] -> ()
    | "--list" :: rest ->
        o.list_only <- true;
        go rest
    | "--seed" :: v :: rest ->
        o.seed <- int_flag "--seed" v;
        go rest
    | "--filter" :: v :: rest ->
        o.filter <- Some v;
        go rest
    | "--shard" :: v :: rest ->
        o.shard <- Some (parse_shard v);
        go rest
    | "--jobs" :: v :: rest ->
        o.jobs <- int_flag ~positive:true "--jobs" v;
        go rest
    | "--queue" :: v :: rest -> (
        match Engine.backend_of_string v with
        | Some b ->
            Engine.set_default_backend b;
            go rest
        | None ->
            Printf.eprintf "stratify_matrix: unknown queue backend %S (heap | calendar | ladder)\n"
              v;
            exit 2)
    | "--out" :: v :: rest ->
        o.out <- v;
        go rest
    | "--summary" :: v :: rest ->
        o.summary <- Some v;
        go rest
    | "--baseline" :: v :: rest ->
        o.baseline <- Some v;
        go rest
    | "--report" :: v :: rest ->
        o.report <- Some v;
        go rest
    | "--write-baseline" :: v :: rest ->
        o.write_baseline <- Some v;
        go rest
    | "--merge" :: rest ->
        o.merge_mode <- true;
        go rest
    | flag :: _ when String.length flag >= 2 && String.sub flag 0 2 = "--" ->
        Printf.eprintf "stratify_matrix: unknown or incomplete flag %s\n" flag;
        usage ()
    | p :: rest ->
        o.positional <- o.positional @ [ p ];
        go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  o

let select o =
  let cells = Matrix.generate ~seed:o.seed in
  let cells = match o.filter with None -> cells | Some sub -> Matrix.filter cells ~substring:sub in
  match o.shard with None -> cells | Some (k, m) -> Matrix.shard cells ~index:k ~of_:m

(* The --baseline summary, read before any cell runs so a bad file fails
   fast.  A missing file is not an error: every cell counts as new. *)
let load_baseline o =
  match o.baseline with
  | None -> None
  | Some path ->
      if Sys.file_exists path then Some (with_arg_file path Report.read)
      else begin
        Printf.printf "baseline %s not found — treating every cell as new\n" path;
        None
      end

(* Render/compare/write the side outputs shared by run and merge modes;
   returns the number of baseline regressions. *)
let finish o ~baseline summary =
  (match o.summary with
  | Some path -> with_arg_file path (fun path -> Report.write path summary)
  | None -> ());
  (match o.write_baseline with
  | Some path ->
      with_arg_file path (fun path -> Report.write path (Report.baseline_of_summary summary))
  | None -> ());
  (match o.report with
  | Some path ->
      let md = Report.render_markdown ?baseline summary in
      if path = "-" then print_string md
      else
        with_arg_file path (fun path ->
            Out_channel.with_open_bin path (fun oc -> output_string oc md))
  | None -> ());
  match baseline with
  | None -> 0
  | Some b ->
      let regs = Report.regressions ~baseline:b summary in
      List.iter (fun (cell, what) -> Printf.printf "REGRESSION %s: %s\n" cell what) regs;
      List.length regs

let () =
  let o = parse_args () in
  let baseline = if o.list_only then None else load_baseline o in
  if o.merge_mode then begin
    match o.positional with
    | out :: (_ :: _ as shards) ->
        let summaries = List.map (fun shard -> with_arg_file shard Report.read) shards in
        let merged = try Report.merge summaries with Invalid_argument msg -> fail "--merge" msg in
        with_arg_file out (fun out -> Report.write out merged);
        Printf.printf "merged %d shard(s): %d cells -> %s\n" (List.length shards)
          (List.length merged.Report.cells) out;
        let regressions = finish o ~baseline merged in
        let failed =
          List.length (List.filter (fun c -> not c.Report.passed) merged.Report.cells)
        in
        if failed > 0 then Printf.printf "%d cell(s) failed\n" failed;
        if failed > 0 || regressions > 0 then exit 1
    | _ ->
        prerr_endline "stratify_matrix: --merge needs OUT.json and at least one shard";
        exit 2
  end
  else begin
    if o.positional <> [] then usage ();
      let cells = select o in
      if o.list_only then begin
        Array.iter
          (fun c -> Printf.printf "%s seed=%d\n" c.Matrix.name c.Matrix.seed)
          cells;
        Printf.printf "%d cell(s) selected of %d generated (checksum %d)\n" (Array.length cells)
          Matrix.cardinality
          (Matrix.checksum cells);
        exit 0
      end;
      (* Resolve the git stamp once — run_pure would otherwise fork a
         subprocess from every worker domain. *)
      let git = Manifest.git_describe () in
      let t0 = Unix.gettimeofday () in
      let results =
        Exec.map_array ~jobs:o.jobs cells (fun cell ->
            let c0 = Unix.gettimeofday () in
            let result = Plan.run_pure ~git cell.Matrix.plan in
            let wall_ms = 1000. *. (Unix.gettimeofday () -. c0) in
            (cell, result, wall_ms))
      in
      let cell_results =
        Array.to_list
          (Array.map
             (fun (cell, result, wall_ms) ->
               ignore (with_arg_file o.out (fun dir -> Manifest.write ~dir result.Plan.manifest));
               Report.cell_of_run ~cell ~result ~wall_ms)
             results)
      in
      let summary =
        Report.make ~matrix_seed:o.seed ~cardinality:Matrix.cardinality cell_results
      in
      let failed = List.filter (fun c -> not c.Report.passed) summary.Report.cells in
      List.iter
        (fun c ->
          Printf.printf "FAIL %s\n" c.Report.name;
          List.iter
            (fun k ->
              if not k.Plan.ok then Printf.printf "  %s: %s\n" k.Plan.label k.Plan.detail)
            c.Report.checks)
        failed;
      Printf.printf "%d/%d cell(s) passed in %.1fs (manifests in %s)\n"
        (List.length summary.Report.cells - List.length failed)
        (List.length summary.Report.cells)
        (Unix.gettimeofday () -. t0)
        o.out;
      let regressions = finish o ~baseline summary in
      if failed <> [] || regressions > 0 then exit 1
  end
