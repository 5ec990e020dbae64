module Jsonx = Stratify_obs.Jsonx
module Plan = Stratify_net_plan.Plan
module Matrix = Stratify_net_plan.Matrix

type cell_result = {
  name : string;
  seed : int;
  axes : (string * string) list;
  passed : bool;
  checks : Plan.check list;
  metrics : (string * float) list;
  wall_ms : float;
}

type summary = { matrix_seed : int; cardinality : int; cells : cell_result list }

let cell_of_run ~cell ~result ~wall_ms =
  {
    name = cell.Matrix.name;
    seed = cell.Matrix.seed;
    axes = Matrix.axes cell;
    passed = result.Plan.passed;
    checks = result.Plan.checks;
    metrics = result.Plan.manifest.Stratify_obs.Run_manifest.metrics;
    wall_ms;
  }

let sort_cells cells =
  let sorted = List.sort (fun a b -> compare a.name b.name) cells in
  let rec dup = function
    | a :: (b :: _ as rest) ->
        if a.name = b.name then
          invalid_arg (Printf.sprintf "Matrix_report: duplicate cell %S" a.name)
        else dup rest
    | _ -> ()
  in
  dup sorted;
  sorted

let make ~matrix_seed ~cardinality cells = { matrix_seed; cardinality; cells = sort_cells cells }

(* ---- JSON ----------------------------------------------------------- *)

open struct
  open Stratify_obs.Codec

  let check =
    obj
      (record (fun label ok detail -> { Plan.label; ok; detail })
      |+ req "label" string (fun (c : Plan.check) -> c.label)
      |+ req "ok" bool (fun (c : Plan.check) -> c.ok)
      |+ req "detail" string (fun (c : Plan.check) -> c.detail))

  let cell =
    obj
      (record (fun name seed axes passed checks metrics wall_ms ->
           { name; seed; axes; passed; checks; metrics; wall_ms })
      |+ req "name" string (fun c -> c.name)
      |+ req "seed" int (fun c -> c.seed)
      |+ req "axes" (assoc string) (fun c -> c.axes)
      |+ req "passed" bool (fun c -> c.passed)
      |+ req "checks" (list check) (fun c -> c.checks)
      |+ req "metrics" (assoc float) (fun c -> c.metrics)
      |+ req "wall_ms" float (fun c -> c.wall_ms))

  let summary =
    obj
      (record (fun () matrix_seed cardinality cells -> { matrix_seed; cardinality; cells })
      |+ req "kind" (literal string "matrix-summary") ignore
      |+ req "matrix_seed" int (fun s -> s.matrix_seed)
      |+ req "cardinality" int (fun s -> s.cardinality)
      |+ req "cells" (conv ~dec:sort_cells ~enc:Fun.id (list cell)) (fun s -> s.cells))
end

let to_json = summary.enc
let of_json = Stratify_obs.Codec.decode ~what:"matrix summary" summary
let read path = of_json (Jsonx.of_string (In_channel.with_open_bin path In_channel.input_all))

let write path s =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Out_channel.with_open_bin path (fun oc -> output_string oc (Jsonx.to_string (to_json s) ^ "\n"))

(* ---- shard merging --------------------------------------------------- *)

let merge = function
  | [] -> invalid_arg "Matrix_report.merge: no summaries"
  | first :: rest ->
      List.iter
        (fun s ->
          if s.matrix_seed <> first.matrix_seed then
            invalid_arg "Matrix_report.merge: matrix seeds differ";
          if s.cardinality <> first.cardinality then
            invalid_arg "Matrix_report.merge: cardinalities differ")
        rest;
      make ~matrix_seed:first.matrix_seed ~cardinality:first.cardinality
        (List.concat_map (fun s -> s.cells) (first :: rest))

(* ---- baseline comparison --------------------------------------------- *)

let baseline_of_summary s =
  { s with cells = List.map (fun c -> { c with checks = []; wall_ms = 0. }) s.cells }

let find_cell s name = List.find_opt (fun c -> c.name = name) s.cells

let metric_drift ~old_metrics ~new_metrics =
  let drift = ref [] in
  List.iter
    (fun (k, v_old) ->
      match List.assoc_opt k new_metrics with
      | None -> drift := Printf.sprintf "metric %s disappeared" k :: !drift
      | Some v_new ->
          if v_new <> v_old then
            drift := Printf.sprintf "metric %s: %.17g -> %.17g" k v_old v_new :: !drift)
    old_metrics;
  List.rev !drift

let regressions ~baseline s =
  let header =
    (if baseline.matrix_seed <> s.matrix_seed then
       [ ("<matrix>", Printf.sprintf "matrix seed %d -> %d" baseline.matrix_seed s.matrix_seed) ]
     else [])
    @
    if baseline.cardinality <> s.cardinality then
      [ ("<matrix>", Printf.sprintf "cardinality %d -> %d" baseline.cardinality s.cardinality) ]
    else []
  in
  let per_cell =
    List.concat_map
      (fun b ->
        match find_cell s b.name with
        | None -> [ (b.name, "cell missing from run") ]
        | Some c ->
            let flips =
              if b.passed && not c.passed then [ (b.name, "passed -> failed") ] else []
            in
            let seeds =
              if b.seed <> c.seed then
                [ (b.name, Printf.sprintf "seed %d -> %d" b.seed c.seed) ]
              else []
            in
            let drift =
              if b.seed = c.seed then
                List.map (fun d -> (b.name, d)) (metric_drift ~old_metrics:b.metrics ~new_metrics:c.metrics)
              else []
            in
            flips @ seeds @ drift)
      baseline.cells
  in
  header @ List.sort compare per_cell

(* ---- markdown -------------------------------------------------------- *)

let render_markdown ?baseline s =
  let buf = Buffer.create 8192 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let ran = List.length s.cells in
  let failed = List.length (List.filter (fun c -> not c.passed) s.cells) in
  let wall = List.fold_left (fun acc c -> acc +. c.wall_ms) 0. s.cells in
  let regs = match baseline with None -> [] | Some b -> regressions ~baseline:b s in
  out "# Scenario matrix\n\n";
  out "- matrix seed: `%d`\n" s.matrix_seed;
  out "- cells: %d run / %d generated, %d passed, %d failed\n" ran s.cardinality (ran - failed)
    failed;
  out "- wall: %.1f s total\n" (wall /. 1000.);
  (match baseline with
  | None -> out "- baseline: (none)\n"
  | Some _ ->
      if regs = [] then out "- baseline: no regressions\n"
      else out "- baseline: **%d regression(s)**\n" (List.length regs));
  out "\n";
  if regs <> [] then begin
    out "## Regressions\n\n";
    List.iter (fun (cell, what) -> out "- `%s`: %s\n" cell what) regs;
    out "\n"
  end;
  let reg_cells = List.sort_uniq compare (List.map fst regs) in
  let baseline_col = baseline <> None in
  out "## Cells\n\n";
  if baseline_col then out "| cell | status | checks | wall (ms) | vs baseline |\n|---|---|---|---:|---|\n"
  else out "| cell | status | checks | wall (ms) |\n|---|---|---|---:|\n";
  let status c = if c.passed then "pass" else "**FAIL**" in
  let check_col c =
    let ok = List.length (List.filter (fun k -> k.Plan.ok) c.checks) in
    let total = List.length c.checks in
    if ok = total then Printf.sprintf "%d/%d" ok total
    else
      let first_bad = List.find (fun k -> not k.Plan.ok) c.checks in
      Printf.sprintf "%d/%d (`%s`: %s)" ok total first_bad.Plan.label first_bad.Plan.detail
  in
  List.iter
    (fun c ->
      if baseline_col then begin
        let verdict =
          if List.mem c.name reg_cells then "**regression**"
          else
            match baseline with
            | Some b when find_cell b c.name = None -> "new"
            | _ -> "ok"
        in
        out "| `%s` | %s | %s | %.0f | %s |\n" c.name (status c) (check_col c) c.wall_ms verdict
      end
      else out "| `%s` | %s | %s | %.0f |\n" c.name (status c) (check_col c) c.wall_ms)
    s.cells;
  (* Baseline cells the run never produced show up as skipped rows. *)
  (match baseline with
  | Some b ->
      List.iter
        (fun bc ->
          if find_cell s bc.name = None then
            out "| `%s` | skip | — | — | **missing** |\n" bc.name)
        b.cells
  | None -> ());
  Buffer.contents buf
