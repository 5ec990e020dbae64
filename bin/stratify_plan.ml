(* Run declarative fault-injection scenarios (see lib/net/plan.mli).

   Usage:
     stratify_plan [--out DIR] PLAN.plan [PLAN.plan ...]

   Each plan is executed, its assertion checks printed, and its run
   manifest written to DIR (default results/manifests/plans) as
   <name>-<seed>.json.  Exit status 0 iff every assertion of every plan
   held.  Manifests are deterministic: two same-seed invocations of the
   same binary produce byte-identical files, which the matrix-aggregate
   CI job pins with a double-run diff.

   Bad input — an unknown or incomplete flag, a plan that cannot be
   read, parsed or validated, an unwritable --out — prints
   "stratify_plan: FLAG-OR-PATH: MESSAGE" and exits 2, never an
   uncaught exception. *)

module Plan = Stratify_net_plan.Plan
module Manifest = Stratify_obs.Run_manifest
module Arg_file = Stratify_cli.Arg_file

let fail what msg = Arg_file.fail ~binary:"stratify_plan" what msg
let with_arg_file path f = Arg_file.with_arg_file ~binary:"stratify_plan" path f

let () =
  let out = ref "results/manifests/plans" in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--out" :: dir :: rest ->
        out := dir;
        parse rest
    | [ "--out" ] -> fail "--out" "missing argument"
    | flag :: _ when String.starts_with ~prefix:"--" flag -> fail flag "unknown flag"
    | p :: rest ->
        paths := p :: !paths;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let paths = List.rev !paths in
  if paths = [] then begin
    prerr_endline "usage: stratify_plan [--out DIR] PLAN.plan [PLAN.plan ...]";
    exit 2
  end;
  let failed = ref 0 in
  List.iter
    (fun path ->
      let plan, result =
        with_arg_file path (fun path ->
            let plan = Plan.load path in
            (plan, Plan.run plan))
      in
      Printf.printf "%s (%s, seed %d): %s\n" plan.Plan.name path plan.Plan.seed
        (if result.Plan.passed then "PASS" else "FAIL");
      List.iter
        (fun c ->
          Printf.printf "  %s %s: %s\n"
            (if c.Plan.ok then "ok  " else "FAIL")
            c.Plan.label c.Plan.detail)
        result.Plan.checks;
      let written = with_arg_file !out (fun dir -> Manifest.write ~dir result.Plan.manifest) in
      Printf.printf "  manifest %s\n" written;
      if not result.Plan.passed then incr failed)
    paths;
  if !failed > 0 then begin
    Printf.printf "%d plan(s) failed\n" !failed;
    exit 1
  end
