(* End-to-end smoke tests: every registered experiment must run to
   completion at a tiny scale (output goes to Alcotest's capture), and the
   CSV export path must produce files.  This keeps the whole regeneration
   harness from bitrotting. *)

module E = Stratify_cli.Experiments

let tiny =
  {
    E.seed = 7;
    scale = 0.05;
    csv_dir = None;
    jobs = 2;
    manifest_dir = None;
    n_override = None;
    scheduler = Stratify_core.Scheduler.Random_poll;
    bands = 1;
    profile_phases = false;
  }

let experiment_cases =
  List.map
    (fun (name, _description, run) ->
      Alcotest.test_case (Printf.sprintf "experiment %s runs" name) `Slow (fun () ->
          run tiny))
    E.all

let test_registry_lookup () =
  Alcotest.(check bool) "fig1 found" true (E.find "fig1" <> None);
  Alcotest.(check bool) "unknown absent" true (E.find "fig99" = None);
  (* Registry names are unique. *)
  let names = List.map (fun (n, _, _) -> n) E.all in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "all figures and the table present" true
    (List.for_all
       (fun required -> List.mem required names)
       [
         "fig1"; "fig2"; "fig3"; "fig4"; "fig5"; "table1"; "fig6"; "fig7"; "fig8"; "fig9";
         "fig10"; "fig11";
       ])

let test_context_validation () =
  let expect what ctx fragment =
    match E.validate_context ctx with
    | exception Invalid_argument msg ->
        if not (Helpers.contains msg fragment) then
          Alcotest.failf "%s: error %S does not mention %S" what msg fragment
    | () -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  expect "n = 0" { tiny with E.n_override = Some 0 } "n must be >= 1";
  expect "negative n" { tiny with E.n_override = Some (-5) } "-5";
  expect "zero scale" { tiny with E.scale = 0. } "scale";
  expect "jobs = 0" { tiny with E.jobs = 0 } "jobs";
  expect "bands = 0" { tiny with E.bands = 0 } "bands";
  expect "bands > n" { tiny with E.n_override = Some 100; bands = 101 } "101 bands";
  (* The boundary case is accepted. *)
  E.validate_context { tiny with E.n_override = Some 100; bands = 100 }

let test_csv_export () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "stratify_test_csv" in
  (match E.find "fig7" with
  | Some run -> run { tiny with E.csv_dir = Some dir; jobs = 1 }
  | None -> Alcotest.fail "fig7 missing");
  let path = Filename.concat dir "fig7.csv" in
  Alcotest.(check bool) "csv written" true (Sys.file_exists path);
  let ic = open_in path in
  let header = input_line ic in
  close_in ic;
  Alcotest.(check bool) "has header" true (String.length header > 0);
  Sys.remove path

(* Run [f] with stdout sent to [path]. *)
let with_stdout_to path f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Digest of a figure's report, minus its "wrote <path>" notes, plus its
   CSV when it writes one (fig4 does not): everything the figure
   outputs, byte for byte. *)
let output_digest name ctx =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) ("stratify_digest_" ^ name) in
  let out = dir ^ ".out" in
  (match E.find name with
  | Some run -> with_stdout_to out (fun () -> run { ctx with E.csv_dir = Some dir })
  | None -> Alcotest.failf "%s missing" name);
  let wrote l = String.length l >= 10 && String.sub l 0 10 = "  . wrote " in
  let report =
    String.split_on_char '\n' (read_file out)
    |> List.filter (fun l -> not (wrote l))
    |> String.concat "\n"
  in
  let csv_path = Filename.concat dir (name ^ ".csv") in
  let csv =
    if Sys.file_exists csv_path then begin
      let csv = read_file csv_path in
      Sys.remove csv_path;
      csv
    end
    else ""
  in
  Sys.remove out;
  Digest.to_hex (Digest.string (report ^ "\000" ^ csv))

(* fig3, fig9 and table1 outputs at seed 7, scale 0.05, and fig4 at
   n = 20000: a rewrite of their drivers must leave every byte in place.
   The banded solves must too — table1 and fig4 print the same bytes
   for every band count. *)
let pinned_digests =
  let fig4 = { tiny with E.n_override = Some 20_000 } in
  [
    ("fig3", "", tiny, "df866fd2bc79926d68bdf2a87084a3f5");
    ("fig9", "", tiny, "83aa68c62d62d982ce676ea45385c170");
    ("table1", "", tiny, "80547dfe973542ae3404f5f3a6663363");
    ("table1", " (four bands)", { tiny with E.bands = 4 }, "80547dfe973542ae3404f5f3a6663363");
    ("fig4", " (one band)", fig4, "4f2cbd1ee87c6f1a78c1f68547915a62");
    ("fig4", " (eight bands)", { fig4 with E.bands = 8 }, "4f2cbd1ee87c6f1a78c1f68547915a62");
  ]

let digest_cases =
  List.map
    (fun (name, variant, ctx, expected) ->
      Alcotest.test_case (Printf.sprintf "experiment %s output pinned%s" name variant) `Slow
        (fun () ->
          Alcotest.(check string) (name ^ " report + csv digest") expected (output_digest name ctx)))
    pinned_digests

(* At scale 0.0002 fig9 has one peer, who never finds a mate: a choice
   that no replica fills reports a simulated mean rank of 0, as the
   estimate does, not NaN. *)
let test_fig9_unfilled_choice () =
  let out = Filename.concat (Filename.get_temp_dir_name ()) "stratify_fig9_unfilled.out" in
  (match E.find "fig9" with
  | Some run -> with_stdout_to out (fun () -> run { tiny with E.scale = 0.0002; jobs = 1 })
  | None -> Alcotest.fail "fig9 missing");
  let report = read_file out in
  Sys.remove out;
  Alcotest.(check bool) "no nan" false (Helpers.contains report "nan");
  Alcotest.(check bool) "mean rank 0" true (Helpers.contains report "mean rank sim 0 / est 0")

let suite =
  Alcotest.test_case "registry lookup" `Quick test_registry_lookup
  :: Alcotest.test_case "context validation" `Quick test_context_validation
  :: Alcotest.test_case "csv export" `Quick test_csv_export
  :: (experiment_cases @ digest_cases
     @ [ Alcotest.test_case "fig9 unfilled choice prints no nan" `Quick test_fig9_unfilled_choice ])
