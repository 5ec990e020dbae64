(* The request-driven service frontend (see lib/serve/serve.mli).

   Script mode:
     stratify_serve [--out DIR] SCRIPT.serve
       run the script to its horizon and write the kind:"serve" run
       manifest to DIR (default results/manifests/serve) as
       <name>-<seed>.json.
     stratify_serve --stop-at T --snapshot SNAP.json SCRIPT.serve
       run to simulated time T, serialize the complete world to
       SNAP.json and exit without a manifest.
     stratify_serve --resume SNAP.json [--out DIR]
       restore the world (the script travels inside the snapshot) and
       run on to the horizon; the manifest is byte-identical to the
       uninterrupted run's, which the serve-suite CI job pins.

   Stdio mode:
     stratify_serve --stdio SCRIPT.serve
       build the world (scripted requests still fire at their times as
       the clock advances) and read commands from stdin:
         announce <peer> <swarm> [want] | join <peer> <swarm>
         leave <peer> <swarm> | scrape <swarm> | stats
         tick [K]          advance K simulated seconds (default 1)
         snapshot PATH     serialize the world
         quit
       Request errors (unknown swarm, peer out of range, bad syntax)
       and a snapshot PATH that cannot be written print "ERR ..." and
       the loop continues.

   Usage errors (an unknown --flag, a missing flag argument) print the
   usage line and exit 2; so does a script or snapshot that cannot be
   read, parsed or restored, after printing
   "stratify_serve: PATH: MESSAGE".  --help prints the usage line and
   exits 0. *)

module Request = Stratify_serve.Request
module Serve = Stratify_serve.Serve
module Manifest = Stratify_obs.Run_manifest
module Arg_file = Stratify_cli.Arg_file

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path s =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  output_string oc s;
  output_char oc '\n';
  close_out oc

let usage_line =
  "usage: stratify_serve [--out DIR] [--stop-at T \
   --snapshot SNAP] [--resume SNAP] [--stdio] [SCRIPT.serve]"

let usage () =
  prerr_endline usage_line;
  exit 2

let with_arg_file path f = Arg_file.with_arg_file ~binary:"stratify_serve" path f

let stdio_loop t =
  let finished = ref false in
  (try
     while not !finished do
       match In_channel.input_line stdin with
       | None -> finished := true
       | Some line -> (
           let words =
             String.split_on_char ' ' (String.trim line)
             |> List.filter (fun w -> w <> "")
           in
           match words with
           | [] -> ()
           | [ "quit" ] | [ "exit" ] -> finished := true
           | "tick" :: rest -> (
               match rest with
               | [] ->
                   Serve.run_to t (Serve.now t +. 1.);
                   Printf.printf "OK tick now %g\n%!" (Serve.now t)
               | [ k ] -> (
                   match int_of_string_opt k with
                   | Some k when k >= 1 ->
                       Serve.run_to t (Serve.now t +. float_of_int k);
                       Printf.printf "OK tick now %g\n%!" (Serve.now t)
                   | _ -> Printf.printf "ERR tick: bad count %S\n%!" k)
               | _ -> Printf.printf "ERR tick: usage: tick [K]\n%!")
           | [ "snapshot"; path ] -> (
               match
                 Arg_file.with_file path (fun path -> write_file path (Serve.snapshot_string t))
               with
               | () -> Printf.printf "OK snapshot %s\n%!" path
               | exception Arg_file.File_error (path, msg) ->
                   Printf.printf "ERR snapshot: %s: %s\n%!" path msg)
           | _ -> (
               try Printf.printf "%s\n%!" (Serve.handle t (Request.of_line line))
               with Invalid_argument msg -> Printf.printf "ERR %s\n%!" msg))
     done
   with Invalid_argument msg ->
     (* an error outside request handling (e.g. the engine) is fatal *)
     Printf.printf "ERR %s\n%!" msg);
  ()

let () =
  let out = ref "results/manifests/serve" in
  let stop_at = ref None in
  let snapshot_path = ref None in
  let resume = ref None in
  let stdio = ref false in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--out" :: dir :: rest ->
        out := dir;
        parse rest
    | "--stop-at" :: time :: rest -> (
        match float_of_string_opt time with
        | Some x when x > 0. && Float.is_finite x ->
            stop_at := Some x;
            parse rest
        | _ ->
            Printf.eprintf "stratify_serve: bad --stop-at time %S\n" time;
            exit 2)
    | "--snapshot" :: path :: rest ->
        snapshot_path := Some path;
        parse rest
    | "--resume" :: path :: rest ->
        resume := Some path;
        parse rest
    | "--stdio" :: rest ->
        stdio := true;
        parse rest
    | ("--help" | "-h") :: _ ->
        print_endline usage_line;
        exit 0
    | ("--out" | "--stop-at" | "--snapshot" | "--resume") :: [] -> usage ()
    | flag :: _ when String.starts_with ~prefix:"--" flag ->
        Printf.eprintf "stratify_serve: %s: unknown flag\n" flag;
        usage ()
    | p :: rest ->
        paths := p :: !paths;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let t =
    match (!resume, List.rev !paths) with
    | Some snap, [] ->
        with_arg_file snap (fun path ->
            Serve.restore_string (In_channel.with_open_bin path In_channel.input_all))
    | None, [ script ] -> with_arg_file script (fun path -> Serve.create (Request.load path))
    | Some _, _ :: _ ->
        prerr_endline "stratify_serve: --resume takes no script (it travels inside the snapshot)";
        exit 2
    | None, _ -> usage ()
  in
  if !stdio then begin
    stdio_loop t;
    exit 0
  end;
  (match (!stop_at, !snapshot_path) with
  | Some _, None | None, Some _ ->
      prerr_endline "stratify_serve: --stop-at and --snapshot go together";
      exit 2
  | _ -> ());
  match !stop_at with
  | Some time ->
      Serve.run_to t time;
      let path = Option.get !snapshot_path in
      with_arg_file path (fun path -> write_file path (Serve.snapshot_string t));
      Printf.printf "%s (seed %d): stopped at %g, snapshot %s\n"
        (Serve.script t).Request.name (Serve.script t).Request.seed time path
  | None ->
      Serve.run_script t;
      let m = Serve.manifest t in
      let written = with_arg_file !out (fun dir -> Manifest.write ~dir m) in
      Printf.printf
        "%s (seed %d): %d requests, %d ticks, checksum %d\n  manifest %s\n"
        (Serve.script t).Request.name (Serve.script t).Request.seed
        (Serve.requests_handled t) (Serve.ticks t) (Serve.checksum t) written
