(* The benchmark binary: one workload, one run.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--git DESCRIBE]

   Prints human-readable "check"/"metric"/"note" lines, then, as the last
   line, {"correct", "attempted", "failed", "metrics"}.  Exit status 0
   when every output oracle held, 1 when one failed, 2 on usage errors. *)

module W = Perfbench.Workloads
module H = Perfbench.Harness
module Metrics = Perfbench.Metrics

let usage msg =
  prerr_endline ("bench: " ^ msg);
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--git DESCRIBE]";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let git = ref "unknown" in
  let int_arg flag v = match int_of_string_opt v with Some i -> i | None -> usage ("bad " ^ flag) in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        if not (List.mem v W.names) then usage ("unknown workload " ^ v);
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        seed := Some (int_arg "--seed" v);
        go rest
    | "--seconds" :: v :: rest ->
        seconds := Some (float_of_int (int_arg "--seconds" v));
        go rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := Some false | "1" -> trace := Some true | _ -> usage "bad --trace");
        go rest
    | "--git" :: v :: rest ->
        git := v;
        go rest
    | flag :: _ -> usage ("unknown or incomplete flag " ^ flag)
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some traced ->
      let cfg =
        {
          H.seed;
          seconds;
          traced;
          size = H.Full;
          tmp = ".bench_tmp";
          git = !git;
          baseline = "results/matrix/baseline.json";
        }
      in
      let o = W.run workload cfg in
      List.iter print_endline o.Metrics.report;
      print_endline (Metrics.result_line ~traced o);
      exit (if o.Metrics.correct then 0 else 1)
  | _ -> usage "--workload, --seed, --seconds and --trace are required"
