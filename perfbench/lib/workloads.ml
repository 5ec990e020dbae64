(* The workloads by name.  Each run gets its own scratch directory,
   removed when the run ends. *)

let all =
  [ (Serve_mixed.name, Serve_mixed.run); (Matrix_full.name, Matrix_full.run); (Paper_figs.name, Paper_figs.run) ]

let names = List.map fst all

let run name (cfg : Harness.config) =
  match List.assoc_opt name all with
  | None -> invalid_arg ("unknown workload " ^ name)
  | Some run ->
      Files.fresh_dir cfg.tmp;
      Fun.protect ~finally:(fun () -> Files.remove_tree cfg.tmp) (fun () -> run cfg)
