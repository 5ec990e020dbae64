(* The metric catalogue and the result line.

   Every run prints the full catalogue of its mode: untraced runs every
   end-to-end metric, traced runs every per-layer metric.  A per-layer
   row that the workload does not exercise reads 0 (e.g. the Matrix/Plan
   rows on serve-mixed).  BENCHMARK.json lists the same names; run.py
   checks the two agree. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_ref_s", "s");
    ("op_p50_ref_ms", "ms");
    ("op_tail_ref_ms", "ms");
  ]

let serve_kinds = [ "announce"; "join"; "leave"; "scrape"; "stats" ]
let swarm_ids = [ "lossy"; "pieces"; "clean" ]
let cell_workloads = [ "async"; "swarm"; "edonkey" ]

let faults =
  [ "clean"; "loss10"; "burst_ge"; "jitter"; "flapping_partition"; "churn_burst"; "class_extinction" ]

let figures = [ "fig1"; "fig3"; "table1"; "fig4"; "fig9" ]

let per_layer =
  List.concat
    [
      [ ("serve.parse_s", "s"); ("serve.create_s", "s") ];
      List.concat_map
        (fun k ->
          let p = "serve.handle." ^ k in
          [ (p ^ ".p50_us", "us"); (p ^ ".p99_us", "us"); (p ^ ".count", "count"); (p ^ ".refused", "count") ])
        serve_kinds;
      [ ("serve.tick.p50_ms", "ms"); ("serve.tick.p95_ms", "ms"); ("serve.tick.count", "count") ];
      [ ("serve.handle.total_s", "s"); ("serve.tick.total_s", "s") ];
      [ ("bittorrent.swarm_create_s", "s") ];
      List.map (fun sid -> ("bittorrent.swarm_step." ^ sid ^ ".p50_ms", "ms")) swarm_ids;
      [ ("core.oracle_solve_s", "s"); ("core.churn_event.p50_us", "us"); ("core.churn_event.p99_us", "us") ];
      [ ("matrix.generate_s", "s") ];
      List.concat_map
        (fun w -> [ ("plan.cell_s." ^ w, "s"); ("plan.cells." ^ w, "count") ])
        cell_workloads;
      List.concat_map (fun f -> [ ("plan.cell_s." ^ f, "s"); ("plan.cells." ^ f, "count") ]) faults;
      List.map
        (fun c -> (c, "count"))
        [
          "net.sent"; "net.delivered"; "net.lost"; "net.duplicated"; "net.reordered";
          "net.partitioned"; "net.tick_drops"; "sched.pops";
        ];
      [ ("net.delivery_ratio", "ratio"); ("plan.async.ns_per_msg", "ns") ];
      [
        ("obs.manifest_encode_s", "s"); ("obs.manifest_write_s", "s"); ("obs.git_describe_s", "s");
        ("cli.report_s", "s");
      ];
      List.map (fun f -> ("fig." ^ f ^ "_s", "s")) figures;
      [
        ("graph.gnp_s", "s"); ("core.instance_build_s", "s"); ("core.greedy_s", "s");
        ("core.sim_trajectory_s", "s"); ("core.churn_run_s", "s"); ("core.shard_s", "s");
        ("core.cluster_s", "s");
      ];
      List.map
        (fun c -> (c, "count"))
        [
          "graph.edges"; "sim.steps"; "sim.active"; "initiative.rewires"; "shard.fixup_pops";
          "greedy.stable_config";
        ];
      [ ("residual_s", "s"); ("trace_overhead_s", "s") ];
    ]

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;  (** by metric name *)
  report : string list;  (** human-readable lines printed before the result *)
}

let json_number name v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg (Printf.sprintf "metric %s is not finite (%g)" name v)

(* The last stdout line: the catalogue for [traced], missing rows as 0. *)
let result_line ~traced o =
  let catalogue = if traced then per_layer else end_to_end in
  let value name =
    match List.assoc_opt name o.values with Some v -> v | None -> 0.
  in
  let metrics =
    List.map
      (fun (name, unit_) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number name (value name)) unit_)
      catalogue
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" o.correct
    o.attempted o.failed (String.concat ", " metrics)
