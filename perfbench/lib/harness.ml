(* The run drivers every workload shares.

   A workload is a [spec]: how to run one iteration (untraced, or with
   the library's own observability on), what every iteration measured in
   a common shape, the workload's own end-to-end numbers and its layer
   rows.  [untraced] and [traced] turn a spec into a run outcome.

   Untraced runs repeat the workload while the next iteration still fits
   in [seconds].  Other tenants of the host change its speed, and a slow
   stretch can cover a whole run, where no statistic of the run's own
   times removes it.  So each iteration is split into aligned segments
   (the ticks of a script, the cells of a matrix, the figures of a pass),
   each timed between two [Timing.probe]s, and the timed end-to-end
   metrics are in reference seconds ([Timing.at_ref]): [wall_ref_s] sums
   over segments the median over iterations of each segment's reference
   time (see [Timing.segment_sum]).  [setup_s] is the median set-up
   sample, each timed between two probes, in reference seconds too.  The
   plain [wall_s] (each segment's fastest, summed) is printed beside the
   metrics.

   Traced runs make an untraced pass, a traced pass and a second
   untraced pass: timed rows come from the faster untraced pass, counters
   from the traced one, and [trace_overhead_s] is the traced wall minus
   that untraced wall. *)

type size = Full | Tiny

type config = {
  seed : int;
  seconds : float;
  traced : bool;
  size : size;
  tmp : string;  (** scratch directory, created and emptied by the run *)
  git : string;  (** stamped into matrix manifests instead of forking git per cell *)
  baseline : string;  (** the matrix baseline checked at seed 42 *)
}

(* What one iteration measured, in the shape the drivers read. *)
type measured = {
  setup_s : float list;  (** set-up samples taken in this iteration *)
  segments : float array;  (** aligned across iterations; they sum to [wall_s] *)
  probes : float array;
      (** one [Timing.probe] right before each segment and one after the
          last: segment [i] runs between probes [i] and [i + 1] *)
  wall_s : float;  (** plain seconds, probes excluded *)
  attempted : int;
  failed : int;  (** operations that raised or failed their output oracle *)
}

type layers = {
  rows : (string * float) list;
  busy_s : float;  (** the part of the plain pass's wall the timed rows cover *)
  untraced_work_s : float;
      (** work the traced pass does beyond observability (git forks),
          taken out of [trace_overhead_s] *)
}

type 'it spec = {
  check : string;  (** what the output oracle asserts, for the report *)
  iterate : traced:bool -> 'it;
  measured : 'it -> measured;
  end_to_end : wall_s:float -> 'it list -> (float * float) * string list;
      (** [op_p50_ref_ms], [op_tail_ref_ms] and the workload's named metric
          lines; [wall_s] is [wall_ref_s] *)
  layers : plain:'it -> traced:'it -> layers;
  notes : string list;  (** printed with a traced run *)
}

(* Each iteration starts from a compacted heap, so one iteration's
   garbage is not collected on the next one's clock. *)
let fresh f =
  Gc.compact ();
  f ()

(* Iterate [f] at least once, then while the last iteration's duration
   still fits in the budget. *)
let repeat ~seconds f =
  let t0 = Timing.now_ns () in
  let rec go acc last =
    if acc <> [] && Timing.seconds_since t0 +. last > seconds then List.rev acc
    else
      let r, dt = Timing.time (fun () -> fresh f) in
      go (r :: acc) dt
  in
  go [] 0.

let spread xs =
  Printf.sprintf "%d samples, median %.6f min %.6f max %.6f" (List.length xs) (Timing.median xs)
    (Timing.fastest xs)
    (List.fold_left Float.max Float.neg_infinity xs)

let line workload name value unit_ extra =
  Printf.sprintf "metric %-12s %-24s %16.6f %-5s %s" workload name value unit_ extra

let pct_line workload name (p : Timing.pct) ~scale unit_ =
  line workload name (p.Timing.value *. scale) unit_ (Printf.sprintf "n=%d" p.Timing.count)

let check_line what ok = Printf.sprintf "check %-40s %s" what (if ok then "ok" else "FAILED")

(* Seconds that [n] [git describe] forks take.  A traced pass that writes
   run manifests makes one per manifest and an untraced pass none, so the
   forks get a row of their own and are kept out of the tracing overhead. *)
let git_forks_s n =
  let once () = snd (Timing.time (fun () -> ignore (Stratify_obs.Run_manifest.git_describe ()))) in
  float_of_int n *. Timing.median (List.init 5 (fun _ -> once ()))

let tally ms =
  List.fold_left (fun (a, f) m -> (a + m.attempted, f + m.failed)) (0, 0) ms

let untraced ~name ~seconds spec =
  let iters = repeat ~seconds (fun () -> spec.iterate ~traced:false) in
  let ms = List.map spec.measured iters in
  let attempted, failed = tally ms in
  let setups = List.concat_map (fun m -> m.setup_s) ms in
  let setup_s = Timing.median setups in
  let ref_segments m =
    if Array.length m.probes <> Array.length m.segments + 1 then
      invalid_arg (name ^ ": one probe per segment boundary expected");
    Array.mapi (fun i s -> Timing.at_ref ~probe:(Timing.bracket m.probes i) s) m.segments
  in
  let wall_ref_s = Timing.segment_sum Timing.median (List.map ref_segments ms) in
  let wall_s = Timing.segment_sum Timing.fastest (List.map (fun m -> m.segments) ms) in
  let probes = List.concat_map (fun m -> Array.to_list m.probes) ms in
  let (p50, tail), lines = spec.end_to_end ~wall_s:wall_ref_s iters in
  {
    Metrics.correct = failed = 0;
    attempted;
    failed;
    values =
      [ ("setup_s", setup_s); ("wall_ref_s", wall_ref_s); ("op_p50_ref_ms", p50); ("op_tail_ref_ms", tail) ];
    report =
      [
        check_line spec.check (failed = 0);
        line name "setup_s" setup_s "s" ("reference seconds, median of " ^ spread setups);
        line name "wall_ref_s" wall_ref_s "s" "median of each segment in reference seconds, summed";
        line name "wall_s" wall_s "s"
          ("plain seconds, fastest of each segment, summed; whole iterations "
          ^ spread (List.map (fun m -> m.wall_s) ms));
        line name "probe_s" (Timing.median probes) "s"
          (Printf.sprintf "host probe, reference %g; %s" Timing.probe_ref_s (spread probes));
      ]
      @ lines
      @ [
          line name "fail_ratio"
            (float_of_int failed /. float_of_int (max 1 attempted))
            "ratio"
            (Printf.sprintf "failed=%d attempted=%d" failed attempted);
        ];
  }

let traced spec =
  let plain1 = fresh (fun () -> spec.iterate ~traced:false) in
  let traced = fresh (fun () -> spec.iterate ~traced:true) in
  let plain2 = fresh (fun () -> spec.iterate ~traced:false) in
  let wall it = (spec.measured it).wall_s in
  let plain = if wall plain1 <= wall plain2 then plain1 else plain2 in
  let attempted, failed = tally (List.map spec.measured [ plain1; traced; plain2 ]) in
  let l = spec.layers ~plain ~traced in
  {
    Metrics.correct = failed = 0;
    attempted;
    failed;
    values =
      l.rows
      @ [
          ("residual_s", wall plain -. l.busy_s);
          ("trace_overhead_s", wall traced -. l.untraced_work_s -. wall plain);
        ];
    report = check_line (spec.check ^ " (all passes)") (failed = 0) :: spec.notes;
  }

let run ~name cfg spec =
  if cfg.traced then traced spec else untraced ~name ~seconds:cfg.seconds spec
