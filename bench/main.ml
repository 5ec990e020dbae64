(* Benchmark harness: nine gated parts, one run manifest each.

     bench/main.exe [--out DIR] [PART ...]

   runs the named parts (default: all of [parts], in order) and writes
   part [p]'s manifest to DIR/BENCH_p.json.  DIR defaults to ".", so a
   plain run from the repository root re-records the checked-in
   baselines; it is created if missing.  Build with --profile release:
   the dev profile compiles with -opaque, which turns the Obs probes
   into indirect calls and fails bench.net's dispatch budget.

   Each part asserts its own gates in process (a failed gate aborts the
   run) and returns its rows: "checksum.*" counters, which the
   bench-regression CI job pins exactly; metrics, whose "rate/*" and
   "speedup/*" entries ride its ratchet; and per-kernel profile rows.
   A manifest holds only what its part returned, so it does not depend
   on which parts ran before it.  The tables and figures themselves come
   from `stratify_experiments all`. *)

module Rng = Stratify_prng.Rng
module Gen = Stratify_graph.Gen
module Exec = Stratify_exec.Exec
module Obs = Stratify_obs
open Stratify_core

type rows = {
  checksums : (string * int) list;
  metrics : (string * float) list;
  profile : Obs.Profile.entry list;
  jobs : int;
}

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Order-sensitive hash of the collaboration set (pairs p<q in ascending
   order) — the determinism checksum pinned by the bench-regression job.
   Implementation-independent: both representations iterate pairs in the
   same order. *)
let fnv_pairs iter =
  let h = ref 0x811c9dc5 in
  iter (fun p q -> h := ((!h * 16777619) lxor ((p lsl 20) lxor q)) land ((1 lsl 50) - 1));
  !h

(* ------------------------------------------------------------------ *)
(* parallel: multicore replication engine                             *)

(* Fig 9's Monte-Carlo kernel: one G(n,p) instance solved to stability,
   replicated over the domain pool at each job count.  The one part run
   with the library's probes on: its manifest also carries the counters
   the kernel bumps, which are jobs-invariant by construction. *)
let bench_parallel () =
  let n = 500 and p = 0.02 and replicas = 24 in
  let kernel rng _i =
    let inst = Instance.create ~graph:(Gen.gnp rng ~n ~p) ~b:(Array.make n 2) () in
    Config.edge_count (Greedy.stable_config inst)
  in
  let time_once jobs =
    let rng = Rng.create 42 in
    let results, dt = time (fun () -> Exec.map_replicas ~jobs ~rng ~replicas kernel) in
    (float_of_int replicas /. dt, Array.fold_left ( + ) 0 results)
  in
  let job_counts = [ 1; 2; 4; 8 ] in
  Obs.Counter.reset_all ();
  let rows =
    Obs.Control.with_enabled true (fun () ->
        (* Warm up the allocator/code paths once so jobs=1 is not penalised. *)
        ignore (time_once 1);
        List.map
          (fun jobs ->
            let rate, checksum = time_once jobs in
            Printf.printf "  jobs=%d  %8.2f replicas/sec  (checksum %d)\n%!" jobs rate checksum;
            (jobs, rate, checksum))
          job_counts)
  in
  (* All job counts must agree bit-for-bit on the results. *)
  let checksum =
    match rows with
    | (_, _, c0) :: rest ->
        List.iter
          (fun (jobs, _, c) ->
            if c <> c0 then failwith (Printf.sprintf "jobs=%d checksum mismatch" jobs))
          rest;
        c0
    | [] -> 0
  in
  {
    checksums =
      ("bench.checksum", checksum) :: List.filter (fun (_, v) -> v <> 0) (Obs.Counter.dump ());
    metrics =
      [ ("n", float_of_int n); ("p", p); ("replicas", float_of_int replicas) ]
      @ List.map (fun (j, r, _) -> (Printf.sprintf "replicas_per_sec/%d" j, r)) rows;
    profile = [];
    jobs = List.fold_left max 1 job_counts;
  }

(* ------------------------------------------------------------------ *)
(* core: implicit-backend / flat-config matching core                 *)

(* Faithful replica of the pre-rewrite matching core: materialized
   adjacency rows, [int list] mate storage with a cached worst rank,
   List.length degrees, and the same scan/early-stop structure as
   [Blocking].  The ≥5x claim in BENCH_core.json is measured against
   this real old representation, not a straw man. *)
module Legacy = struct
  type config = {
    slots : int array;
    adj : int array array;
    mates : int list array;
    worst : int array;  (* cached last element of mates.(p); -1 when unmated *)
    mutable edges : int;
  }

  let empty ~adj ~slots =
    let n = Array.length adj in
    { slots; adj; mates = Array.make n []; worst = Array.make n (-1); edges = 0 }

  let degree c p = List.length c.mates.(p)
  let free_slots c p = c.slots.(p) - degree c p
  let worst_mate c p = let w = c.worst.(p) in if w < 0 then None else Some w

  let rec mem_sorted q = function
    | [] -> false
    | x :: rest -> x = q || (x < q && mem_sorted q rest)

  let mated c p q = q <= c.worst.(p) && mem_sorted q c.mates.(p)

  let insert_sorted q l =
    let rec go = function
      | [] -> [ q ]
      | x :: rest as all -> if q < x then q :: all else x :: go rest
    in
    go l

  let rec last_or_none = function [] -> -1 | [ x ] -> x | _ :: rest -> last_or_none rest

  (* The pre-rewrite [Instance.accepts]: binary search over the
     materialized row. *)
  let accepts c p q =
    let row = c.adj.(p) in
    let lo = ref 0 and hi = ref (Array.length row - 1) in
    let found = ref false in
    while (not !found) && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let x = row.(mid) in
      if x = q then found := true else if x < q then lo := mid + 1 else hi := mid - 1
    done;
    !found

  (* Validation checks included: the pre-rewrite [Config.connect] paid
     them on every rewire, so the replica must too. *)
  let connect c p q =
    if p = q then invalid_arg "Legacy.connect: self-collaboration";
    if not (accepts c p q) then invalid_arg "Legacy.connect: pair not in the acceptance graph";
    if mated c p q then invalid_arg "Legacy.connect: already mates";
    if free_slots c p <= 0 || free_slots c q <= 0 then invalid_arg "Legacy.connect: no free slot";
    c.mates.(p) <- insert_sorted q c.mates.(p);
    c.mates.(q) <- insert_sorted p c.mates.(q);
    if q > c.worst.(p) then c.worst.(p) <- q;
    if p > c.worst.(q) then c.worst.(q) <- p;
    c.edges <- c.edges + 1

  let disconnect c p q =
    c.mates.(p) <- List.filter (fun x -> x <> q) c.mates.(p);
    c.mates.(q) <- List.filter (fun x -> x <> p) c.mates.(q);
    if c.worst.(p) = q then c.worst.(p) <- last_or_none c.mates.(p);
    if c.worst.(q) = p then c.worst.(q) <- last_or_none c.mates.(q);
    c.edges <- c.edges - 1

  let drop_worst c p =
    match worst_mate c p with None -> () | Some q -> disconnect c p q

  let would_accept c p q =
    if free_slots c p > 0 then c.slots.(p) > 0
    else match worst_mate c p with None -> false | Some w -> q < w

  let best_blocking_mate c p =
    if c.slots.(p) = 0 then None
    else begin
      let row = c.adj.(p) in
      let len = Array.length row in
      let rec scan i =
        if i >= len then None
        else begin
          let q = row.(i) in
          if not (would_accept c p q) then None
          else if (not (mated c p q)) && would_accept c q p then Some q
          else scan (i + 1)
        end
      in
      scan 0
    end

  (* Same scan, counting probes — run untimed so the instrumentation
     does not pollute the legacy rate. *)
  let probe_count c p =
    if c.slots.(p) = 0 then 0
    else begin
      let row = c.adj.(p) in
      let len = Array.length row in
      let rec scan i acc =
        if i >= len then acc
        else begin
          let q = row.(i) in
          let acc = acc + 1 in
          if not (would_accept c p q) then acc
          else if (not (mated c p q)) && would_accept c q p then acc
          else scan (i + 1) acc
        end
      in
      scan 0 0
    end

  let step rng c n =
    let p = Rng.int rng n in
    match best_blocking_mate c p with
    | None -> false
    | Some q ->
        if free_slots c p <= 0 then drop_worst c p;
        if free_slots c q <= 0 then drop_worst c q;
        connect c p q;
        true
end

let bench_core () =
  let n = 10_000 and b0 = 6 in
  let b = Array.make n b0 in
  (* New core: implicit complete acceptance graph, flat-array config. *)
  let inst = Instance.complete ~n ~b () in
  let stable = Greedy.stable_config inst in
  (* Legacy core: materialized n×(n-1) rows (what Gen.complete +
     Instance.build produced), list-based config built to the identical
     stable state. *)
  let legacy_adj = Array.init n (fun p -> Array.init (n - 1) (fun i -> if i < p then i else i + 1)) in
  let legacy_stable = Legacy.empty ~adj:legacy_adj ~slots:b in
  Config.iter_pairs (fun p q -> Legacy.connect legacy_stable p q) stable;
  let cs_stable = fnv_pairs (fun f -> Config.iter_pairs f stable) in
  let cs_legacy =
    fnv_pairs (fun f ->
        Array.iteri (fun p l -> List.iter (fun q -> if p < q then f p q) l) legacy_stable.Legacy.mates)
  in
  if cs_stable <> cs_legacy then failwith "bench.core: stable-config checksum mismatch";

  (* (a) Stability sweep: one best_blocking_mate call per peer on the
     stable configuration — the probe loop that dominates the dynamics
     near convergence (Figs 1-3).  The probe total is deterministic and
     identical for both implementations by construction. *)
  let probes_per_sweep = ref 0 in
  for p = 0 to n - 1 do
    probes_per_sweep := !probes_per_sweep + Legacy.probe_count legacy_stable p
  done;
  let probes_per_sweep = !probes_per_sweep in
  let blocked_legacy, dt_sweep_legacy =
    time (fun () ->
        let hits = ref 0 in
        for p = 0 to n - 1 do
          match Legacy.best_blocking_mate legacy_stable p with
          | Some _ -> incr hits
          | None -> ()
        done;
        !hits)
  in
  let core_reps = 3 in
  let blocked_core, dt_sweep_core =
    time (fun () ->
        let hits = ref 0 in
        for _ = 1 to core_reps do
          for p = 0 to n - 1 do
            if Blocking.best_blocking_mate_int stable p >= 0 then incr hits
          done
        done;
        !hits)
  in
  if blocked_legacy <> 0 || blocked_core <> 0 then
    failwith "bench.core: stable configuration has blocking pairs";
  let rate_sweep_legacy = float_of_int probes_per_sweep /. dt_sweep_legacy in
  let rate_sweep_core = float_of_int (core_reps * probes_per_sweep) /. dt_sweep_core in
  Printf.printf "  probe sweep (n=%d, b0=%d, %d probes):\n" n b0 probes_per_sweep;
  Printf.printf "    legacy list core:    %10.2f Mprobes/s\n" (rate_sweep_legacy /. 1e6);
  Printf.printf "    flat/implicit core:  %10.2f Mprobes/s  (%.1fx)\n%!"
    (rate_sweep_core /. 1e6) (rate_sweep_core /. rate_sweep_legacy);

  (* (b) Best-mate dynamics at stability: the Sim.step loop of Figs 1-3
     in the regime that dominates wall-clock (every step scans, nothing
     rewires).  Identical RNG streams, so both implementations probe the
     same peers. *)
  let t_steps = 2_000 in
  let active_legacy, dt_dyn_legacy =
    time (fun () ->
        let rng = Rng.create 42 in
        let active = ref 0 in
        for _ = 1 to t_steps do
          if Legacy.step rng legacy_stable n then incr active
        done;
        !active)
  in
  let core_step rng c =
    let p = Rng.int rng n in
    let q = Blocking.best_blocking_mate_int c p in
    q >= 0
    && begin
         if Config.free_slots c p <= 0 then ignore (Config.drop_worst_rank c p);
         if Config.free_slots c q <= 0 then ignore (Config.drop_worst_rank c q);
         Config.connect c p q;
         true
       end
  in
  let active_core, dt_dyn_core =
    time (fun () ->
        let rng = Rng.create 42 in
        let active = ref 0 in
        for _ = 1 to t_steps do
          if core_step rng stable then incr active
        done;
        !active)
  in
  if active_legacy <> active_core then failwith "bench.core: dynamics diverged";
  let cs_dyn = fnv_pairs (fun f -> Config.iter_pairs f stable) in
  if cs_dyn <> cs_stable then failwith "bench.core: stable dynamics mutated the configuration";
  let rate_dyn_legacy = float_of_int t_steps /. dt_dyn_legacy in
  let rate_dyn_core = float_of_int t_steps /. dt_dyn_core in
  Printf.printf "  best-mate dynamics at stability (%d steps):\n" t_steps;
  Printf.printf "    legacy list core:    %10.0f steps/s\n" rate_dyn_legacy;
  Printf.printf "    flat/implicit core:  %10.0f steps/s  (%.1fx)\n%!" rate_dyn_core
    (rate_dyn_core /. rate_dyn_legacy);

  (* (c) Fill dynamics from the empty configuration: exercises the
     connect/disconnect shift path, same RNG streams, checksummed. *)
  let fill_steps = 4 * n in
  let cs_fill_legacy, dt_fill_legacy =
    time (fun () ->
        let rng = Rng.create 7 in
        let c = Legacy.empty ~adj:legacy_adj ~slots:b in
        for _ = 1 to fill_steps do
          ignore (Legacy.step rng c n)
        done;
        fnv_pairs (fun f ->
            Array.iteri
              (fun p l -> List.iter (fun q -> if p < q then f p q) l)
              c.Legacy.mates))
  in
  let cs_fill_core, dt_fill_core =
    time (fun () ->
        let rng = Rng.create 7 in
        let c = Config.empty inst in
        for _ = 1 to fill_steps do
          ignore (core_step rng c)
        done;
        fnv_pairs (fun f -> Config.iter_pairs f c))
  in
  if cs_fill_legacy <> cs_fill_core then failwith "bench.core: fill dynamics diverged";
  let rate_fill_legacy = float_of_int fill_steps /. dt_fill_legacy in
  let rate_fill_core = float_of_int fill_steps /. dt_fill_core in
  Printf.printf "  fill dynamics from empty (%d steps):\n" fill_steps;
  Printf.printf "    legacy list core:    %10.0f steps/s\n" rate_fill_legacy;
  Printf.printf "    flat/implicit core:  %10.0f steps/s  (%.1fx)\n%!" rate_fill_core
    (rate_fill_core /. rate_fill_legacy);

  (* (d) Memory demonstration: the fig4/table1 kernel at n=10⁵ on the
     implicit backend, analysed on the flat configuration rows as the
     figures do.  A dense complete acceptance graph would need n(n-1)
     ints ≈ 80 GB; the implicit pipeline's live heap is O(n·b̄). *)
  let n5 = 100_000 in
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words in
  (* Live words only show what survives; the churn through the minor
     heap (and what the GC promoted) is the allocation-pressure story,
     so report those deltas too. *)
  let minor0, promoted0, _ = Gc.counters () in
  let (edges5, clusters5, live5), dt_1e5 =
    time (fun () ->
        let inst5 = Instance.complete ~n:n5 ~b:(Array.make n5 b0) () in
        let cfg5 = Greedy.stable_config inst5 in
        let analysis = Cluster.analyze_config cfg5 in
        Gc.compact ();
        let live = (Gc.stat ()).Gc.live_words in
        (Config.edge_count cfg5, analysis.Cluster.count, live))
  in
  let minor1, promoted1, _ = Gc.counters () in
  let minor_mwords = (minor1 -. minor0) /. 1e6 in
  let promoted_mwords = (promoted1 -. promoted0) /. 1e6 in
  let live_mb = float_of_int ((live5 - live0) * 8) /. 1e6 in
  let dense_mb = float_of_int n5 *. float_of_int (n5 - 1) *. 8. /. 1e6 in
  Printf.printf "  complete-graph pipeline at n=%d (b0=%d): %.2f s\n" n5 b0 dt_1e5;
  Printf.printf "    %d edges, %d clusters\n" edges5 clusters5;
  Printf.printf "    live heap for the pipeline: %.1f MB (dense adjacency would be %.0f MB)\n"
    live_mb dense_mb;
  Printf.printf "    allocation churn: %.1f Mwords minor, %.2f Mwords promoted\n%!" minor_mwords
    promoted_mwords;
  {
    checksums =
      [
        ("checksum.core_stable_config", cs_stable);
        ("checksum.core_sweep_probes", probes_per_sweep);
        ("checksum.core_dyn_stable_active", active_core);
        ("checksum.core_fill_config", cs_fill_core);
        ("checksum.core_complete_1e5_edges", edges5);
        ("checksum.core_complete_1e5_clusters", clusters5);
      ];
    metrics =
      [
        ("n", float_of_int n);
        ("b0", float_of_int b0);
        ("rate/sweep_probes_legacy", rate_sweep_legacy);
        ("rate/sweep_probes_core", rate_sweep_core);
        ("rate/dyn_stable_steps_legacy", rate_dyn_legacy);
        ("rate/dyn_stable_steps_core", rate_dyn_core);
        ("rate/fill_steps_legacy", rate_fill_legacy);
        ("rate/fill_steps_core", rate_fill_core);
        ("speedup/sweep", rate_sweep_core /. rate_sweep_legacy);
        ("speedup/dyn_stable", rate_dyn_core /. rate_dyn_legacy);
        ("speedup/fill", rate_fill_core /. rate_fill_legacy);
        ("mem/complete_1e5_live_mb", live_mb);
        ("mem/complete_1e5_dense_equiv_mb", dense_mb);
        ("mem/complete_1e5_minor_mwords", minor_mwords);
        ("mem/complete_1e5_promoted_mwords", promoted_mwords);
      ];
    profile = [];
    jobs = 1;
  }

(* ------------------------------------------------------------------ *)
(* profile: per-phase profile + the zero-alloc steady-state gate      *)

(* The allocation contract of the rewritten core (DESIGN.md §13),
   asserted: once converged, probing and repairing allocate (next to)
   nothing on the minor heap.  Both windows are RNG-free — the xoshiro
   state boxes int64s, so only the Best_mate sweep and the worklist
   drain can be measured at zero words.  Also runs the instrumented
   build kernels under Stratify_obs.Profile and returns their per-kernel
   wall/GC rows, which the bench-regression job ratchets.  The zero-alloc
   verdicts are pinned as checksums too, so CI fails loudly if a
   regression slips past the local failwith. *)
let bench_profile () =
  let n = 10_000 and b0 = 6 in
  let inst = Instance.complete ~n ~b:(Array.make n b0) () in
  let stable = Greedy.stable_config inst in
  let cs_stable = fnv_pairs (fun f -> Config.iter_pairs f stable) in

  (* (a) Steady-state probe sweep: every peer scans for a blocking mate
     and finds none.  After the warm-up call the measured window must
     stay off the minor heap entirely; the word budget absorbs the
     boxed floats of the measurement itself. *)
  let sweep () =
    let hits = ref 0 in
    for p = 0 to n - 1 do
      if Blocking.best_blocking_mate_int stable p >= 0 then incr hits
    done;
    !hits
  in
  if sweep () <> 0 then failwith "bench.profile: stable configuration has blocking pairs";
  let sweep_reps = 50 in
  let sweep_initiatives = sweep_reps * n in
  let m0 = Gc.minor_words () in
  let (), dt_sweep = time (fun () -> for _ = 1 to sweep_reps do ignore (sweep ()) done) in
  let sweep_minor = Gc.minor_words () -. m0 in
  let sweep_zero_alloc = sweep_minor <= 256. in
  if not sweep_zero_alloc then
    failwith
      (Printf.sprintf "bench.profile: steady-state sweep allocated %.0f minor words over %d \
                       initiatives (expected ~0)"
         sweep_minor sweep_initiatives);
  let rate_sweep = float_of_int sweep_initiatives /. dt_sweep in
  Printf.printf "  steady-state sweep: %d initiatives, %.0f minor words (gate: ~0)\n"
    sweep_initiatives sweep_minor;
  Printf.printf "    %10.0f initiatives/s\n%!" rate_sweep;

  (* (b) Perturb-and-repair: drop the worst mate of every 10th peer,
     then drain the worklist with Best_mate (consumes no randomness)
     back to the unique stable configuration.  The only allocations per
     window are the drain's shared note closure and its result tuple,
     so minor words per performed initiative must stay far below 1. *)
  let sched = Scheduler.create ~n in
  let state = Initiative.create_state inst in
  let rng = Rng.create 0 in
  let perturb () =
    let p = ref 0 in
    while !p < n do
      let q = Config.drop_worst_rank stable !p in
      if q >= 0 then begin
        Scheduler.push sched !p;
        Scheduler.push sched q
      end;
      p := !p + 10
    done
  in
  (* Warm-up: one unmeasured cycle to touch every code path once. *)
  perturb ();
  ignore (Scheduler.drain sched stable state Initiative.Best_mate rng);
  let repair_reps = 20 in
  let total_active = ref 0 in
  let m1 = Gc.minor_words () in
  let (), dt_repair =
    time (fun () ->
        for _ = 1 to repair_reps do
          perturb ();
          let active, _pops = Scheduler.drain sched stable state Initiative.Best_mate rng in
          total_active := !total_active + active
        done)
  in
  let repair_minor = Gc.minor_words () -. m1 in
  let repair_words_per_initiative = repair_minor /. float_of_int (max 1 !total_active) in
  let repair_zero_alloc = repair_words_per_initiative < 1.0 in
  if not repair_zero_alloc then
    failwith
      (Printf.sprintf "bench.profile: repair allocated %.2f minor words per initiative \
                       (expected < 1)"
         repair_words_per_initiative);
  let cs_repaired = fnv_pairs (fun f -> Config.iter_pairs f stable) in
  if cs_repaired <> cs_stable then failwith "bench.profile: repair missed the stable fixed point";
  let rate_repair = float_of_int !total_active /. dt_repair in
  Printf.printf "  perturb+repair: %d initiatives, %.3f minor words/initiative (gate: < 1)\n"
    !total_active repair_words_per_initiative;
  Printf.printf "    %10.0f initiatives/s\n%!" rate_repair;

  (* (c) The instrumented build kernels under Profile: arena-reused
     greedy builds, the cut scan and a banded solve. *)
  Obs.Profile.reset ();
  Obs.Profile.set_enabled true;
  let arena = Greedy.create_arena () in
  let builds = 5 in
  let rebuilt = ref stable in
  for _ = 1 to builds do
    rebuilt := Greedy.stable_config ~arena inst
  done;
  if not (Config.equal !rebuilt stable) then
    failwith "bench.profile: arena-reused build diverged from the fresh build";
  ignore (Shard.cluster_cuts ~arena inst);
  let sharded = Shard.stable_config ~jobs:1 ~bands:8 ~arena inst in
  Obs.Profile.set_enabled false;
  if not (Config.equal sharded stable) then
    failwith "bench.profile: sharded build diverged from the serial build";
  let profile = Obs.Profile.snapshot () in
  Printf.printf "  profiled kernels:\n";
  List.iter
    (fun (r : Obs.Profile.entry) ->
      Printf.printf "    %-18s %8.2f ms  %3d call(s)  %9d ops  %10.0f minor words\n" r.kernel
        (r.wall_s *. 1e3) r.count r.ops r.minor_words)
    profile;
  {
    checksums =
      [
        ("checksum.profile_stable_config", cs_stable);
        ("checksum.profile_sweep_initiatives", sweep_initiatives);
        ("checksum.profile_repair_initiatives", !total_active);
        ("checksum.profile_sweep_zero_alloc", if sweep_zero_alloc then 1 else 0);
        ("checksum.profile_repair_zero_alloc", if repair_zero_alloc then 1 else 0);
      ];
    metrics =
      [
        ("n", float_of_int n);
        ("b0", float_of_int b0);
        ("rate/profile_sweep_initiatives", rate_sweep);
        ("rate/profile_repair_initiatives", rate_repair);
        ("alloc/sweep_minor_words", sweep_minor);
        ("alloc/repair_minor_words_per_initiative", repair_words_per_initiative);
      ];
    profile;
    jobs = 1;
  }

(* ------------------------------------------------------------------ *)
(* sched: convergence schedulers — random polling vs active worklist  *)

(* Race both policies from the empty configuration to the (unique,
   Theorem 1) stable configuration.  [run_until_stable] counts every
   initiative attempt; under [Worklist] it terminates the moment the
   dirty queue drains, which certifies stability without the
   random-poll tail of wasted scans.  Final configurations must be
   bit-identical — that is the uniqueness theorem, pinned here by
   checksum. *)
let bench_sched () =
  let race ~label inst ~max_units =
    let stable = Greedy.stable_config inst in
    let run policy =
      let rng = Rng.create 42 in
      let sim = Sim.create ~scheduler:policy inst rng in
      let steps_opt, dt = time (fun () -> Sim.run_until_stable sim ~stable ~max_units) in
      match steps_opt with
      | None ->
          failwith
            (Printf.sprintf "bench.sched: %s did not stabilize under %s" label
               (Scheduler.policy_name policy))
      | Some attempts ->
          let checksum = fnv_pairs (fun f -> Config.iter_pairs f (Sim.config sim)) in
          (attempts, Sim.active_count sim, checksum, dt)
    in
    let attempts_r, active_r, cs_r, dt_r = run Scheduler.Random_poll in
    let attempts_w, active_w, cs_w, dt_w = run Scheduler.Worklist in
    if cs_r <> cs_w then
      failwith (Printf.sprintf "bench.sched: %s final configurations diverged" label);
    let ratio = float_of_int attempts_r /. float_of_int (max 1 attempts_w) in
    Printf.printf "  %s:\n" label;
    Printf.printf "    random poll:  %9d attempts (%d active) in %6.3f s\n" attempts_r active_r
      dt_r;
    Printf.printf "    worklist:     %9d attempts (%d active) in %6.3f s  (%.1fx fewer attempts)\n%!"
      attempts_w active_w dt_w ratio;
    (attempts_r, attempts_w, active_w, cs_w, dt_r, dt_w, ratio)
  in
  let n4 = 10_000 and b0 = 6 in
  let complete = Instance.complete ~n:n4 ~b:(Array.make n4 b0) () in
  (* Random polling needs ~0.47·n units here (stratification settles
     top-down, so low-stratum polls are wasted until their turn —
     DESIGN.md §9); the worklist replays Algorithm 1's connection order
     in ~B/2 active pops.  The random leg dominates this bench's wall
     time by design: that cost is the measurement. *)
  let c_ar, c_aw, c_actw, c_cs, c_dtr, c_dtw, c_ratio =
    race ~label:(Printf.sprintf "complete n=%d b0=%d" n4 b0) complete ~max_units:6_000
  in
  if c_ratio < 5. then
    failwith
      (Printf.sprintf "bench.sched: worklist saves only %.1fx attempts on the complete case"
         c_ratio);
  let n5 = 100_000 and d = 10. in
  let gnd =
    let rng = Rng.create 1 in
    let graph = Gen.gnd rng ~n:n5 ~d in
    Instance.create ~graph ~b:(Array.make n5 1) ()
  in
  let g_ar, g_aw, g_actw, g_cs, g_dtr, g_dtw, g_ratio =
    race ~label:(Printf.sprintf "G(n,d) n=%d d=%g b=1" n5 d) gnd ~max_units:400
  in
  (* Pin exact determinism: the shared final configuration of each case
     and the worklist attempt counts (the worklist draws no randomness
     with the best-mate strategy, so these are schedule-determined). *)
  {
    checksums =
      [
        ("checksum.sched_complete_config", c_cs);
        ("checksum.sched_complete_worklist_attempts", c_aw);
        ("checksum.sched_complete_worklist_active", c_actw);
        ("checksum.sched_gnd_config", g_cs);
        ("checksum.sched_gnd_worklist_attempts", g_aw);
        ("checksum.sched_gnd_worklist_active", g_actw);
      ];
    metrics =
      [
        ("complete/n", float_of_int n4);
        ("complete/b0", float_of_int b0);
        ("complete/attempts_random", float_of_int c_ar);
        ("complete/attempts_worklist", float_of_int c_aw);
        ("complete/attempts_ratio", c_ratio);
        ("complete/wall_random_s", c_dtr);
        ("complete/wall_worklist_s", c_dtw);
        ("rate/sched_complete_random", float_of_int c_ar /. c_dtr);
        ("rate/sched_complete_worklist", float_of_int c_aw /. c_dtw);
        ("gnd/n", float_of_int n5);
        ("gnd/d", d);
        ("gnd/attempts_random", float_of_int g_ar);
        ("gnd/attempts_worklist", float_of_int g_aw);
        ("gnd/attempts_ratio", g_ratio);
        ("gnd/wall_random_s", g_dtr);
        ("gnd/wall_worklist_s", g_dtw);
        ("rate/sched_gnd_random", float_of_int g_ar /. g_dtr);
        ("rate/sched_gnd_worklist", float_of_int g_aw /. g_dtw);
      ];
    profile = [];
    jobs = 1;
  }

(* ------------------------------------------------------------------ *)
(* net: stratify.net dispatch overhead                                *)

let bench_net () =
  let module Net = Stratify_net.Net in
  let module Engine = Stratify_des.Engine in
  (* Every Async_dynamics message crosses Net.send; the fault-free
     configuration must stay within 1.15x of scheduling the same packed
     code straight on the engine, or the network layer has a hot-path
     cost.  Both legs run the identical event cascade: each delivery
     schedules the next message until the budget is spent. *)
  let events = 1_000_000 in
  let run_engine () =
    let e = Engine.create () in
    let count = ref 0 in
    let send () =
      if !count < events then begin
        incr count;
        let src = !count land 63 and dst = (!count + 1) land 63 in
        Engine.schedule_packed e ~delay:0.05 (Net.Packed.pack ~kind:0 ~src ~dst)
      end
    in
    Engine.set_packed_handler e (fun _ _ -> send ());
    send ();
    ignore (Engine.drain e);
    !count
  in
  let run_net () =
    let net = Net.create (Rng.create 42) (Net.ideal ~latency:0.05 ()) in
    let count = ref 0 in
    let send () =
      if !count < events then begin
        incr count;
        let src = !count land 63 and dst = (!count + 1) land 63 in
        Net.send net ~src ~dst (Net.Packed.pack ~kind:0 ~src ~dst)
      end
    in
    Net.set_handler net (fun _ _ -> send ());
    send ();
    ignore (Engine.drain (Net.engine net));
    !count
  in
  let best leg =
    let rec go k acc =
      if k = 0 then acc
      else
        let n, dt = time leg in
        if n <> events then failwith "bench.net: event count mismatch";
        go (k - 1) (Float.min acc dt)
    in
    go 3 infinity
  in
  ignore (run_engine ());
  (* warm *)
  let dt_engine = best run_engine in
  let dt_net = best run_net in
  let rate_engine = float_of_int events /. dt_engine in
  let rate_net = float_of_int events /. dt_net in
  let overhead = dt_net /. dt_engine in
  Printf.printf "  dispatch cascade (%d events, best of 3):\n" events;
  Printf.printf "    direct Engine.schedule_packed: %10.2f Mevents/s\n" (rate_engine /. 1e6);
  Printf.printf "    fault-free Net.send:           %10.2f Mevents/s  (%.3fx overhead)\n%!"
    (rate_net /. 1e6) overhead;
  if overhead > 1.15 then
    failwith
      (Printf.sprintf
         "bench.net: fault-free Net.send is %.3fx the direct dispatch (budget 1.15x). \
          Note: the dev profile compiles with -opaque, which turns the Obs counter probes \
          into indirect calls and inflates dispatch overhead — run this bench with \
          `dune exec --profile release bench/main.exe`."
         overhead);

  (* Determinism checksum: a faulty pipeline (loss + duplication +
     reordering + a partition window) must deliver the exact same message
     sequence on every platform.  Hash the delivery order of message ids:
     packed trigger [k] (kind 0) sends message [k] (kind 1). *)
  let trace_events = 50_000 in
  let net =
    Net.create (Rng.create 7)
      {
        Net.latency = Net.Jitter { base = 0.05; spread = 0.3 };
        loss = Net.Burst { p_gb = 0.05; p_bg = 0.3; loss_good = 0.02; loss_bad = 0.5 };
        duplicate = 0.05;
        reorder = 0.1;
        reorder_spread = 1.;
      }
  in
  Net.set_partition_schedule net
    [
      { Net.at = 100.; groups = Some (Array.init 64 (fun p -> p land 1)) };
      { Net.at = 300.; groups = None };
    ];
  let e = Net.engine net in
  let h = ref 0x811c9dc5 in
  Net.set_handler net (fun _ code ->
      let k = Net.Packed.src code in
      if Net.Packed.kind code = 0 then
        Net.send net ~src:(k land 63) ~dst:((k * 7) land 63)
          (Net.Packed.pack ~kind:1 ~src:k ~dst:0)
      else h := ((!h * 16777619) lxor k) land ((1 lsl 50) - 1));
  for k = 0 to trace_events - 1 do
    Engine.schedule_packed_at e ~time:(float_of_int k *. 0.01)
      (Net.Packed.pack ~kind:0 ~src:k ~dst:0)
  done;
  ignore (Engine.drain e);
  Printf.printf "  faulty-pipeline delivery checksum over %d sends: %d delivered, lost %d, dup %d\n%!"
    trace_events (Net.delivered net) (Net.lost net) (Net.duplicated net);
  {
    checksums =
      [
        ("checksum.net_trace", !h);
        ("checksum.net_trace_delivered", Net.delivered net);
        ("checksum.net_trace_lost", Net.lost net);
        ("checksum.net_trace_partitioned", Net.partitioned net);
        ("checksum.net_trace_duplicated", Net.duplicated net);
        ("checksum.net_trace_reordered", Net.reordered net);
      ];
    metrics =
      [
        ("events", float_of_int events);
        ("rate/net_dispatch", rate_net);
        ("rate/engine_dispatch", rate_engine);
        ("overhead/fault_free", overhead);
      ];
    profile = [];
    jobs = 1;
  }

(* ------------------------------------------------------------------ *)
(* shard: rank-banded sharded matching                                *)

let bench_shard () =
  let n = 1_000_000 and b0 = 3 in
  let inst = Instance.complete ~n ~b:(Array.make n b0) () in
  let jobs = Exec.default_jobs () in
  let cores = Domain.recommended_domain_count () in
  (* bands = 1 short-circuits to the plain greedy — that IS the
     baseline the speedups are measured against. *)
  let runs =
    List.map
      (fun bands ->
        let config, dt = time (fun () -> Shard.stable_config ~jobs ~bands inst) in
        let cs = fnv_pairs (fun f -> Config.iter_pairs f config) in
        let edges = Config.edge_count config in
        Printf.printf "  bands=%d jobs=%d: %6.3f s  (%d edges, checksum %d)\n%!" bands jobs dt
          edges cs;
        (bands, dt, cs, edges))
      [ 1; 2; 4; 8 ]
  in
  (* Band-count invariance (Theorem 1's uniqueness), asserted in
     process before anything is written. *)
  let _, base_dt, base_cs, base_edges = List.hd runs in
  List.iter
    (fun (bands, _, cs, edges) ->
      if cs <> base_cs || edges <> base_edges then
        failwith (Printf.sprintf "bench.shard: %d-band configuration diverged" bands))
    runs;
  let wall bands =
    match List.find_opt (fun (b, _, _, _) -> b = bands) runs with
    | Some (_, dt, _, _) -> dt
    | None -> base_dt
  in
  let s4 = base_dt /. wall 4 and s8 = base_dt /. wall 8 in
  Printf.printf "  speedup vs 1 band: x%.2f at 4 bands, x%.2f at 8 bands (%d cores)\n%!" s4 s8
    cores;
  (* The speedup gate needs the cores to exist: near-linear scaling in
     bands means >= 3x at 8 bands on a >= 8-core host and a softer bar
     at 4; below that only invariance is asserted (a 1-core runner
     cannot measure parallelism, and the rate/* metrics below still
     catch gross serial regressions via --max-slowdown). *)
  if cores >= 8 && s8 < 3. then
    failwith
      (Printf.sprintf "bench.shard: %.2fx speedup at 8 bands on %d cores (need >= 3x)" s8 cores);
  if cores >= 4 && cores < 8 && s4 < 1.5 then
    failwith
      (Printf.sprintf "bench.shard: %.2fx speedup at 4 bands on %d cores (need >= 1.5x)" s4 cores);
  if cores < 4 then
    Printf.printf "  (%d cores: speedup gate skipped, invariance still asserted)\n%!" cores;
  {
    checksums = [ ("checksum.shard_config", base_cs); ("checksum.shard_edges", base_edges) ];
    metrics =
      List.concat_map
        (fun (bands, dt, _, edges) ->
          [
            (Printf.sprintf "shard/wall_bands_%d_s" bands, dt);
            (Printf.sprintf "rate/shard_bands_%d" bands, float_of_int edges /. dt);
          ])
        runs
      @ [
          ("shard/n", float_of_int n);
          ("shard/b0", float_of_int b0);
          ("shard/jobs", float_of_int jobs);
          ("shard/cores", float_of_int cores);
          ("shard/speedup_4", s4);
          ("shard/speedup_8", s8);
        ];
    profile = [];
    jobs;
  }

(* ------------------------------------------------------------------ *)
(* matrix: scenario-matrix expansion and execution                    *)

let bench_matrix () =
  let module Matrix = Stratify_net_plan.Matrix in
  let module Plan = Stratify_net_plan.Plan in
  (* Expansion throughput: the generator is pure, so repeated expansion
     is the honest unit of work; the checksum pins the cell list
     (names, order, per-cell seeds) across machines. *)
  let reps = 200 in
  let cells = Matrix.generate ~seed:42 in
  let (), expand_dt =
    time (fun () ->
        for _ = 2 to reps do
          ignore (Matrix.generate ~seed:42)
        done)
  in
  let cells_cs = Matrix.checksum cells in
  Printf.printf "  expand: %d cells x %d reps in %.3f s (checksum %d)\n%!" Matrix.cardinality
    reps expand_dt cells_cs;
  (* Run throughput: the async-dense slice of the matrix on the domain
     pool — the cheapest cells, so the rate reflects runner overhead
     rather than one slow simulator.  The metrics checksum (FNV over the
     IEEE bits of every cell metric, in cell order) pins execution
     determinism end to end. *)
  let subset = Matrix.filter cells ~substring:"async-dense" in
  let git = Obs.Run_manifest.git_describe () in
  let jobs = Exec.default_jobs () in
  let results, run_dt =
    time (fun () ->
        Exec.map_array ~jobs subset (fun c -> Plan.run_pure ~git c.Matrix.plan))
  in
  let passed = Array.for_all (fun r -> r.Plan.passed) results in
  if not passed then failwith "bench.matrix: an async-dense cell failed its assertions";
  let metrics_cs =
    let acc = ref 0xcbf29ce484222325L in
    Array.iter
      (fun r ->
        List.iter
          (fun (_, v) ->
            acc := Int64.mul (Int64.logxor !acc (Int64.bits_of_float v)) 0x100000001b3L)
          r.Plan.manifest.Obs.Run_manifest.metrics)
      results;
    Int64.to_int (Int64.logand !acc 0x3FFF_FFFFL)
  in
  Printf.printf "  run: %d cells in %.3f s on %d jobs (metrics checksum %d)\n%!"
    (Array.length subset) run_dt jobs metrics_cs;
  {
    checksums =
      [
        ("checksum.matrix_cells", cells_cs);
        ("checksum.matrix_cardinality", Matrix.cardinality);
        ("checksum.matrix_metrics", metrics_cs);
      ];
    metrics =
      [
        ("rate/matrix_expand", float_of_int (Matrix.cardinality * reps) /. expand_dt);
        ("rate/matrix_run", float_of_int (Array.length subset) /. run_dt);
        ("matrix/cells", float_of_int Matrix.cardinality);
        ("matrix/subset", float_of_int (Array.length subset));
        ("matrix/jobs", float_of_int jobs);
      ];
    profile = [];
    jobs;
  }

(* ------------------------------------------------------------------ *)
(* des: the event engine — one binary heap behind the in-order lane   *)

(* Two workloads:

   (a) cascade — a self-rescheduling packed-event population, the pure
       queue-ops workload.  Delays are compile-time float constants
       (picked by event code), so the steady state touches only
       recycled slot arrays and the heap's arrays: the measured window
       must allocate (essentially) nothing on the minor heap, extending
       the DESIGN.md §13 zero-alloc discipline to the event layer.  A
       second window re-arms the same population with one constant
       delay, so every schedule takes the engine's in-order lane, under
       the same gate.  The cascade's row rides the profile ratchet (and
       its zero-alloc one) like the matching kernels.
   (b) async — the propose/accept/commit dynamics under loss: packed
       message kinds sent through Net's RNG-drawing fault pipeline
       ([Net.send]), with one exponential clock event per peer.

   The delivery checksums of both are pinned, so CI catches any change
   in pop order.  The windows time themselves inline: a [time] closure
   would put its own words in the count. *)
let bench_des () =
  let module Eng = Stratify_des.Engine in
  (* (a) packed cascade *)
  let cascade_pending = 30_000 in
  let eng = Eng.create () in
  let fired = ref 0 in
  let cs = ref 0x811C9DC5 in
  Eng.set_packed_handler eng (fun eng code ->
      incr fired;
      cs := (!cs lxor code) * 0x01000193 land max_int;
      let c = ((code * 0x343FD) + 0x269EC3) land 0x3FFF_FFFF in
      (* Each branch passes a distinct compile-time constant, so the
         fresh delay never crosses a function boundary as a computed
         float — the non-flambda boxing trap (DESIGN.md §14). *)
      match c land 7 with
      | 0 -> Eng.schedule_packed eng ~delay:0.0711 c
      | 1 -> Eng.schedule_packed eng ~delay:0.1337 c
      | 2 -> Eng.schedule_packed eng ~delay:0.2917 c
      | 3 -> Eng.schedule_packed eng ~delay:0.4139 c
      | 4 -> Eng.schedule_packed eng ~delay:0.5923 c
      | 5 -> Eng.schedule_packed eng ~delay:0.7351 c
      | 6 -> Eng.schedule_packed eng ~delay:0.9743 c
      | _ -> Eng.schedule_packed eng ~delay:1.1329 c);
  (* Each seed gets a distinct start time, so the pending-time
     population stays continuous, which is what the real schedules look
     like (Net draws a fresh latency per message): children of a shared
     pop time land on exactly equal floats, and a population seeded on
     a handful of times collapses onto a few dozen exactly-equal time
     values. *)
  for i = 0 to cascade_pending - 1 do
    let c = (i * 0x9E3779B) land 0x3FFF_FFFF in
    Eng.schedule_packed eng ~delay:(0.5 +. (float_of_int i *. 6.1e-5)) c
  done;
  (* Warm-up grows the slot pool and the heap; the population is
     constant afterwards, so the measured window leaves every array
     untouched by the allocator. *)
  Eng.run_until eng ~time:20.;
  let f0 = !fired in
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  Eng.run_until eng ~time:120.;
  let cascade_dt = Unix.gettimeofday () -. t0 in
  let cascade_minor = Gc.minor_words () -. m0 in
  let cascade_fired = !fired - f0 and cascade_cs = !cs in
  let cascade_rate = float_of_int cascade_fired /. cascade_dt in
  Printf.printf "  cascade  %9d events in %6.3f s  (%10.0f events/s, %.0f minor words)\n%!"
    cascade_fired cascade_dt cascade_rate cascade_minor;
  if cascade_minor > 512. then
    failwith
      (Printf.sprintf "bench.des: cascade allocated %.0f minor words over %d events (expected ~0)"
         cascade_minor cascade_fired);

  (* (a') the in-order lane: the cascade's population re-armed with one
     constant delay, so after warm-up every schedule takes the engine's
     lane (DESIGN.md §14) and never reaches the heap.  Its window must
     stay off the minor heap like the cascade's. *)
  let eng = Eng.create () in
  let fired = ref 0 in
  Eng.set_packed_handler eng (fun eng code ->
      incr fired;
      Eng.schedule_packed eng ~delay:0.5 code);
  for i = 0 to cascade_pending - 1 do
    Eng.schedule_packed eng ~delay:(0.5 +. (float_of_int i *. 6.1e-5)) i
  done;
  Eng.run_until eng ~time:20.;
  let f0 = !fired in
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  Eng.run_until eng ~time:60.;
  let dt = Unix.gettimeofday () -. t0 in
  let minor = Gc.minor_words () -. m0 and ev = !fired - f0 in
  Printf.printf "  lane     %9d events in %6.3f s  (%10.0f events/s, %.0f minor words)\n%!" ev dt
    (float_of_int ev /. dt)
    minor;
  if minor > 512. then
    failwith
      (Printf.sprintf "bench.des: lane allocated %.0f minor words over %d events (expected ~0)"
         minor ev);

  (* (b) async dynamics under loss (packed messages, small population) *)
  let rng = Rng.create 7 in
  let graph = Gen.gnd rng ~n:400 ~d:12. in
  let inst = Instance.create ~graph ~b:(Array.make 400 3) () in
  let dyn =
    Async_dynamics.create inst (Rng.create 11)
      { Async_dynamics.latency = 0.4; initiative_rate = 1.; loss = 0.05 }
  in
  let outcome, async_dt =
    time (fun () ->
        Async_dynamics.run dyn ~horizon:40.;
        Async_dynamics.quiesce dyn)
  in
  if outcome <> Async_dynamics.Drained then failwith "bench.des: async failed to quiesce";
  let async_sent = Async_dynamics.messages_sent dyn in
  let async_cs = fnv_pairs (fun f -> Config.iter_pairs f (Async_dynamics.mutual_config dyn)) in
  let async_rate = float_of_int async_sent /. async_dt in
  Printf.printf "  async    %9d messages in %6.3f s  (%10.0f messages/s)\n%!" async_sent async_dt
    async_rate;
  {
    checksums =
      [
        ("checksum.des_cascade", cascade_cs);
        ("checksum.des_cascade_fired", cascade_fired);
        (* the window failed the run above unless it stayed allocation-free *)
        ("checksum.des_cascade_zero_alloc", 1);
        ("checksum.des_async_config", async_cs);
        ("checksum.des_async_sent", async_sent);
      ];
    metrics =
      [
        ("rate/des_cascade_heap", cascade_rate);
        ("rate/des_async_heap", async_rate);
        ("des/cascade_pending", float_of_int cascade_pending);
      ];
    profile =
      [
        {
          Obs.Profile.kernel = "des.cascade.heap";
          wall_s = cascade_dt;
          count = 1;
          ops = cascade_fired;
          minor_words = cascade_minor;
          major_words = 0.;
          promoted_words = 0.;
        };
      ];
    jobs = 1;
  }

(* ------------------------------------------------------------------ *)
(* serve: the service layer (lib/serve)

   Four stages:
   (a) a mixed tracker script — two swarms (one partitioned-and-healed
       under loss, one in piece mode) over a churning population —
       replayed once; its response checksum is pinned.
   (b) the same script stopped mid-run, snapshotted, restored into a
       fresh engine and run out: the manifest must equal the
       uninterrupted run's (hard failure) — the serve-suite CI
       contract, checked from inside one process.
   (c) the announce hot path: a larger population serving a sustained
       announce stream against a live (ticking) world.  Reports
       sustained announces/sec and the exact p50/p99 handling latency
       from the full sorted per-request latency array — no histogram
       bucketing, every sample kept.  Then an untimed window of 2000
       announces on the same world must allocate nothing beyond its
       reply strings (within 512 words).
   (d) the swarm tick: serve-mixed's clean swarm (300 peers, Saroiu
       rank bandwidths, d = 20, bandwidth-only, no faults) stepped
       directly.  After 20 warm-up ticks, a 50-tick window (5 rechokes,
       2 optimistic rounds) must allocate nothing on the minor heap
       (DESIGN.md §13); it times itself inline like bench.des's windows,
       and its profile row rides the zero-allocation ratchet.  The final
       state's hash pins the trajectory. *)
let bench_serve () =
  let module Serve = Stratify_serve.Serve in
  let module Req = Stratify_serve.Request in

  (* (a) + (b): the mixed script. *)
  let script =
    let rng = Rng.create 0xbe5e in
    let n = 300 in
    let sids = [| "alpha"; "beta" |] in
    let requests =
      Array.init 160 (fun i ->
          let at = 1.0 +. (float_of_int i *. 0.21) in
          let peer = Rng.int rng n in
          let swarm = sids.(Rng.int rng 2) in
          let kind =
            match Rng.int rng 10 with
            | 0 -> Req.Join { peer; swarm }
            | 1 -> Req.Leave { peer; swarm }
            | 2 -> Req.Scrape { swarm }
            | 3 -> Req.Stats
            | _ -> Req.Announce { peer; swarm; want = 1 + Rng.int rng 8 }
          in
          { Req.at; kind })
    in
    Req.validate
      {
        Req.name = "bench-serve";
        seed = 42;
        world =
          {
            Req.n;
            d = 8.0;
            b = 2;
            churn_rate = 0.3;
            bands = 2;
            swarms =
              [
                {
                  Req.sid = "alpha";
                  size = 90;
                  d = 14.0;
                  loss = 0.05;
                  partitions =
                    [
                      { Req.at_tick = 12; groups = Req.Halves };
                      { Req.at_tick = 24; groups = Req.Heal };
                    ];
                  piece = None;
                };
                {
                  Req.sid = "beta";
                  size = 48;
                  d = 10.0;
                  loss = 0.0;
                  partitions = [];
                  piece =
                    Some { Req.pieces = 32; piece_size = 1.0; init_fraction = 0.0; seeds = 1 };
                };
              ];
          };
        requests;
        horizon = 36.0;
      }
  in
  let script_cs, script_requests, uninterrupted =
    let t = Serve.create script in
    Serve.run_script t;
    ( Serve.checksum t,
      Serve.requests_handled t,
      Obs.Run_manifest.to_string (Serve.manifest ~git:"bench" t) )
  in
  Printf.printf "  replay checksum %d  (%d requests handled)\n%!" script_cs script_requests;

  (* (b) stop at t=17, restore into a fresh engine, run out. *)
  let snap =
    let t = Serve.create script in
    Serve.run_to t 17.0;
    Serve.snapshot_string t
  in
  let resumed =
    let t = Serve.restore_string snap in
    Serve.run_script t;
    Obs.Run_manifest.to_string (Serve.manifest ~git:"bench" t)
  in
  if not (String.equal resumed uninterrupted) then
    failwith "bench.serve: stop-at-17 / resume manifest differs from the uninterrupted run";
  Printf.printf "  stop/resume: manifest identical (%d bytes, snapshot %d bytes)\n%!"
    (String.length resumed) (String.length snap);

  (* (c) announce hot path: cycle announces over a 600-slot swarm in a
     2000-peer population, ticking the world every 2000 requests so the
     stream is served against live swarm/choker dynamics, not a frozen
     snapshot.  Per-request latency is kept exactly. *)
  let hot_script =
    Req.validate
      {
        Req.name = "bench-serve-hot";
        seed = 42;
        world =
          {
            Req.n = 2000;
            d = 8.0;
            b = 2;
            churn_rate = 0.0;
            bands = 2;
            swarms =
              [
                {
                  Req.sid = "hot";
                  size = 600;
                  d = 16.0;
                  loss = 0.0;
                  partitions = [];
                  piece = None;
                };
              ];
          };
        requests = [||];
        horizon = 1000.0;
      }
  in
  let announces = 20_000 in
  let lat = Array.make announces 0. in
  let hot = Serve.create hot_script in
  (* warm-up: build the world and let the first ticks settle *)
  Serve.run_to hot 2.0;
  let (), dt =
    time (fun () ->
        for i = 0 to announces - 1 do
          let peer = i mod 600 in
          let a = Unix.gettimeofday () in
          ignore (Serve.handle hot (Req.Announce { peer; swarm = "hot"; want = 8 }));
          let b = Unix.gettimeofday () in
          lat.(i) <- (b -. a) *. 1e9;
          if i mod 2000 = 1999 then Serve.run_to hot (Serve.now hot +. 1.0)
        done)
  in
  let announce_rate = float_of_int announces /. dt and hot_cs = Serve.checksum hot in
  Array.sort compare lat;
  let pct p =
    lat.(max 0 (min (announces - 1) (int_of_float (ceil (p *. float_of_int announces)) - 1)))
  in
  let p50 = pct 0.50 and p99 = pct 0.99 in
  Printf.printf "  announce hot path: %9.0f announces/s   p50 %7.0f ns   p99 %8.0f ns\n%!"
    announce_rate p50 p99;

  (* (c') the announce path's allocation, on the hot world after its
     checksum is read: 2000 more announces over request records built
     beforehand, with no run_to and no clock in the window.  Beyond the
     reply strings' own words, Σ(length/8 + 2), it may allocate no more
     than bench.des's 512-word slack (DESIGN.md §15).  A release build
     is assumed: in the dev profile each padding draw boxes (§13). *)
  let window = 2000 in
  let window_reqs =
    Array.init window (fun i -> Req.Announce { peer = i mod 600; swarm = "hot"; want = 8 })
  in
  let replies = Array.make window "" in
  let m0 = Gc.minor_words () in
  for i = 0 to window - 1 do
    replies.(i) <- Serve.handle hot window_reqs.(i)
  done;
  let window_minor = Gc.minor_words () -. m0 in
  let reply_words = Array.fold_left (fun acc r -> acc + (String.length r / 8) + 2) 0 replies in
  let extra_words = window_minor -. float_of_int reply_words in
  Printf.printf "  announce allocation: %d announces, %.0f minor words, %d in replies, %.0f extra\n%!"
    window window_minor reply_words extra_words;
  if extra_words > 512. then
    failwith
      (Printf.sprintf
         "bench.serve: %d announces allocated %.0f minor words beyond their %d reply words \
          (expected <= 512)"
         window extra_words reply_words);

  (* (d) the swarm tick *)
  let module Swarm = Stratify_bittorrent.Swarm in
  let uploads =
    Stratify_bandwidth.Profile.rank_bandwidths Stratify_bandwidth.Saroiu.profile ~n:300
  in
  let swarm =
    Swarm.create (Rng.create 42) { (Swarm.default_params ~uploads) with Swarm.d = 20. }
  in
  Swarm.run swarm ~ticks:20;
  let ticks = 50 in
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to ticks do
    Swarm.step swarm
  done;
  let swarm_dt = Unix.gettimeofday () -. t0 in
  let swarm_minor = Gc.minor_words () -. m0 in
  let swarm_rate = float_of_int ticks /. swarm_dt in
  Printf.printf "  swarm tick: %d ticks in %6.3f s  (%8.0f ticks/s, %.0f minor words)\n%!" ticks
    swarm_dt swarm_rate swarm_minor;
  if swarm_minor > 512. then
    failwith
      (Printf.sprintf
         "bench.serve: swarm tick allocated %.0f minor words over %d ticks (expected ~0)"
         swarm_minor ticks);
  let swarm_cs =
    let h = ref 0xcbf29ce484222325L in
    let word w = h := Int64.mul (Int64.logxor !h w) 0x100000001b3L in
    for i = 0 to Swarm.size swarm - 1 do
      List.iter
        (fun x -> word (Int64.bits_of_float x))
        [
          Swarm.uploaded swarm i;
          Swarm.downloaded swarm i;
          Swarm.uploaded_tft swarm i;
          Swarm.downloaded_tft swarm i;
        ];
      List.iter (fun q -> word (Int64.of_int q)) (Swarm.unchoked swarm i);
      word (Int64.of_int (Swarm.optimistic swarm i))
    done;
    Int64.to_int !h land max_int
  in
  {
    checksums =
      [
        ("checksum.serve_script", script_cs);
        ("checksum.serve_script_requests", script_requests);
        ("checksum.serve_stop_resume_ok", 1);
        ("checksum.serve_hot", hot_cs);
        (* the window failed the run above unless its extra words stayed
           within the slack *)
        ("checksum.serve_announce_alloc_ok", 1);
        ("checksum.serve_swarm", swarm_cs);
        (* the window failed the run above unless it stayed allocation-free *)
        ("checksum.serve_swarm_zero_alloc", 1);
      ];
    metrics =
      [
        ("rate/serve_announce", announce_rate);
        ("serve/p50_announce_ns", p50);
        ("serve/p99_announce_ns", p99);
        ("serve/announce_count", float_of_int announces);
        ("serve/announce_extra_words", extra_words);
        ("rate/serve_swarm_tick", swarm_rate);
      ];
    profile =
      [
        {
          Obs.Profile.kernel = "serve.swarm.clean";
          wall_s = swarm_dt;
          count = 1;
          ops = ticks;
          minor_words = swarm_minor;
          major_words = 0.;
          promoted_words = 0.;
        };
      ];
    jobs = 1;
  }

(* ------------------------------------------------------------------ *)
(* The part table and its driver                                      *)

(* Part [p] writes BENCH_p.json, the name of its checked-in baseline. *)
let parts =
  [
    ("parallel", bench_parallel);
    ("core", bench_core);
    ("profile", bench_profile);
    ("sched", bench_sched);
    ("net", bench_net);
    ("shard", bench_shard);
    ("matrix", bench_matrix);
    ("des", bench_des);
    ("serve", bench_serve);
  ]

(* The identity fields match what [Run_manifest.capture] stamps; the
   counters are the part's checksum rows, sorted as [Counter.dump]
   sorts them. *)
let publish ~dir name r =
  let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" name) in
  Obs.Run_manifest.write_path path
    {
      Obs.Run_manifest.schema_version = Obs.Run_manifest.schema_version;
      kind = "bench";
      name = "bench_" ^ name;
      seed = 42;
      scale = 1.0;
      jobs = r.jobs;
      git = Obs.Run_manifest.git_describe ();
      cores = Domain.recommended_domain_count ();
      phases = [];
      counters = List.sort compare r.checksums;
      histograms = [];
      metrics = r.metrics;
      profile = r.profile;
    };
  Printf.printf "  wrote %s\n%!" path

let () =
  let fail msg =
    Printf.eprintf "bench: %s\nusage: main.exe [--out DIR] [PART ...]; parts: %s\n" msg
      (String.concat ", " (List.map fst parts));
    exit 2
  in
  let rec parse dir names = function
    | [] -> (dir, List.rev names)
    | [ "--out" ] -> fail "--out needs a directory"
    | "--out" :: d :: rest -> parse d names rest
    | name :: rest when List.mem_assoc name parts -> parse dir (name :: names) rest
    | arg :: _ -> fail (Printf.sprintf "unknown part %S" arg)
  in
  let dir, names = parse "." [] (List.tl (Array.to_list Sys.argv)) in
  let names = if names = [] then List.map fst parts else names in
  List.iter
    (fun name ->
      Printf.printf "\n================ bench.%s ================\n%!" name;
      publish ~dir name ((List.assoc name parts) ()))
    names
