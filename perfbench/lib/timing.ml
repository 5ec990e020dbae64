(* Timing primitives shared by every workload: a nanosecond monotonic
   clock (not [Unix.gettimeofday], whose 1 µs resolution rounds a ~20 µs
   announce to whole microseconds), growable sample buffers and
   nearest-rank percentiles that carry their sample count. *)

let now_ns () = Monotonic_clock.now ()
let ns_between a b = Int64.to_float (Int64.sub b a)
let seconds_since t0 = ns_between t0 (now_ns ()) *. 1e-9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)

(* The host's speed.  The benchmark shares its machine with other
   tenants, and the speed of a fixed piece of code changes by up to ~1.7x
   from one stretch of time to the next; a slow stretch can cover a whole
   run.  [probe] times a fixed kernel that belongs to the benchmark, not
   to the program: 1000 inserts into a [Map.Make (Int)], the allocating,
   pointer-following, branchy code the program itself is made of.  Beside
   serve-mixed's ticks, its time tracked theirs with a slope of 1.06 (log
   ratios across iterations, correlation 0.83), where a pointer chase
   through a table held a slope of 0.22.  It runs three times and keeps
   the fastest, so one interrupt or minor collection does not count as a
   slow host. *)
module Probe_map = Map.Make (Int)

let probe_kernel () =
  let m = ref Probe_map.empty and x = ref 12345 in
  for _ = 1 to 1000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    m := Probe_map.add !x !x !m
  done;
  ignore (Sys.opaque_identity (Probe_map.fold (fun _ v acc -> acc + v) !m 0))

let probe () =
  let best = ref Float.infinity in
  for _ = 1 to 3 do
    let t0 = now_ns () in
    probe_kernel ();
    best := Float.min !best (ns_between t0 (now_ns ()) *. 1e-9)
  done;
  !best

(* The probe's time on the reference host, a 2-vCPU Xeon VM at its
   faster speed.  [at_ref ~probe x] scales a time [x] measured right
   after a probe that took [probe] to what it would read on that host:
   reference seconds. *)
let probe_ref_s = 1.7e-4

let at_ref ~probe x = x *. probe_ref_s /. probe

(* The host's speed over segment [i], from the probes before ([i]) and
   after ([i + 1]) it: a segment longer than a probe's interval can see
   the host change speed half way. *)
let bracket probes i = 0.5 *. (probes.(i) +. probes.(i + 1))

(* [f ()], its time in seconds and in reference seconds, between two
   probes. *)
let time_ref f =
  let before = probe () in
  let r, dt = time f in
  let after = probe () in
  (r, dt, at_ref ~probe:(bracket [| before; after |] 0) dt)

type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 256 0.; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let grown = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 grown 0 s.len;
    s.data <- grown
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let count s = s.len

let sum s =
  let acc = ref 0. in
  for i = 0 to s.len - 1 do
    acc := !acc +. s.data.(i)
  done;
  !acc

let append dst src =
  for i = 0 to src.len - 1 do
    add dst src.data.(i)
  done

let to_array s = Array.sub s.data 0 s.len

let sorted s =
  let a = to_array s in
  Array.sort Float.compare a;
  a

type pct = { value : float; count : int }

(* Nearest rank: the smallest sample such that at least [p] percent of
   the samples are <= it, i.e. sorted.(ceil (p n / 100) - 1).  [p n] is
   formed before the division so integral ranks stay exact. *)
let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Timing.nearest_rank: no samples";
  if p <= 0. || p > 100. then invalid_arg "Timing.nearest_rank: p outside (0, 100]";
  let k = int_of_float (Float.ceil (p *. float_of_int n /. 100.)) in
  sorted.(max 0 (min (n - 1) (k - 1)))

let percentile s p = { value = nearest_rank (sorted s) p; count = s.len }

let median = function
  | [] -> invalid_arg "Timing.median: empty"
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let fastest = function
  | [] -> invalid_arg "Timing.fastest: empty"
  | l -> List.fold_left Float.min Float.infinity l

(* A robust total over iterations that run the same aligned segments
   (the ticks of one script, the cells of one matrix, the figures of one
   pass): the sum over segments of [stat] of each segment's times across
   iterations.  A burst of interference from other tenants slows a few
   segments of one iteration and a per-segment [median] or [fastest]
   drops it, where a statistic of whole iterations would need the burst
   to miss most iterations. *)
let segment_sum stat = function
  | [] -> invalid_arg "Timing.segment_sum: no iterations"
  | first :: _ as iters ->
      let n = Array.length first in
      if List.exists (fun a -> Array.length a <> n) iters then
        invalid_arg "Timing.segment_sum: segment counts differ";
      let total = ref 0. in
      for k = 0 to n - 1 do
        total := !total +. stat (List.map (fun a -> a.(k)) iters)
      done;
      !total

(* [stat] over iterations of each iteration's nearest-rank percentile;
   the count is the number of samples over all iterations. *)
let combined_percentile stat per_iteration p =
  let ps = List.map (fun s -> percentile s p) per_iteration in
  {
    value = stat (List.map (fun q -> q.value) ps);
    count = List.fold_left (fun acc q -> acc + q.count) 0 ps;
  }
