module Rng = Stratify_prng.Rng
module Exec = Stratify_exec.Exec
module Obs = Stratify_obs

let c_bands = Obs.Counter.make "shard.bands"
let c_conflicts = Obs.Counter.make "shard.stitch_conflicts"
let c_seeded = Obs.Counter.make "shard.fixup_seeded"
let c_active = Obs.Counter.make "shard.fixup_active"
let c_pops = Obs.Counter.make "shard.fixup_pops"

type band = { core_lo : int; core_hi : int; ext_lo : int; ext_hi : int }

let check_bands fn ~n ~bands ~overlap =
  if bands < 1 then invalid_arg (Printf.sprintf "%s: bands must be >= 1 (got %d)" fn bands);
  if bands > max 1 n then
    invalid_arg
      (Printf.sprintf "%s: %d bands exceed the %d-peer population" fn bands n);
  if overlap < 0 then
    invalid_arg (Printf.sprintf "%s: overlap must be >= 0 (got %d)" fn overlap)

let band_ranges ~n ~bands ~overlap =
  check_bands "Shard.band_ranges" ~n ~bands ~overlap;
  Array.init bands (fun i ->
      let core_lo = i * n / bands and core_hi = (i + 1) * n / bands in
      {
        core_lo;
        core_hi;
        ext_lo = max 0 (core_lo - overlap);
        ext_hi = min n (core_hi + overlap);
      })

(* Rank positions that no stable collaboration crosses, computed by
   replaying Algorithm 1's availability evolution without building a
   configuration: peer [i] claims the next still-available peers through
   the same lazily-compressed next-pointer jump as
   [Greedy.stable_config]'s complete fast path, but only counters are
   touched — no mate segments, no sorted inserts.  [s] is a cut iff no
   connection made by peers [< s] reached [s] or beyond; since claims
   only go forward in rank, the availability of [s, n) is then exactly
   virgin when the scan arrives at [s], so Algorithm 1 restarted from
   [s] reproduces the global configuration on [s, n) — a renewal point.
   O(n·b̄) integer work: roughly an order of magnitude cheaper than the
   full greedy build it lets the bands parallelize.

   Meaningful for the complete-family backends, whose acceptance is a
   rank window; on sparse backends cuts this cheap do not exist
   (acceptance rows would have to be walked), so the sharded solve falls
   back to nominal boundaries there.  Availability is clamped to the
   acceptance degree so removed ([Complete_minus]) peers are born
   saturated, mirroring the generic greedy's skip of their empty rows. *)
let cluster_cuts ?arena inst =
  let n = Instance.n inst in
  let prof = Obs.Profile.start () in
  let avail, next =
    match arena with
    | None ->
        ( Array.init n (fun p -> min (Instance.slots inst p) (Instance.degree inst p)),
          Array.init (n + 1) (fun i -> i) )
    | Some a ->
        let avail = Greedy.scratch_avail a n in
        for p = 0 to n - 1 do
          avail.(p) <- min (Instance.slots inst p) (Instance.degree inst p)
        done;
        let next = Greedy.scratch_next a (n + 1) in
        for i = 0 to n do
          next.(i) <- i
        done;
        (avail, next)
  in
  let rec find_next i =
    if i > n then n
    else if i = n || avail.(i) > 0 then i
    else begin
      let r = find_next next.(i + 1) in
      next.(i) <- r;
      r
    end
  in
  let cuts = ref [] and ncuts = ref 0 in
  let maxq = ref (-1) in
  for i = 0 to n - 1 do
    if !maxq < i then begin
      cuts := i :: !cuts;
      incr ncuts
    end;
    let q = ref (find_next (i + 1)) in
    while avail.(i) > 0 && !q < n do
      avail.(i) <- avail.(i) - 1;
      avail.(!q) <- avail.(!q) - 1;
      if !q > !maxq then maxq := !q;
      q := find_next (!q + 1)
    done
  done;
  (* prepended while scanning up → reversed; [n] is always a cut *)
  let out = Array.make (!ncuts + 1) n in
  List.iteri (fun i s -> out.(!ncuts - 1 - i) <- s) !cuts;
  Obs.Profile.stop "shard.cluster_cuts" ~ops:n prof;
  out

(* Snap each nominal boundary [i·n/bands] to the nearest cluster cut.
   A band that starts at a cut is phase-aligned: its local greedy equals
   the global configuration restricted to the band, so the stitch is a
   pure copy and the fixup drains an (almost) empty queue.  Nominal
   boundaries instead start bands mid-cluster, and the band-local
   clusters come out shifted — correct only after the fixup re-matches
   the entire band, which is exactly the serial work sharding exists to
   avoid.  [nearest] is monotone in its argument, so deduplicating the
   snapped bounds just drops empty bands: when cuts are sparser than
   bands (giant fused clusters, Table 1's normal law at high σ), the
   effective band count degrades gracefully instead of producing
   misaligned bands. *)
let snap_ranges ~n ~bands cuts =
  let ncuts = Array.length cuts in
  let nearest t =
    let lo = ref 0 and hi = ref ncuts in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cuts.(mid) < t then lo := mid + 1 else hi := mid
    done;
    if !lo >= ncuts then cuts.(ncuts - 1)
    else if !lo = 0 then cuts.(0)
    else if cuts.(!lo) - t <= t - cuts.(!lo - 1) then cuts.(!lo)
    else cuts.(!lo - 1)
  in
  let bounds =
    Array.init (bands + 1) (fun i ->
        if i = 0 then 0 else if i = bands then n else nearest (i * n / bands))
  in
  let uniq = ref [ n ] in
  for i = bands - 1 downto 0 do
    if bounds.(i) < List.hd !uniq then uniq := bounds.(i) :: !uniq
  done;
  let uniq = Array.of_list !uniq in
  Array.init
    (Array.length uniq - 1)
    (fun i ->
      { core_lo = uniq.(i); core_hi = uniq.(i + 1); ext_lo = uniq.(i); ext_hi = uniq.(i + 1) })

(* §4's concentration bound: the mean max offset tends to (3/4)·b0
   (Mmo.asymptote), i.e. stable mates sit within a cluster's width of
   their peer's own rank.  Pad by one full cluster (bmax + 1) so a
   remainder cluster cut by a band edge still fits in the extension. *)
let default_overlap inst =
  let bmax = Array.fold_left Int.max 0 (Instance.raw_slots inst) in
  (((3 * bmax) + 3) / 4) + bmax + 1

(* The sub-instance induced by ranks [lo, hi), relabelled to local
   labels [0, hi-lo) with the identity ranking.  Config-level algorithms
   operate purely on rank labels, so the original instance's id<->rank
   translation is irrelevant here: a band is a window on rank space. *)
let band_instance inst ~lo ~hi =
  let len = hi - lo in
  let b = Array.sub (Instance.raw_slots inst) lo len in
  let filtered_row row row_len =
    let count = ref 0 in
    for k = 0 to row_len - 1 do
      let q = Array.unsafe_get row k in
      if q >= lo && q < hi then incr count
    done;
    let out = Array.make !count 0 in
    let j = ref 0 in
    for k = 0 to row_len - 1 do
      let q = Array.unsafe_get row k in
      if q >= lo && q < hi then begin
        out.(!j) <- q - lo;
        incr j
      end
    done;
    out
  in
  match Instance.raw_backend inst with
  | Instance.Raw_complete -> Instance.complete ~n:len ~b ()
  | Instance.Raw_complete_minus { pos; _ } ->
      let removed = ref [] in
      for r = hi - 1 downto lo do
        if pos.(r) < 0 then removed := (r - lo) :: !removed
      done;
      Instance.complete_minus ~n:len ~b ~removed:!removed ()
  | Instance.Raw_dense { off; data } ->
      let adj =
        Array.init len (fun i ->
            let p = lo + i in
            let base = off.(p) in
            filtered_row (Array.sub data base (off.(p + 1) - base)) (off.(p + 1) - base))
      in
      Instance.of_adjacency ~adj ~b ()
  | Instance.Raw_dynamic { rows; len = row_len } ->
      let adj = Array.init len (fun i -> filtered_row rows.(lo + i) row_len.(lo + i)) in
      Instance.of_adjacency ~adj ~b ()

let stable_config ?(jobs = 1) ?(bands = 1) ?overlap ?arena inst =
  let n = Instance.n inst in
  if jobs < 1 then
    invalid_arg (Printf.sprintf "Shard.stable_config: jobs must be >= 1 (got %d)" jobs);
  let overlap =
    match overlap with
    | Some o -> o
    | None -> default_overlap inst
  in
  check_bands "Shard.stable_config" ~n ~bands ~overlap;
  if bands = 1 then Greedy.stable_config ?arena inst
  else begin
    (* The complete-family backends admit the O(n) renewal scan: snap
       band boundaries to true cluster cuts so each band's local greedy
       IS the global configuration on its window (overlap becomes
       irrelevant — the extension is dropped and the stitch is a pure
       [Config.absorb] blit).  Sparse backends keep the nominal
       boundaries with extensions; their stitch goes through the
       tolerant per-pair path below.  Either way the fixup drain is the
       safety net that certifies stability, so a degraded cut scan
       could only cost time, never correctness. *)
    let snapped =
      match Instance.backend_kind inst with
      | `Complete | `Complete_minus -> true
      | `Dense | `Dynamic -> false
    in
    let ranges =
      if snapped then snap_ranges ~n ~bands (cluster_cuts ?arena inst)
      else band_ranges ~n ~bands ~overlap
    in
    let nbands = Array.length ranges in
    Obs.Counter.add c_bands nbands;
    (* Solve every (extended) band independently: Algorithm 1 on the
       band-local sub-instance.  Each kernel depends only on its band
       index, so the fan-out is jobs-invariant by construction.  The
       caller's arena is single-threaded and must not cross into the
       worker domains; each band builds with fresh scratch.  The
       [Profile] rows ARE worker-domain safe (mutex-protected), and
       every band solve records under "greedy.build" — the enclosing
       "shard.band_solve" row measures the whole fan-out from the
       coordinator. *)
    let solve = Obs.Profile.start () in
    let locals =
      Exec.map_indexed ~jobs ~count:nbands (fun i ->
          let { ext_lo; ext_hi; _ } = ranges.(i) in
          Greedy.stable_config (band_instance inst ~lo:ext_lo ~hi:ext_hi))
    in
    Obs.Profile.stop "shard.band_solve" ~ops:nbands solve;
    let config = Config.empty inst in
    let sched = Scheduler.create ~n in
    (* Stitch, in band order, each band's pairs in ascending (p, q)
       order (Config.iter_pairs) — a fixed, deterministic sequence.
       Snapped bands have no extension and disjoint pair sets, so they
       blit straight in.  Extended bands own the pairs whose best-ranked
       endpoint falls in their core, so every pair has exactly one
       owner; the tolerant connect skips anything a previously stitched
       band made impossible and queues both endpoints for the fixup
       instead. *)
    let stitch = Obs.Profile.start () in
    Array.iteri
      (fun i local ->
        let { core_lo; core_hi; ext_lo; _ } = ranges.(i) in
        if snapped then Config.absorb config local ~shift:ext_lo
        else
          Config.iter_pairs
            (fun lp lq ->
              let p = lp + ext_lo and q = lq + ext_lo in
              if p >= core_lo && p < core_hi then begin
                if
                  Config.mated config p q
                  || Config.free_slots config p <= 0
                  || Config.free_slots config q <= 0
                then begin
                  Obs.Counter.incr c_conflicts;
                  Scheduler.push sched p;
                  Scheduler.push sched q
                end
                else Config.connect config p q
              end)
            local)
      locals;
    Obs.Profile.stop "shard.stitch" ~ops:nbands stitch;
    (* Seed the fixup worklist with every possible blocking-pair
       endpoint (see shard.mli for why this set is sufficient): the
       extension zone around each internal boundary, plus every peer
       left with a free slot — which covers, in particular, any interior
       peer whose band-local pair was dropped by the stitch.  Snapped
       bands need no boundary zones: their stitched mate lists are
       band-local, and two full peers with band-local mates can never
       block across a boundary (each one's worst mate outranks the whole
       of the other's band), so free-slot seeding alone is exhaustive. *)
    if not snapped then
      for i = 1 to nbands - 1 do
        let s = ranges.(i).core_lo in
        for p = max 0 (s - overlap) to min n (s + overlap) - 1 do
          Scheduler.push sched p
        done
      done;
    for p = 0 to n - 1 do
      if Config.free_slots config p > 0 && Instance.slots inst p > 0 && Instance.degree inst p > 0
      then Scheduler.push sched p
    done;
    Obs.Counter.add c_seeded (Scheduler.length sched);
    (* Rank-ordered drain with Best_mate: consumes no randomness, pops
       lowest rank first — the deterministic fixed-order fixup.  An
       empty queue certifies stability (Scheduler invariant), and by
       Theorem 1's uniqueness the result equals the unsharded one. *)
    let state = Initiative.create_state inst in
    let fixup = Obs.Profile.start () in
    let active, pops = Scheduler.drain sched config state Initiative.Best_mate (Rng.create 0) in
    Obs.Profile.stop "shard.fixup" ~ops:pops fixup;
    Obs.Counter.add c_active active;
    Obs.Counter.add c_pops pops;
    config
  end
