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
   O(n·b̄) integer work into the caller's [avail]/[next] scratch, and
   the cuts are collected in an int array, not a cons list: at
   n = 10⁶, b0 = 2 a list would cons a cell per cut, 333,334 of them.

   Meaningful for the complete-family backends, whose acceptance is a
   rank window; on sparse backends cuts this cheap do not exist
   (acceptance rows would have to be walked), so the sharded solve falls
   back to nominal boundaries there.  Availability is clamped to the
   acceptance degree so removed ([Complete_minus]) peers are born
   saturated, mirroring the generic greedy's skip of their empty rows. *)
let cuts_with ~avail ~next inst =
  let n = Instance.n inst in
  let prof = Obs.Profile.start () in
  for p = 0 to n - 1 do
    avail.(p) <- Int.min (Instance.slots inst p) (Instance.degree inst p);
    next.(p) <- p
  done;
  (* [cuts.(ncuts)] stays [n]: [n] is always a cut *)
  let cuts = Array.make (n + 1) n in
  let ncuts = ref 0 and maxq = ref (-1) in
  for i = 0 to n - 1 do
    if !maxq < i then begin
      cuts.(!ncuts) <- i;
      incr ncuts
    end;
    if avail.(i) > 0 then begin
      let q = ref (Greedy.find_next avail next n (i + 1)) in
      while avail.(i) > 0 && !q < n do
        avail.(i) <- avail.(i) - 1;
        avail.(!q) <- avail.(!q) - 1;
        if !q > !maxq then maxq := !q;
        q := Greedy.find_next avail next n (!q + 1)
      done
    end
  done;
  let out = Array.sub cuts 0 (!ncuts + 1) in
  Obs.Profile.stop "shard.cluster_cuts" ~ops:n prof;
  out

let cluster_cuts ?arena inst =
  let avail, next = Greedy.scratch ?arena (Instance.n inst) in
  cuts_with ~avail ~next inst

(* Snap each nominal boundary [i·n/bands] to the nearest cluster cut.
   A band that starts at a cut is phase-aligned: its local greedy equals
   the global configuration restricted to the band, so the band can
   write the global rows in place and the fixup drains an (almost)
   empty queue.  Nominal boundaries instead start bands mid-cluster,
   and the band-local clusters come out shifted — correct only after
   the fixup re-matches the entire band, which is exactly the serial
   work sharding exists to avoid.  [nearest] is monotone in its
   argument, so deduplicating the snapped bounds just drops empty
   bands: when cuts are sparser than bands (giant fused clusters,
   Table 1's normal law at high σ), the effective band count degrades
   gracefully instead of producing misaligned bands. *)
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

(* The sub-instance induced by ranks [lo, hi) of a sparse backend,
   relabelled to local labels [0, hi-lo) with the identity ranking and
   only intra-band acceptance edges.  Config-level algorithms operate
   purely on rank labels, so the original instance's id<->rank
   translation is irrelevant here: a band is a window on rank space.
   The complete-family backends never build one — their snapped bands
   are solved in place ([solve_snapped]). *)
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
  let adj =
    match Instance.raw_backend inst with
    | Instance.Raw_dense { off; data } ->
        Array.init len (fun i ->
            let p = lo + i in
            let base = off.(p) in
            filtered_row (Array.sub data base (off.(p + 1) - base)) (off.(p + 1) - base))
    | Instance.Raw_dynamic { rows; len = row_len } ->
        Array.init len (fun i -> filtered_row rows.(lo + i) row_len.(lo + i))
    | Instance.Raw_complete | Instance.Raw_complete_minus _ ->
        invalid_arg "Shard.band_instance: complete-family bands are solved in place"
  in
  Instance.of_adjacency ~adj ~b ()

(* Complete-family backends: snap band boundaries to true cluster cuts,
   so each band's greedy IS the global configuration on its window, and
   solve every band straight into its own rows of one shared [Config].
   One scratch pair serves the cut scan and then every band: each band
   resets and touches only its own window of the scratch and of the
   configuration's segments, so the fan-out is race-free for any [jobs]
   and jobs-invariant by construction.  That is also why the caller's
   arena may be used here: its buffers are taken once, on the
   coordinator, and no worker touches the arena itself.  The bands
   write segments only; one [Config.seal] derives the rest. *)
let solve_snapped ~jobs ~bands ?arena inst =
  let n = Instance.n inst in
  let avail, next = Greedy.scratch ?arena n in
  let ranges = snap_ranges ~n ~bands (cuts_with ~avail ~next inst) in
  let nbands = Array.length ranges in
  Obs.Counter.add c_bands nbands;
  let config = Config.empty inst in
  (* [Profile] rows are worker-domain safe (mutex-protected): every band
     records under "greedy.build", and "shard.band_solve" measures the
     whole fan-out from the coordinator. *)
  let solve = Obs.Profile.start () in
  ignore
    (Exec.map_indexed ~jobs ~count:nbands (fun i ->
         let { core_lo; core_hi; _ } = ranges.(i) in
         Greedy.solve_window config ~avail ~next ~lo:core_lo ~hi:core_hi));
  Obs.Profile.stop "shard.band_solve" ~ops:nbands solve;
  let stitch = Obs.Profile.start () in
  Config.seal config;
  Obs.Profile.stop "shard.stitch" ~ops:nbands stitch;
  config

(* Sparse backends: nominal boundaries, each band extended by [overlap]
   on both sides and solved as its own sub-instance, then stitched
   through a tolerant connect.  Pushes onto [sched] every endpoint the
   stitch had to skip and the boundary zones. *)
let solve_extended ~jobs ~bands ~overlap inst sched =
  let n = Instance.n inst in
  let ranges = band_ranges ~n ~bands ~overlap in
  let nbands = Array.length ranges in
  Obs.Counter.add c_bands nbands;
  (* Each kernel depends only on its band index, so the fan-out is
     jobs-invariant by construction; each band builds with fresh
     scratch. *)
  let solve = Obs.Profile.start () in
  let locals =
    Exec.map_indexed ~jobs ~count:nbands (fun i ->
        let { ext_lo; ext_hi; _ } = ranges.(i) in
        Greedy.stable_config (band_instance inst ~lo:ext_lo ~hi:ext_hi))
  in
  Obs.Profile.stop "shard.band_solve" ~ops:nbands solve;
  let config = Config.empty inst in
  (* Stitch, in band order, each band's pairs in ascending (p, q) order
     (Config.iter_pairs) — a fixed, deterministic sequence.  Extended
     bands own the pairs whose best-ranked endpoint falls in their
     core, so every pair has exactly one owner; the tolerant connect
     skips anything a previously stitched band made impossible and
     queues both endpoints for the fixup instead. *)
  let stitch = Obs.Profile.start () in
  Array.iteri
    (fun i local ->
      let { core_lo; core_hi; ext_lo; _ } = ranges.(i) in
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
  (* The extension zone around each internal boundary: band-local mates
     may differ between the two bands that both see a peer there. *)
  for i = 1 to nbands - 1 do
    let s = ranges.(i).core_lo in
    for p = max 0 (s - overlap) to min n (s + overlap) - 1 do
      Scheduler.push sched p
    done
  done;
  config

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
    let sched = Scheduler.create ~n in
    (* The complete-family backends admit the O(n) renewal scan, so
       their bands snap to cuts and solve in place (overlap is
       irrelevant there); sparse backends keep nominal boundaries with
       extensions.  Either way the fixup drain is the safety net that
       certifies stability, so a degraded cut scan could only cost
       time, never correctness. *)
    let config =
      match Instance.backend_kind inst with
      | `Complete | `Complete_minus -> solve_snapped ~jobs ~bands ?arena inst
      | `Dense | `Dynamic -> solve_extended ~jobs ~bands ~overlap inst sched
    in
    (* Seed the fixup worklist with every possible blocking-pair
       endpoint (see shard.mli for why this set is sufficient): on top
       of what the sparse stitch queued, every peer left with a free
       slot — which covers, in particular, any interior peer whose
       band-local pair was dropped by the stitch.  Snapped bands need
       no boundary zones: their mate lists are band-local, and two full
       peers with band-local mates can never block across a boundary
       (each one's worst mate outranks the whole of the other's band),
       so free-slot seeding alone is exhaustive. *)
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
