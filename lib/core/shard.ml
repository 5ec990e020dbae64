module Rng = Stratify_prng.Rng
module Exec = Stratify_exec.Exec
module Obs = Stratify_obs

let c_bands = Obs.Counter.make "shard.bands"
let c_seeded = Obs.Counter.make "shard.fixup_seeded"
let c_active = Obs.Counter.make "shard.fixup_active"
let c_pops = Obs.Counter.make "shard.fixup_pops"

type band = { lo : int; hi : int }

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
   rank window; sparse backends have no such cuts, so [stable_config]
   solves them unsharded.  Availability is clamped to the
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
   empty queue.  A nominal boundary would start a band mid-cluster,
   and the band-local clusters would come out shifted — correct only
   after the fixup re-matched the entire band, which is exactly the
   serial work sharding exists to avoid.  [nearest] is monotone in its
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
    (fun i -> { lo = uniq.(i); hi = uniq.(i + 1) })

(* Complete-family backends: snap band boundaries to true cluster cuts,
   so each band's greedy IS the global configuration on its window, and
   solve every band straight into its own rows of one shared [Config].
   One scratch pair serves the cut scan and then every band: each band
   resets and touches only its own window of the scratch and of the
   configuration's segments, so the fan-out is race-free for any [jobs]
   and jobs-invariant by construction.  That is also why the caller's
   arena may be used here: its buffers are taken once, on the
   coordinator, and no worker touches the arena itself.  The bands
   write segments only; one [Config.seal] derives the rest, and the
   fixup certifies the result. *)
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
         let { lo; hi } = ranges.(i) in
         Greedy.solve_window config ~avail ~next ~lo ~hi));
  Obs.Profile.stop "shard.band_solve" ~ops:nbands solve;
  let stitch = Obs.Profile.start () in
  Config.seal config;
  Obs.Profile.stop "shard.stitch" ~ops:nbands stitch;
  (* Seed the fixup worklist with every peer left with a free slot.
     Nothing more is needed: mate lists are band-local, and two full
     peers with band-local mates can never block across a boundary
     (each one's worst mate outranks the whole of the other's band), so
     free-slot seeding covers every possible blocking-pair endpoint
     (see shard.mli). *)
  let sched = Scheduler.create ~n in
  for p = 0 to n - 1 do
    if Config.free_slots config p > 0 && Instance.slots inst p > 0 && Instance.degree inst p > 0
    then Scheduler.push sched p
  done;
  Obs.Counter.add c_seeded (Scheduler.length sched);
  (* Rank-ordered drain with Best_mate: consumes no randomness, pops
     lowest rank first — the deterministic fixed-order fixup.  An empty
     queue certifies stability (Scheduler invariant), and by Theorem 1's
     uniqueness the result equals the unsharded one. *)
  let state = Initiative.create_state inst in
  let fixup = Obs.Profile.start () in
  let active, pops = Scheduler.drain sched config state Initiative.Best_mate (Rng.create 0) in
  Obs.Profile.stop "shard.fixup" ~ops:pops fixup;
  Obs.Counter.add c_active active;
  Obs.Counter.add c_pops pops;
  config

let stable_config ?(jobs = 1) ?(bands = 1) ?arena inst =
  let n = Instance.n inst in
  if jobs < 1 then
    invalid_arg (Printf.sprintf "Shard.stable_config: jobs must be >= 1 (got %d)" jobs);
  if bands < 1 then
    invalid_arg (Printf.sprintf "Shard.stable_config: bands must be >= 1 (got %d)" bands);
  if bands > max 1 n then
    invalid_arg
      (Printf.sprintf "Shard.stable_config: %d bands exceed the %d-peer population" bands n);
  match Instance.backend_kind inst with
  | (`Complete | `Complete_minus) when bands > 1 -> solve_snapped ~jobs ~bands ?arena inst
  | `Complete | `Complete_minus | `Dense | `Dynamic ->
      (* One band, or a sparse acceptance graph: §5's Erdős–Rényi graphs
         have no rank cuts (at G(10⁴, d = 10), b = 3 the median
         stable pair spans about 1,200 ranks), so any band split leaves
         a serial repair costlier than the plain greedy (DESIGN.md
         §11). *)
      Greedy.stable_config ?arena inst
