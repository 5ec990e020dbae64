(* Mate storage is one flat [int array]: peer [p]'s mates live in
   [data.(off.(p)) .. data.(off.(p) + deg.(p) - 1)], sorted increasingly
   (= best-ranked first).  Each segment's capacity is
   [min b(p) (acceptance degree of p)], so total storage is O(n·b̄) even
   on a complete acceptance graph.  [connect]/[disconnect] are O(b)
   in-place shifts — no list cells, no allocation on the dynamics' hot
   path — and [degree]/[worst_mate]/[free_slots] are O(1) reads.

   Two derived structure-of-arrays views are maintained alongside the
   segments (DESIGN.md §13):

   - [thresh.(p)] encodes [Blocking.would_accept] as a single load:
     [max_int] while p has a free slot, otherwise its worst mate's rank
     ([-1] when full and unmated, i.e. b(p) = 0 — no rank label is
     [< -1], so such a peer accepts nobody).  The invariant
     "q < thresh.(p)  ⟺  p would accept q" holds for every q ≥ 0.

   - [mask.(p)] is a word-packed 63-bit occupancy filter of the mate
     set: bit [q mod 63] is set whenever q is a mate of p.  A clear bit
     proves non-matedness with one load; a set bit falls back to the
     exact segment scan.  The filter is sound for any budget, but only
     selective when b̄ ≤ 63 (beyond that it saturates), so [use_mask]
     defaults to [bmax ≤ 63] and the flat scan remains the reference
     path — [set_use_mask] lets the equivalence tests force either. *)
type t = {
  instance : Instance.t;
  off : int array;  (* n+1 segment offsets into [data] *)
  data : int array;
  deg : int array;  (* current mate count per peer *)
  bs : int array;  (* slot budgets, shared with the instance *)
  thresh : int array;  (* acceptance threshold; would_accept p q ⟺ q < thresh.(p) *)
  mask : int array;  (* 63-bit mate filter over q mod 63 *)
  tpow : int;  (* leaf count of [tmax]: smallest power of two ≥ max 1 n *)
  tmax : int array;  (* max segment tree over [thresh]; leaves at tpow + q *)
  mutable use_mask : bool;
  mutable edges : int;
}

let mask_bits = 63

(* [tmax] turns the accepts-back sweep inside out: instead of probing
   thresh.(q) one q at a time, "leftmost q in [lo, hi) with
   thresh.(q) > p" descends the max tree in O(log n) — the
   complete-backend [Blocking] scan drops from O(n) per peer to
   O((b + 1) log n).  Leaves past n hold [min_int] (no rank label
   exceeds it is ever sought), so padding can never be returned. *)

let rec tree_up (tmax : int array) i =
  if i >= 1 then begin
    let l = Array.unsafe_get tmax (2 * i) and r = Array.unsafe_get tmax ((2 * i) + 1) in
    let m = if l < r then r else l in
    if m <> Array.unsafe_get tmax i then begin
      Array.unsafe_set tmax i m;
      tree_up tmax (i / 2)
    end
  end

(* Leftmost q in [lo, hi) with thresh.(q) > p, else -1.  [node] covers
   [nlo, nlo + size); subtrees whose max is ≤ p are pruned whole, so
   the leftmost-descent visits O(log n) nodes.  Non-tail recursion
   depth is log2 tpow ≤ 62; no allocation. *)
let rec tree_first (tmax : int array) (p : int) lo hi node nlo size =
  if nlo + size <= lo || nlo >= hi || Array.unsafe_get tmax node <= p then -1
  else if size = 1 then nlo
  else begin
    let half = size lsr 1 in
    let l = tree_first tmax p lo hi (2 * node) nlo half in
    if l >= 0 then l else tree_first tmax p lo hi ((2 * node) + 1) (nlo + half) half
  end

(* [p]'s acceptance threshold as its segment implies it: [max_int]
   while a slot is free, [-1] when full and unmated (b(p) = 0), else
   its worst mate's rank. *)
let[@inline always] thresh_of t p =
  let d = Array.unsafe_get t.deg p in
  if d < Array.unsafe_get t.bs p then max_int
  else if d = 0 then -1
  else Array.unsafe_get t.data (Array.unsafe_get t.off p + d - 1)

(* [p]'s 63-bit mate filter, rebuilt from its segment. *)
let[@inline always] mask_of t p =
  let base = t.off.(p) and d = t.deg.(p) in
  let m = ref 0 in
  for i = 0 to d - 1 do
    m := !m lor (1 lsl (Array.unsafe_get t.data (base + i) mod mask_bits))
  done;
  !m

(* Derive every view the segments determine — [thresh], the [tmax]
   tree, the mate filter and [edges] — in one pass over the rows: what
   [empty] starts from, and what the ordered row writer ([append])
   finishes with.  It overwrites every view entry it will read, so of
   [unsealed]'s placeholder contents only the [min_int] leaves past [n]
   matter. *)
let seal t =
  let n = Array.length t.deg in
  let total = ref 0 in
  for p = 0 to n - 1 do
    total := !total + t.deg.(p);
    t.mask.(p) <- mask_of t p;
    let v = thresh_of t p in
    t.thresh.(p) <- v;
    t.tmax.(t.tpow + p) <- v
  done;
  for i = t.tpow - 1 downto 1 do
    t.tmax.(i) <- Int.max t.tmax.(2 * i) t.tmax.((2 * i) + 1)
  done;
  t.edges <- !total / 2

(* The allocation alone: empty segments, and views that [seal] has not
   derived yet.  Algorithm 1 fills the segments through [append] and
   then seals, so a build derives its views exactly once. *)
let unsealed instance =
  let n = Instance.n instance in
  let off = Array.make (n + 1) 0 in
  (* [`Dynamic] degrees change after construction, so capacity must be
     the full budget; the frozen backends clamp to the degree. *)
  let clamp_degree =
    match Instance.backend_kind instance with `Dynamic -> false | _ -> true
  in
  for p = 0 to n - 1 do
    let cap =
      if clamp_degree then Int.min (Instance.slots instance p) (Instance.degree instance p)
      else Instance.slots instance p
    in
    off.(p + 1) <- off.(p) + cap
  done;
  let bs = Instance.raw_slots instance in
  let bmax = Array.fold_left Int.max 0 bs in
  let tpow =
    let m = ref 1 in
    while !m < n do
      m := !m * 2
    done;
    !m
  in
  {
    instance;
    off;
    data = Array.make off.(n) (-1);
    deg = Array.make n 0;
    bs;
    thresh = Array.make (max 1 n) 0;
    mask = Array.make (max 1 n) 0;
    tpow;
    tmax = Array.make (2 * tpow) min_int;
    use_mask = bmax <= mask_bits;
    edges = 0;
  }

let empty instance =
  let t = unsealed instance in
  seal t;
  t

let instance t = t.instance
let degree t p = t.deg.(p)
let free_slots t p = t.bs.(p) - t.deg.(p)
let mate_at t p i = t.data.(t.off.(p) + i)

let mates t p =
  let base = t.off.(p) in
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.data.(base + i) :: acc) in
  go (t.deg.(p) - 1) []

let best_mate t p = if t.deg.(p) = 0 then None else Some t.data.(t.off.(p))

(* O(1): segments are sorted, so the worst mate is the last entry.
   [Blocking.would_accept] is one load of the derived [thresh] array;
   [worst_rank] is the allocation-free variant ([-1] when unmated) for
   callers that need the rank even with a free slot open. *)
let worst_rank t p =
  let d = t.deg.(p) in
  if d = 0 then -1 else t.data.(t.off.(p) + d - 1)

let worst_mate t p = let w = worst_rank t p in if w < 0 then None else Some w

(* Re-derive [thresh.(p)] after any change to p's degree or worst mate,
   and propagate into the max tree — [tree_up] stops at the first
   ancestor whose max is unchanged, so most refreshes touch one or two
   nodes.  Called from [insert]/[remove]. *)
let[@inline always] refresh_thresh t p =
  let v = thresh_of t p in
  if v <> Array.unsafe_get t.thresh p then begin
    Array.unsafe_set t.thresh p v;
    let leaf = t.tpow + p in
    Array.unsafe_set t.tmax leaf v;
    tree_up t.tmax (leaf / 2)
  end

(* Leftmost q in [lo, hi) that would accept p (thresh.(q) > p), or -1 —
   the tree-backed form of the accepts-back sweep.  O(log n). *)
let first_accepting t ~lo ~hi p =
  if lo >= hi then -1 else tree_first t.tmax p lo hi 1 0 t.tpow

(* Rebuild [mask.(p)] from the segment — removals can clear a bit only
   if no remaining mate shares the residue, so the O(b) rebuild is the
   simplest sound update. *)
let[@inline always] refresh_mask t p = t.mask.(p) <- mask_of t p

(* Exact membership: early-exit scan over the short, sorted, flat
   segment; all comparisons are immediate int compares.  The scan is a
   module-level function with explicit state — a local [let rec] would
   box a closure per call, and membership sits on the dynamics' hot
   path (every [is_blocking] probe that survives the mask). *)
(* The [int array] annotation is load-bearing (as in [Blocking]'s
   kernels): unannotated, the function generalizes and every compare
   becomes a [caml_compare] C call. *)
let rec seg_mem (data : int array) base d (q : int) i =
  i < d
  &&
  let x = Array.unsafe_get data (base + i) in
  if x >= q then x = q else seg_mem data base d q (i + 1)

let mated_linear t p q = seg_mem t.data t.off.(p) t.deg.(p) q 0

(* Filtered membership: a clear mask bit proves q unmated in one load;
   a set bit defers to the exact scan.  With [use_mask] off this IS the
   linear scan — the qcheck equivalence properties pin the two paths
   against each other. *)
let mated t p q =
  if t.use_mask && t.mask.(p) land (1 lsl (q mod mask_bits)) = 0 then false
  else mated_linear t p q

let mask_enabled t = t.use_mask
let set_use_mask t b = t.use_mask <- b

(* Insert [q] into [p]'s sorted segment, shifting the tail right.  The
   caller guarantees a free slot, so [base + d] is within capacity.
   Scanning from the end makes ascending-order insertion (the greedy
   builder's pattern) O(1). *)
let insert t p q =
  let base = t.off.(p) in
  let d = t.deg.(p) in
  let i = ref (base + d - 1) in
  while !i >= base && t.data.(!i) > q do
    t.data.(!i + 1) <- t.data.(!i);
    decr i
  done;
  t.data.(!i + 1) <- q;
  t.deg.(p) <- d + 1;
  t.mask.(p) <- t.mask.(p) lor (1 lsl (q mod mask_bits));
  refresh_thresh t p

(* Remove [q] from [p]'s segment, shifting the tail left.  Returns
   whether [q] was present.  [seg_index] is static for the same reason
   as [seg_mem]: [disconnect] runs once per churn event and twice per
   displacement, and a per-call closure here showed up as 14 words per
   drop in bench.profile's repair window. *)
let rec seg_index (data : int array) base d (q : int) i =
  if i >= d then -1
  else if Array.unsafe_get data (base + i) = q then i
  else seg_index data base d q (i + 1)

let remove t p q =
  let base = t.off.(p) in
  let d = t.deg.(p) in
  let i = seg_index t.data base d q 0 in
  i >= 0
  && begin
       for j = base + i to base + d - 2 do
         t.data.(j) <- t.data.(j + 1)
       done;
       t.deg.(p) <- d - 1;
       refresh_mask t p;
       refresh_thresh t p;
       true
     end

let connect t p q =
  if p = q then invalid_arg "Config.connect: self-collaboration";
  if not (Instance.accepts t.instance p q) then
    invalid_arg "Config.connect: pair not in the acceptance graph";
  if mated t p q then invalid_arg "Config.connect: already mates";
  if free_slots t p <= 0 || free_slots t q <= 0 then
    invalid_arg "Config.connect: no free slot";
  insert t p q;
  insert t q p;
  t.edges <- t.edges + 1

let disconnect t p q =
  if not (remove t p q) then invalid_arg "Config.disconnect: not mates";
  ignore (remove t q p);
  t.edges <- t.edges - 1

(* Sentinel variant of [drop_worst]: the dynamics' hot path uses this to
   avoid boxing an option per performed initiative. *)
let drop_worst_rank t p =
  let w = worst_rank t p in
  if w >= 0 then disconnect t p w;
  w

let drop_worst t p =
  let w = drop_worst_rank t p in
  if w < 0 then None else Some w

let edge_count t = t.edges

let iter_pairs f t =
  let n = Array.length t.deg in
  for p = 0 to n - 1 do
    let base = t.off.(p) in
    for i = 0 to t.deg.(p) - 1 do
      let q = t.data.(base + i) in
      if p < q then f p q
    done
  done

let copy t =
  {
    instance = t.instance;
    off = t.off;  (* immutable after [empty] — safe to share *)
    data = Array.copy t.data;
    deg = Array.copy t.deg;
    bs = t.bs;  (* shared with the instance, never mutated *)
    thresh = Array.copy t.thresh;
    tpow = t.tpow;
    tmax = Array.copy t.tmax;
    mask = Array.copy t.mask;
    use_mask = t.use_mask;
    edges = t.edges;
  }

(* Both configs come from the same instance (documented contract), so
   their segment offsets coincide and per-peer comparison is a flat
   int-array scan. *)
let same_mates a b p =
  let d = a.deg.(p) in
  d = b.deg.(p)
  &&
  let base = a.off.(p) in
  let rec go i = i >= d || (a.data.(base + i) = b.data.(base + i) && go (i + 1)) in
  go 0

let equal a b =
  a.edges = b.edges
  && begin
       let n = Array.length a.deg in
       let rec check p = p >= n || (same_mates a b p && check (p + 1)) in
       check 0
     end

let signature t =
  let buf = Buffer.create (max 16 (16 * t.edges)) in
  let n = Array.length t.deg in
  for p = 0 to n - 1 do
    let base = t.off.(p) in
    for i = 0 to t.deg.(p) - 1 do
      let q = t.data.(base + i) in
      if p < q then begin
        Buffer.add_string buf (string_of_int p);
        Buffer.add_char buf ':';
        Buffer.add_string buf (string_of_int q);
        Buffer.add_char buf ';'
      end
    done
  done;
  Buffer.contents buf

let to_adjacency t = Array.init (Array.length t.deg) (fun p -> Array.sub t.data t.off.(p) t.deg.(p))

(* The ordered row writer.  Algorithm 1 produces every segment in
   ascending order (a peer's mates from earlier scans first, then the
   ones it claims itself), so a pair lands with one store per side: no
   search, no shift, no per-pair refresh of [thresh], [tmax] or [mask].
   [append] touches only [p]'s segment and degree — which is what lets
   disjoint rank windows fill from different domains — and leaves the
   derived views stale until the one [seal] pass. *)
let append t p q =
  let n = Array.length t.deg in
  if p < 0 || p >= n || q < 0 || q >= n then invalid_arg "Config.append: peer outside the population";
  let d = t.deg.(p) and base = t.off.(p) in
  if base + d >= t.off.(p + 1) then invalid_arg "Config.append: segment full";
  if d > 0 && t.data.(base + d - 1) >= q then invalid_arg "Config.append: mate not above the last";
  t.data.(base + d) <- q;
  t.deg.(p) <- d + 1

let of_pairs instance pairs =
  let t = empty instance in
  List.iter (fun (p, q) -> connect t p q) pairs;
  t

let raw_off t = t.off
let raw_data t = t.data
let raw_deg t = t.deg
let raw_thresh t = t.thresh
