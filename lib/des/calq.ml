(* Calendar queue backend (`--queue calendar`): a power-of-two array of
   "day" buckets, each a sorted intrusive list, cycled through year after
   year.  Insert hashes the event time to its bucket; pop sweeps at most
   one year's worth of buckets starting from the day of the last popped
   event, falling back to a direct min-over-bucket-heads search when the
   year comes up empty (a long jump in the schedule).  With near-uniform
   inter-event gaps — exactly what `Net`'s latency draws produce — both
   operations are O(1) amortized (R. Brown, CACM 1988).

   Determinism: equal times always hash to the same bucket, and within a
   bucket entries are kept sorted by (time, seq), so the pop order is the
   total (time, seq) order — byte-identical to the heap backend.

   The pop sweep commits no cursor state: the scan origin is always the
   time of the last *removed* event, so a fruitless probe (pop_min with a
   max_time cutoff) cannot skip over entries inserted behind it.  That is
   sound because the engine guarantees inserts never predate the last
   removal (schedule_at rejects past times, and the clock is monotone).

   Entries live in a structure-of-arrays pool threaded by a free list:
   steady-state insert/remove touches only scalar arrays and never
   allocates.  All mutable floats sit in an all-float record ([geo]) so
   stores stay unboxed (mixed-record float fields would box on every
   write). *)

type geo = {
  mutable width : float;  (* bucket ("day") width in simulated time *)
  mutable last : float;   (* time of the last removed entry: pop scan origin *)
}

type t = {
  g : geo;
  mutable mask : int;       (* bucket count - 1; bucket count is a power of two *)
  mutable head : int array; (* bucket -> first pool index, -1 when empty *)
  (* entry pool (structure of arrays) *)
  mutable pt : float array; (* entry time *)
  mutable ps : int array;   (* entry seq *)
  mutable pv : int array;   (* entry slot (the engine's payload handle) *)
  mutable pn : int array;   (* next entry in bucket list / free list, -1 ends *)
  mutable free : int;       (* free-list head through [pn] *)
  mutable size : int;
  mutable resizes : int;    (* bucket-array rebuilds, exposed for tests *)
}

let initial_buckets = 16
let max_bucket_bits = 22 (* cap the directory at 4M buckets *)

let create () =
  {
    g = { width = 1.0; last = 0.0 };
    mask = initial_buckets - 1;
    head = Array.make initial_buckets (-1);
    pt = [||];
    ps = [||];
    pv = [||];
    pn = [||];
    free = -1;
    size = 0;
    resizes = 0;
  }

let size t = t.size
let buckets t = t.mask + 1
let resizes t = t.resizes

let grow_pool t =
  let cap = Array.length t.pn in
  let cap' = max 16 (2 * cap) in
  let pt = Array.make cap' 0.
  and ps = Array.make cap' 0
  and pv = Array.make cap' 0
  and pn = Array.make cap' (-1) in
  Array.blit t.pt 0 pt 0 cap;
  Array.blit t.ps 0 ps 0 cap;
  Array.blit t.pv 0 pv 0 cap;
  Array.blit t.pn 0 pn 0 cap;
  (* thread the fresh slots onto the free list *)
  for i = cap to cap' - 2 do
    pn.(i) <- i + 1
  done;
  pn.(cap' - 1) <- t.free;
  t.free <- cap;
  t.pt <- pt;
  t.ps <- ps;
  t.pv <- pv;
  t.pn <- pn

let[@inline] alloc t =
  if t.free = -1 then grow_pool t;
  let e = t.free in
  t.free <- t.pn.(e);
  e

(* Bucket of [time]: position within the repeating year, divided by the
   day width.  Float.rem avoids the int overflow of a global day count
   when times are large relative to the width. *)
let[@inline] bucket_of t time =
  let w = t.g.width in
  let year = w *. float_of_int (t.mask + 1) in
  let pos = Float.rem time year in
  int_of_float (pos /. w) land t.mask

(* Sorted insert of pool entry [e] into bucket [b] by (time, seq).  The
   key is re-read from the pool ([pt]/[ps]) rather than passed in: a
   freshly computed float argument would box at every call site under
   the non-flambda compiler. *)
let link t b e =
  let time = t.pt.(e) and seq = t.ps.(e) in
  let h = t.head.(b) in
  if h = -1 || time < t.pt.(h) || (time = t.pt.(h) && seq < t.ps.(h)) then begin
    t.pn.(e) <- h;
    t.head.(b) <- e
  end
  else begin
    let prev = ref h in
    let cur = ref t.pn.(h) in
    while
      !cur <> -1 && (t.pt.(!cur) < time || (t.pt.(!cur) = time && t.ps.(!cur) < seq))
    do
      prev := !cur;
      cur := t.pn.(!cur)
    done;
    t.pn.(e) <- !cur;
    t.pn.(!prev) <- e
  end

(* Rebuild the bucket directory with [bits'] bucket bits and a width
   recomputed from the current contents: the span of pending times over
   the population, aiming for a few entries per day.  Deterministic — a
   pure function of the queue contents — so backend invariance survives
   resizes.  Degenerate spans (all times equal) keep the old width. *)
let rebuild t bits' =
  let nb' = 1 lsl bits' in
  let old_head = t.head in
  (* span of pending times *)
  let tmin = ref infinity and tmax = ref neg_infinity in
  Array.iter
    (fun h ->
      let cur = ref h in
      while !cur <> -1 do
        if t.pt.(!cur) < !tmin then tmin := t.pt.(!cur);
        if t.pt.(!cur) > !tmax then tmax := t.pt.(!cur);
        cur := t.pn.(!cur)
      done)
    old_head;
  let span = !tmax -. !tmin in
  if t.size > 1 && span > 0. && span < infinity then begin
    let w = span /. float_of_int t.size *. 1.5 in
    (* keep the day width sane: no denormals, no zero *)
    if w > 1e-300 then t.g.width <- w
  end;
  t.head <- Array.make nb' (-1);
  t.mask <- nb' - 1;
  t.resizes <- t.resizes + 1;
  Array.iter
    (fun h ->
      let cur = ref h in
      while !cur <> -1 do
        let e = !cur in
        cur := t.pn.(e);
        link t (bucket_of t t.pt.(e)) e
      done)
    old_head

let bits t =
  let rec go b = if 1 lsl b >= t.mask + 1 then b else go (b + 1) in
  go 0

let add t times ~seq ~slot =
  let e = alloc t in
  let time = times.(slot) in
  t.pt.(e) <- time;
  t.ps.(e) <- seq;
  t.pv.(e) <- slot;
  link t (bucket_of t time) e;
  t.size <- t.size + 1;
  if t.size > 2 * (t.mask + 1) && bits t < max_bucket_bits then rebuild t (bits t + 1)

(* Find (without removing) the minimum-key entry: sweep the buckets of
   the current year from the day containing [g.last] upward.  Every
   remaining entry has time >= g.last, and bucket assignment is monotone
   in year position, so the first bucket head belonging to the current
   year is the global minimum.  The year test is exact: [Float.rem] is
   an exact operation, so [time -. Float.rem time year] is the rounding
   of the true year start — equal floats iff two times share a year,
   with no accumulated window arithmetic to drift.  An empty sweep means
   the next event is beyond this year: direct-search the bucket heads. *)
let find_min t =
  let w = t.g.width in
  let nb = t.mask + 1 in
  let year = w *. float_of_int nb in
  let pos = Float.rem t.g.last year in
  let b0 = int_of_float (pos /. w) land t.mask in
  let year_start = t.g.last -. pos in
  let best = ref (-1) in
  let b = ref b0 in
  while !best = -1 && !b < nb do
    let h = t.head.(!b) in
    if h <> -1 && t.pt.(h) -. Float.rem t.pt.(h) year = year_start then best := h
    else incr b
  done;
  if !best = -1 then begin
    (* long jump: min over all bucket heads (each head is its bucket's min) *)
    for bb = 0 to nb - 1 do
      let h = t.head.(bb) in
      if h <> -1 then
        if
          !best = -1
          || t.pt.(h) < t.pt.(!best)
          || (t.pt.(h) = t.pt.(!best) && t.ps.(h) < t.ps.(!best))
        then best := h
    done
  end;
  !best

(* Unlink the minimum entry [e] found by [find_min] and return its slot. *)
let remove_min t e =
  let b = bucket_of t t.pt.(e) in
  (* the minimum is necessarily its bucket's head *)
  t.head.(b) <- t.pn.(e);
  t.g.last <- t.pt.(e);
  let slot = t.pv.(e) in
  t.pn.(e) <- t.free;
  t.free <- e;
  t.size <- t.size - 1;
  if t.size < (t.mask + 1) / 2 && t.mask + 1 > initial_buckets then rebuild t (bits t - 1);
  slot

let pop_min t ~max_time =
  if t.size = 0 then -1
  else begin
    let e = find_min t in
    if t.pt.(e) > max_time then -1 else remove_min t e
  end

let pop_before t times ~slot ~seq =
  if t.size = 0 then -1
  else begin
    let e = find_min t in
    let bt = times.(slot) and et = t.pt.(e) in
    if et < bt || (et = bt && t.ps.(e) < seq) then remove_min t e else -1
  end

let clear t =
  t.g.width <- 1.0;
  t.g.last <- 0.0;
  t.mask <- initial_buckets - 1;
  t.head <- Array.make initial_buckets (-1);
  t.pt <- [||];
  t.ps <- [||];
  t.pv <- [||];
  t.pn <- [||];
  t.free <- -1;
  t.size <- 0
