(* Ladder queue backend (`--queue ladder`): three tiers — an unsorted
   Top catching far-future inserts, a ladder of rungs that recursively
   subdivide the near future into bucket spans, and a sorted Bottom the
   next events are popped from (Tang, Goh & Thng, ACM TOMACS 2005,
   simplified).  Skewed or bursty schedules that defeat a calendar
   queue's uniform day width land in one rung bucket and are re-bucketed
   at finer width only when their turn comes ("spawning" a child rung);
   buckets at or below [sort_threshold] are insertion-sorted into Bottom
   instead.

   Determinism: every element reaches Bottom before being popped, and
   Bottom is sorted by the total key (time, seq), so the pop sequence
   equals the heap backend's.  Tier routing preserves one invariant:
   anything in a rung or Top is later (in key order) than anything that
   can still enter Bottom.  Each rung k owns the span
   [consumed_k, consumed_{k-1}) — consumed_k being the boundary of its
   already-drained bucket prefix — with Bottom below the finest boundary
   and Top at/above [top_start]; a bucket's span is consumed the moment
   its contents move down, so a late insert into a drained span drops
   through to Bottom and sorts correctly.  (The engine guarantees
   inserts never predate the last pop, which is what makes such inserts
   sortable into Bottom at all.)

   Bucket membership is decided by comparing against *stored* boundary
   floats — [bounds.(b) <= time < bounds.(b+1)] by binary search — never
   by re-deriving indices with division, whose rounding could disagree
   between insert and drain and misroute an event across the Bottom
   boundary by an ulp.  Comparisons against stored floats are exact, so
   the routing invariant is exact.

   Rungs (including their boundary and bucket arrays) are preallocated
   once and reused, and entries live in the same structure-of-arrays
   free-list pool as the other backends, so the steady state allocates
   nothing. *)

let nb = 32 (* buckets per rung *)
let sort_threshold = 64 (* bucket populations up to this sort straight into Bottom *)
let max_rungs = 60

type rung = {
  bounds : float array; (* nb + 1 ascending bucket boundaries *)
  heads : int array; (* per-bucket unsorted list heads, -1 when empty *)
  mutable rcur : int; (* first bucket not yet drained; consumed = bounds.(rcur) *)
  mutable rcount : int; (* entries remaining in this rung *)
}

(* All-float record: mutable floats in a mixed record would box on every
   store. *)
type tgeo = {
  mutable top_min : float;
  mutable top_max : float;
  mutable top_start : float; (* inserts at/above this go to Top *)
}

type t = {
  tg : tgeo;
  mutable top : int array; (* unsorted stack of pool indices *)
  mutable top_len : int;
  rungs : rung array; (* preallocated ladder, rungs.(0) is the coarsest *)
  mutable nrungs : int;
  mutable bottom : int; (* sorted list head through [pn], -1 when empty *)
  (* entry pool (structure of arrays) *)
  mutable pt : float array;
  mutable ps : int array;
  mutable pv : int array;
  mutable pn : int array;
  mutable free : int;
  mutable size : int;
  mutable spawned : int; (* child rungs ever spawned, exposed for tests *)
}

let create () =
  {
    tg = { top_min = infinity; top_max = neg_infinity; top_start = neg_infinity };
    top = [||];
    top_len = 0;
    rungs =
      Array.init max_rungs (fun _ ->
          { bounds = Array.make (nb + 1) 0.; heads = Array.make nb (-1); rcur = 0; rcount = 0 });
    nrungs = 0;
    bottom = -1;
    pt = [||];
    ps = [||];
    pv = [||];
    pn = [||];
    free = -1;
    size = 0;
    spawned = 0;
  }

let size t = t.size
let active_rungs t = t.nrungs
let spawned t = t.spawned

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

(* Sorted insert of entry [e] into Bottom by (time, seq).  The key is
   re-read from the pool rather than passed in: a float argument would
   box at every call site under the non-flambda compiler. *)
let bottom_link t e =
  let time = t.pt.(e) and seq = t.ps.(e) in
  let h = t.bottom in
  if h = -1 || time < t.pt.(h) || (time = t.pt.(h) && seq < t.ps.(h)) then begin
    t.pn.(e) <- h;
    t.bottom <- e
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

(* Largest b in [0, nb-1] with bounds.(b) <= time; callers guarantee
   time >= bounds.(0).  Times at or past bounds.(nb) (boundary-rounding
   stragglers) simply stay in the last bucket. *)
let[@inline] rung_bucket (r : rung) time =
  let lo = ref 0 and hi = ref (nb - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if r.bounds.(mid) <= time then lo := mid else hi := mid - 1
  done;
  !lo

(* Unsorted prepend of [e] into the right bucket of rung [r].  Key
   re-read from the pool; [rung_bucket] is [@inline] so the float never
   crosses a call boundary (which would box it). *)
let[@inline] rung_link t (r : rung) e =
  let b = rung_bucket r t.pt.(e) in
  t.pn.(e) <- r.heads.(b);
  r.heads.(b) <- e;
  r.rcount <- r.rcount + 1

let push_top t e =
  if t.top_len >= Array.length t.top then begin
    let cap' = max 16 (2 * Array.length t.top) in
    let top = Array.make cap' 0 in
    Array.blit t.top 0 top 0 t.top_len;
    t.top <- top
  end;
  t.top.(t.top_len) <- e;
  t.top_len <- t.top_len + 1;
  let time = t.pt.(e) in
  if time < t.tg.top_min then t.tg.top_min <- time;
  if time > t.tg.top_max then t.tg.top_max <- time

let add t times ~seq ~slot =
  let e = alloc t in
  let time = times.(slot) in
  t.pt.(e) <- time;
  t.ps.(e) <- seq;
  t.pv.(e) <- slot;
  t.size <- t.size + 1;
  if time >= t.tg.top_start then push_top t e
  else begin
    (* Consumed boundaries are non-increasing from coarse to fine, so
       the first rung accepting [time] is the one owning its span.  A
       fully drained rung ([rcur] = nb, possibly not yet retired — the
       lazy retirement happens in [ensure_bottom]) accepts nothing: its
       whole span is consumed, and parking an entry in a consumed
       bucket would hide it from the drain scan forever.  Falling
       through to a finer rung or Bottom keeps the order exact —
       everything still pending in coarser tiers is above [time]. *)
    let j = ref 0 in
    while
      !j < t.nrungs
      &&
      let r = t.rungs.(!j) in
      r.rcur >= nb || time < r.bounds.(r.rcur)
    do
      incr j
    done;
    if !j < t.nrungs then rung_link t t.rungs.(!j) e else bottom_link t e
  end

(* Spread [tmin, tmax] over a rung's nb buckets.  Returns false when the
   span is too degenerate to subdivide (equal or adjacent floats).
   Callers stage tmin into bounds.(0) and tmax into bounds.(nb) before
   the call — float arguments would box under the non-flambda compiler,
   and this runs on every rung spawn. *)
let fill_bounds (r : rung) =
  let tmin = r.bounds.(0) and tmax = r.bounds.(nb) in
  let w = (tmax -. tmin) /. float_of_int nb in
  if w > 0. && w < infinity then begin
    for i = 0 to nb do
      r.bounds.(i) <- tmin +. (float_of_int i *. w)
    done;
    (* strictly increasing somewhere, or subdivision is pointless *)
    r.bounds.(nb) > r.bounds.(0)
  end
  else false

let reset_rung (r : rung) =
  Array.fill r.heads 0 nb (-1);
  r.rcur <- 0;
  r.rcount <- 0

(* Strictly above [x], for raising [top_start] past everything moved
   down.  One relative ulp up by multiplication — [Float.succ] would do,
   but it allocates (it round-trips through boxed Int64 bit patterns).
   Simulated times are >= 0 and finite, so the multiply is strict for
   any positive x; 0 gets the smallest positive float. *)
let[@inline] above x = if x > 0. then x *. (1. +. epsilon_float) else Float.min_float

(* Move every entry of Top into rung 0 (or straight into Bottom when the
   span is degenerate), raising [top_start] strictly above everything
   moved so future Top inserts stay later than the whole ladder. *)
let transfer_top t =
  let tmax = t.tg.top_max in
  let r = t.rungs.(0) in
  reset_rung r;
  r.bounds.(0) <- t.tg.top_min;
  r.bounds.(nb) <- tmax;
  if fill_bounds r then begin
    t.nrungs <- 1;
    for i = 0 to t.top_len - 1 do
      rung_link t r t.top.(i)
    done;
    t.tg.top_start <- (if r.bounds.(nb) > tmax then r.bounds.(nb) else above tmax)
  end
  else begin
    (* all (essentially) equal times: sort directly into Bottom *)
    for i = 0 to t.top_len - 1 do
      bottom_link t t.top.(i)
    done;
    t.tg.top_start <- above tmax
  end;
  t.top_len <- 0;
  t.tg.top_min <- infinity;
  t.tg.top_max <- neg_infinity

(* Drain rung [j]'s next nonempty bucket: small or unsubdividable
   buckets insertion-sort into Bottom; big divisible ones spawn a child
   rung one level finer.  The child's bounds cover the *actual entry
   span* (measured during the count pass), not the parent bucket's
   nominal span: a bucket whose entries cluster on (near-)equal keys
   would otherwise respawn forever at ever-finer widths without ever
   separating them.  With entry-span bounds a degenerate cluster fails
   [fill_bounds] and insertion-sorts into Bottom instead — entries
   below the child's bounds.(0) cannot exist, so routing stays exact.
   Either way the bucket's span is consumed ([rcur] advances), so later
   inserts into it fall through to Bottom. *)
let drain_bucket t j =
  let r = t.rungs.(j) in
  while r.heads.(r.rcur) = -1 do
    r.rcur <- r.rcur + 1
  done;
  let b = r.rcur in
  let k = ref 0 in
  (* min/max tracked by entry index: float refs would box every store *)
  let emin = ref r.heads.(b) and emax = ref r.heads.(b) in
  let cur = ref r.heads.(b) in
  while !cur <> -1 do
    incr k;
    if t.pt.(!cur) < t.pt.(!emin) then emin := !cur;
    if t.pt.(!cur) > t.pt.(!emax) then emax := !cur;
    cur := t.pn.(!cur)
  done;
  let head = r.heads.(b) in
  r.heads.(b) <- -1;
  r.rcount <- r.rcount - !k;
  r.rcur <- b + 1;
  let spawn =
    !k > sort_threshold
    && j + 1 < max_rungs
    &&
    let r' = t.rungs.(j + 1) in
    reset_rung r';
    r'.bounds.(0) <- t.pt.(!emin);
    r'.bounds.(nb) <- t.pt.(!emax);
    fill_bounds r'
  in
  if spawn then begin
    let r' = t.rungs.(j + 1) in
    t.nrungs <- j + 2;
    t.spawned <- t.spawned + 1;
    let cur = ref head in
    while !cur <> -1 do
      let e = !cur in
      cur := t.pn.(e);
      rung_link t r' e
    done
  end
  else begin
    let cur = ref head in
    while !cur <> -1 do
      let e = !cur in
      cur := t.pn.(e);
      bottom_link t e
    done
  end

(* Make Bottom nonempty if the queue isn't: false only when empty. *)
let rec ensure_bottom t =
  if t.bottom <> -1 then true
  else if t.nrungs > 0 then begin
    let j = t.nrungs - 1 in
    if t.rungs.(j).rcount = 0 then t.nrungs <- j else drain_bucket t j;
    ensure_bottom t
  end
  else if t.top_len > 0 then begin
    transfer_top t;
    ensure_bottom t
  end
  else false

(* Unlink Bottom's head [e], the minimum, and return its slot. *)
let remove_min t e =
  t.bottom <- t.pn.(e);
  let slot = t.pv.(e) in
  t.pn.(e) <- t.free;
  t.free <- e;
  t.size <- t.size - 1;
  slot

let pop_min t ~max_time =
  if not (ensure_bottom t) then -1
  else begin
    let e = t.bottom in
    if t.pt.(e) > max_time then -1 else remove_min t e
  end

let pop_before t times ~slot ~seq =
  if not (ensure_bottom t) then -1
  else begin
    let e = t.bottom in
    let bt = times.(slot) and et = t.pt.(e) in
    if et < bt || (et = bt && t.ps.(e) < seq) then remove_min t e else -1
  end

let clear t =
  t.tg.top_min <- infinity;
  t.tg.top_max <- neg_infinity;
  t.tg.top_start <- neg_infinity;
  t.top <- [||];
  t.top_len <- 0;
  Array.iter reset_rung t.rungs;
  t.nrungs <- 0;
  t.bottom <- -1;
  t.pt <- [||];
  t.ps <- [||];
  t.pv <- [||];
  t.pn <- [||];
  t.free <- -1;
  t.size <- 0
