(* [Config.raw_thresh] encodes the whole acceptance predicate in one
   word per peer: q < thresh.(p) ⟺ p would accept q (free slot ⇒
   max_int, full ⇒ worst mate's rank, full-and-unmated ⇒ -1).  All
   kernels below are single-load forms of the PR 3 fused scans. *)

let would_accept c p q = q < (Config.raw_thresh c).(p)

(* Conjuncts ordered cheapest-first (two thresh loads, then the masked
   matedness probe, then the acceptance test); all are pure, so the
   order only affects speed. *)
let is_blocking c p q =
  p <> q
  && would_accept c p q
  && would_accept c q p
  && (not (Config.mated c p q))
  && Instance.accepts (Config.instance c) p q

(* [best_blocking_mate] is the dynamics' hot loop: near stability every
   Sim/Async step scans O(n) candidates and finds nothing, so the probe
   below runs hundreds of millions of times per experiment.  Rather than
   paying half a dozen cross-module accessor calls per probe (this build
   has no cross-module inlining), the kernels specialise per backend and
   read the flat arrays directly:

   - the scanning peer's acceptance threshold ([limit]) is one [thresh]
     load, fixed for the whole scan and hoisted — it also subsumes the
     b(p) = 0 early exit (thresh = -1 ⇒ empty scan range);
   - rows and mate segments are both increasing, so the "already mates"
     test is a moving cursor over [p]'s segment — O(b) for the whole
     scan instead of O(b) per probe; on the complete backend the whole
     sweep is one [Config.first_accepting] max-segment-tree descent —
     O(log n) per all-reject scan instead of O(n);
   - the accepts-back probe is a single [thresh] load.

   The scan order, early stop and result are identical to the generic
   expression [if not (would_accept c p q) then None else if not mated
   && would_accept c q p then Some q else next] probed best-first —
   [test_blocking] pins the equivalence on random instances.

   [Array.unsafe_get] is in range by construction: every probed q lies
   in [0, n) (backend invariant), the cursor stays ≤ deg.(p), and
   deg.(q) ≤ off.(q+1) - off.(q) keeps each data index below
   [Array.length data].  Returns [-1] when no blocking mate exists —
   the option-free form the steady-state loop allocates nothing on.

   The scan kernels live at module level with all state passed as
   arguments: a [let rec] inside the entry point would capture its
   environment in a heap-allocated closure on {e every call} (this
   build has no flambda to eliminate it), which is exactly the
   steady-state allocation the zero-alloc gate in bench forbids.
   The [int array] annotations are load-bearing: without them the
   kernels generalize over the element type and every comparison
   compiles to the generic [caml_lessthan] C call (and every array
   read to the float-checking generic path) — a silent 5x slowdown
   the closure form never exhibited because captures arrive typed. *)

(* Advance p's mate cursor past every mate ranked below q. *)
let rec mate_fwd (data : int array) base_p dp (q : int) mi =
  if mi < dp && Array.unsafe_get data (base_p + mi) < q then mate_fwd data base_p dp q (mi + 1)
  else mi

(* Kernel for materialized rows: row.(i..hi-1) is the acceptance list
   of p, increasing, possibly still containing [skip] = p itself
   (Complete_minus's [alive]).  [mi] is the mate cursor. *)
let rec scan_row (thresh : int array) (data : int array) base_p dp (p : int) (limit : int)
    (row : int array) i hi (skip : int) mi =
  if i >= hi then -1
  else begin
    let q = Array.unsafe_get row i in
    if q = skip then scan_row thresh data base_p dp p limit row (i + 1) hi skip mi
    else if q >= limit then -1
    else begin
      let mi = mate_fwd data base_p dp q mi in
      if mi < dp && Array.unsafe_get data (base_p + mi) = q then
        scan_row thresh data base_p dp p limit row (i + 1) hi skip (mi + 1)
      else if p < Array.unsafe_get thresh q then q
      else scan_row thresh data base_p dp p limit row (i + 1) hi skip mi
    end
  end

(* Complete backend: the row is 0,1,2,… minus p — pure arithmetic — and
   every candidate probe is the accepts-back test [p < thresh.(q)], so
   the whole scan collapses to "leftmost q < hi whose thresh exceeds p":
   exactly [Config.first_accepting]'s max-segment-tree descent.  Near
   stability nobody accepts back and the query answers -1 in O(log n)
   where the linear sweep paid O(n); the rare hits that land on p
   itself or an existing mate (both skipped by the generic scan's
   order) re-query from q + 1 — at most b(p) + 1 extra descents. *)
let rec complete_next c (p : int) hi cur =
  let q = Config.first_accepting c ~lo:cur ~hi p in
  if q < 0 then -1
  else if q = p || Config.mated c p q then complete_next c p hi (q + 1)
  else q

let best_blocking_mate_int c p =
  let inst = Config.instance c in
  let off = Config.raw_off c in
  let data = Config.raw_data c in
  let deg = Config.raw_deg c in
  let thresh = Config.raw_thresh c in
  let base_p = Array.unsafe_get off p in
  let dp = Array.unsafe_get deg p in
  let limit = Array.unsafe_get thresh p in
  match Instance.raw_backend inst with
  | Instance.Raw_complete ->
      let n = Instance.n inst in
      let hi = if limit < n then limit else n in
      complete_next c p hi 0
  | Instance.Raw_dense { off = goff; data = gdata } ->
      scan_row thresh data base_p dp p limit gdata goff.(p) goff.(p + 1) (-1) 0
  | Instance.Raw_complete_minus { alive; pos } ->
      if pos.(p) < 0 then -1
      else scan_row thresh data base_p dp p limit alive 0 (Array.length alive) p 0
  | Instance.Raw_dynamic { rows; len } ->
      scan_row thresh data base_p dp p limit rows.(p) 0 len.(p) (-1) 0

let best_blocking_mate c p =
  let q = best_blocking_mate_int c p in
  if q < 0 then None else Some q

(* Circular decremental scan with the cursor state threaded as a flat
   array: reads [cursors.(p)] as the start position and, only on a hit,
   stores the follow-up position back, without boxing a tuple option per
   probe.  Static for the same reason as the kernels above: a per-call
   closure would put the decremental steady state back on the
   allocator. *)
let rec cursor_scan c inst cursors p len start step =
  if step >= len then -1
  else begin
    let i = (start + step) mod len in
    let q = Instance.acceptable_at inst p i in
    if is_blocking c p q then begin
      cursors.(p) <- (i + 1) mod len;
      q
    end
    else cursor_scan c inst cursors p len start (step + 1)
  end

let blocking_mate_cursor c p cursors =
  let inst = Config.instance c in
  let len = Instance.degree inst p in
  if len = 0 then -1
  else begin
    let start =
      let s = cursors.(p) mod len in
      if s < 0 then s + len else s
    in
    cursor_scan c inst cursors p len start 0
  end

let blocking_pairs c =
  let inst = Config.instance c in
  let out = ref [] in
  for p = Instance.n inst - 1 downto 0 do
    Instance.iter_acceptable inst p (fun q ->
        if p < q && is_blocking c p q then out := (p, q) :: !out)
  done;
  !out

let first_blocking_pair c =
  let inst = Config.instance c in
  let n = Instance.n inst in
  let rec loop p =
    if p >= n then None
    else
      let q = best_blocking_mate_int c p in
      if q >= 0 then Some (min p q, max p q) else loop (p + 1)
  in
  loop 0

let is_stable c = match first_blocking_pair c with None -> true | Some _ -> false
