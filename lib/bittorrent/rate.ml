(* Window [k] occupies [buckets] and [stamps] at [k * window ..
   k * window + window - 1]; [buckets.(k * window + tick mod window)] is
   the data of the tick [stamps] records there.  [record] and [rate] are
   inlined into the swarm's tick, so their float argument and result
   never box (DESIGN.md §13). *)
type t = { window : int; buckets : float array; stamps : int array; totals : float array }

let create ~window k =
  if window <= 0 then invalid_arg "Rate.create: window must be positive";
  if k < 0 then invalid_arg "Rate.create: negative window count";
  {
    window;
    buckets = Array.make (k * window) 0.;
    stamps = Array.make (k * window) (-1);
    totals = Array.make k 0.;
  }

let window t = t.window

let[@inline] record t k ~tick amount =
  let slot = (k * t.window) + (tick mod t.window) in
  if t.stamps.(slot) <> tick then begin
    t.buckets.(slot) <- 0.;
    t.stamps.(slot) <- tick
  end;
  t.buckets.(slot) <- t.buckets.(slot) +. amount;
  t.totals.(k) <- t.totals.(k) +. amount

let[@inline] rate t k ~tick =
  let base = k * t.window in
  let acc = ref 0. in
  for slot = base to base + t.window - 1 do
    let stamp = t.stamps.(slot) in
    if stamp >= 0 && tick - stamp < t.window && stamp <= tick then
      acc := !acc +. t.buckets.(slot)
  done;
  !acc /. float_of_int t.window

let total t k = t.totals.(k)

let clear t k =
  Array.fill t.buckets (k * t.window) t.window 0.;
  Array.fill t.stamps (k * t.window) t.window (-1);
  t.totals.(k) <- 0.

let dump t k =
  ( Array.sub t.buckets (k * t.window) t.window,
    Array.sub t.stamps (k * t.window) t.window,
    t.totals.(k) )

let restore t k ~buckets ~stamps ~total =
  if Array.length buckets <> t.window || Array.length stamps <> t.window then
    invalid_arg
      (Printf.sprintf "Rate.restore: need %d buckets and stamps, got %d and %d" t.window
         (Array.length buckets) (Array.length stamps));
  Array.blit buckets 0 t.buckets (k * t.window) t.window;
  Array.blit stamps 0 t.stamps (k * t.window) t.window;
  t.totals.(k) <- total
