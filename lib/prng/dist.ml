let uniform rng ~lo ~hi = lo +. Rng.unit_float rng *. (hi -. lo)

let rec normal rng ~mu ~sigma =
  (* Marsaglia polar method; we discard the second variate to keep the
     sampler stateless with respect to the caller. *)
  let u = (2. *. Rng.unit_float rng) -. 1. in
  let v = (2. *. Rng.unit_float rng) -. 1. in
  let s = (u *. u) +. (v *. v) in
  if s >= 1. || s = 0. then normal rng ~mu ~sigma
  else mu +. (sigma *. u *. sqrt (-2. *. log s /. s))

let lognormal rng ~mu ~sigma = exp (normal rng ~mu ~sigma)

let exponential rng ~rate =
  if rate <= 0. then invalid_arg "Dist.exponential: rate must be positive";
  -.log1p (-.Rng.unit_float rng) /. rate

let geometric rng ~p =
  if p <= 0. || p > 1. then invalid_arg "Dist.geometric: p must be in (0,1]";
  if p = 1. then 0
  else
    let u = Rng.unit_float rng in
    int_of_float (floor (log1p (-.u) /. log1p (-.p)))

let poisson_knuth rng lambda =
  let limit = exp (-.lambda) in
  let rec loop k prod =
    let prod = prod *. Rng.unit_float rng in
    if prod <= limit then k else loop (k + 1) prod
  in
  loop 0 1.

let poisson rng ~lambda =
  if lambda < 0. then invalid_arg "Dist.poisson: lambda must be non-negative";
  if lambda = 0. then 0
  else if lambda <= 64. then poisson_knuth rng lambda
  else
    let x = normal rng ~mu:lambda ~sigma:(sqrt lambda) in
    max 0 (int_of_float (Float.round x))

let binomial rng ~n ~p =
  if n < 0 then invalid_arg "Dist.binomial: n must be non-negative";
  if p < 0. || p > 1. then invalid_arg "Dist.binomial: p must be in [0,1]";
  if n = 0 || p = 0. then 0
  else if p = 1. then n
  else if float_of_int n *. p <= 32. || float_of_int n *. (1. -. p) <= 32. then begin
    let count = ref 0 in
    for _ = 1 to n do
      if Rng.bernoulli rng p then incr count
    done;
    !count
  end
  else
    let mean = float_of_int n *. p in
    let sd = sqrt (mean *. (1. -. p)) in
    let x = int_of_float (Float.round (normal rng ~mu:mean ~sigma:sd)) in
    max 0 (min n x)

module Zipf = struct
  type t = { cdf : float array; total : float }

  let create ~n ~s =
    if n <= 0 then invalid_arg "Dist.zipf: n must be positive";
    let cdf = Array.make n 0. in
    let total = ref 0. in
    for k = 1 to n do
      total := !total +. (1. /. Float.pow (float_of_int k) s);
      cdf.(k - 1) <- !total
    done;
    { cdf; total = !total }

  let size t = Array.length t.cdf

  let draw t rng =
    let u = Rng.unit_float rng *. t.total in
    (* Binary search for the first index with cdf >= u. *)
    let rec search lo hi =
      if lo >= hi then lo + 1
      else
        let mid = (lo + hi) / 2 in
        if t.cdf.(mid) >= u then search lo mid else search (mid + 1) hi
    in
    search 0 (Array.length t.cdf - 1)

  let probability t k =
    if k < 1 || k > Array.length t.cdf then invalid_arg "Dist.Zipf.probability: rank out of range";
    (if k = 1 then t.cdf.(0) else t.cdf.(k - 1) -. t.cdf.(k - 2)) /. t.total
end

let zipf rng ~n ~s = Zipf.draw (Zipf.create ~n ~s) rng

let rounded_positive_normal rng ~mean ~sigma =
  if sigma <= 0. then Int.max 1 (int_of_float (Float.round mean))
  else Int.max 1 (int_of_float (Float.round (normal rng ~mu:mean ~sigma)))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement rng ~k ~n =
  if k < 0 || k > n then invalid_arg "Dist.sample_without_replacement: need 0 <= k <= n";
  if 3 * k >= n then begin
    (* Dense case: partial Fisher-Yates over the full index range. *)
    let a = Array.init n (fun i -> i) in
    for i = 0 to k - 1 do
      let j = Rng.int_in rng i (n - 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    Array.sub a 0 k
  end
  else begin
    (* Sparse case: rejection into a hash set. *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let x = Rng.int rng n in
      if not (Hashtbl.mem seen x) then begin
        Hashtbl.add seen x ();
        out.(!filled) <- x;
        incr filled
      end
    done;
    out
  end

let pick rng a =
  if Array.length a = 0 then invalid_arg "Dist.pick: empty array";
  a.(Rng.int rng (Array.length a))

module Alias = struct
  type t = { prob : float array; alias : int array; normalized : float array }

  let of_weights weights =
    let n = Array.length weights in
    if n = 0 then invalid_arg "Dist.Alias.of_weights: empty weights";
    let total = Array.fold_left ( +. ) 0. weights in
    if not (total > 0.) then invalid_arg "Dist.Alias.of_weights: total weight must be positive";
    Array.iter (fun w -> if w < 0. then invalid_arg "Dist.Alias.of_weights: negative weight") weights;
    let normalized = Array.map (fun w -> w /. total) weights in
    let scaled = Array.map (fun p -> p *. float_of_int n) normalized in
    let prob = Array.make n 0. in
    let alias = Array.make n 0 in
    let small = Queue.create () and large = Queue.create () in
    Array.iteri (fun i s -> Queue.push i (if s < 1. then small else large)) scaled;
    while not (Queue.is_empty small) && not (Queue.is_empty large) do
      let s = Queue.pop small and l = Queue.pop large in
      prob.(s) <- scaled.(s);
      alias.(s) <- l;
      scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.;
      Queue.push l (if scaled.(l) < 1. then small else large)
    done;
    Queue.iter (fun i -> prob.(i) <- 1.) small;
    Queue.iter (fun i -> prob.(i) <- 1.) large;
    { prob; alias; normalized }

  let draw t rng =
    let n = Array.length t.prob in
    let i = Rng.int rng n in
    if Rng.unit_float rng < t.prob.(i) then i else t.alias.(i)

  let probability t i = t.normalized.(i)
end
