module Rng = Stratify_prng.Rng

let empty n = Undirected.of_edges n ignore

let complete n =
  Undirected.of_edges ~capacity:(Int.max 0 (n * (n - 1) / 2)) n (fun add ->
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          add u v
        done
      done)

let ring n =
  if n < 3 then invalid_arg "Gen.ring: need n >= 3";
  Undirected.of_edges ~capacity:n n (fun add ->
      for v = 0 to n - 1 do
        add v ((v + 1) mod n)
      done)

let path n =
  Undirected.of_edges ~capacity:(Int.max 0 (n - 1)) n (fun add ->
      for v = 0 to n - 2 do
        add v (v + 1)
      done)

let star n =
  if n < 1 then invalid_arg "Gen.star: need n >= 1";
  Undirected.of_edges ~capacity:(n - 1) n (fun add ->
      for v = 1 to n - 1 do
        add 0 v
      done)

(* The number of candidates a geometric jump passes over before landing,
   as a float: [floor (log (1 - r) / log (1 - p))].  Callers compare it
   with the candidates left before converting, since for tiny [p] it can
   exceed [max_int], where [int_of_float] is undefined (0 on amd64, which
   would turn every candidate into an edge). *)
let[@inline] draw_gap rng ~log_q = floor (log1p (-.Rng.unit_float rng) /. log_q)

(* Iterate the edges of G(n,p) in O(n + m) expected time: walk the linearised
   upper-triangular edge index with geometric jumps (Batagelj & Brandes,
   2005). *)
let iter_gnp_edges rng ~n ~p f =
  if p < 0. || p > 1. then invalid_arg "Gen.gnp: p must be in [0,1]";
  if p > 0. then
    if p >= 1. then begin
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          f u v
        done
      done
    end
    else begin
      let log_q = log1p (-.p) in
      let u = ref 0 and v = ref 0 in
      (* (u, v) with v > u; start just before the first candidate, with
         [left] candidates after it.  A gap that reaches [left] ends the
         walk. *)
      let left = ref (n * (n - 1) / 2) in
      let continue = ref (n >= 2) in
      while !continue do
        let gap = draw_gap rng ~log_q in
        if gap >= float_of_int !left then continue := false
        else begin
          let skip = 1 + int_of_float gap in
          left := !left - skip;
          let j = ref (!v + skip) in
          while !j >= n do
            incr u;
            j := !u + 1 + (!j - n)
          done;
          v := !j;
          f !u !v
        end
      done
    end

(* The walk emits edges in increasing (u, v) order with u < v, so the
   builder fills every row sorted.  Its stream starts with room for the
   expected edge count plus four standard deviations, at most every
   pair, so it rarely has to grow. *)
let gnp rng ~n ~p =
  let capacity =
    if p > 0. && p <= 1. then
      let pairs = float_of_int n *. float_of_int (n - 1) /. 2. in
      let mean = p *. pairs in
      int_of_float (Float.min pairs (Float.ceil (mean +. (4. *. sqrt (mean *. (1. -. p))))))
    else 0
  in
  Undirected.of_edges ~capacity n (iter_gnp_edges rng ~n ~p)

let gnd rng ~n ~d =
  if n < 2 then empty n
  else
    let p = d /. float_of_int (n - 1) in
    let p = Float.max 0. (Float.min 1. p) in
    gnp rng ~n ~p

let gnp_adjacency rng ~n ~p = Undirected.adjacency_arrays (gnp rng ~n ~p)

(* Geometric skipping over candidate endpoints, same trick as gnp.  The
   RNG consumption depends only on (n, p) and the skip draws — not on
   [present] or on what [f] does — so every consumer of the same
   (rng, n, v, p) sees the same candidate sequence. *)
let iter_fresh_edges rng ~n ~v ~p ~present f =
  if p >= 1. then
    for w = 0 to n - 1 do
      if w <> v && present w then f w
    done
  else if p > 0. then begin
    let log_q = log1p (-.p) in
    let w = ref (-1) in
    let continue = ref true in
    while !continue do
      let gap = draw_gap rng ~log_q in
      if gap >= float_of_int (n - 1 - !w) then continue := false
      else begin
        w := !w + 1 + int_of_float gap;
        if !w <> v && present !w then f !w
      end
    done
  end
