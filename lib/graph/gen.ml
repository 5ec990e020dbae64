module Rng = Stratify_prng.Rng

let empty n = Undirected.create n

let complete n =
  let g = Undirected.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      ignore (Undirected.add_edge g u v)
    done
  done;
  g

let ring n =
  if n < 3 then invalid_arg "Gen.ring: need n >= 3";
  let g = Undirected.create n in
  for v = 0 to n - 1 do
    ignore (Undirected.add_edge g v ((v + 1) mod n))
  done;
  g

let path n =
  let g = Undirected.create n in
  for v = 0 to n - 2 do
    ignore (Undirected.add_edge g v (v + 1))
  done;
  g

let star n =
  if n < 1 then invalid_arg "Gen.star: need n >= 1";
  let g = Undirected.create n in
  for v = 1 to n - 1 do
    ignore (Undirected.add_edge g 0 v)
  done;
  g

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

let gnp rng ~n ~p =
  let g = Undirected.create n in
  iter_gnp_edges rng ~n ~p (fun u v -> ignore (Undirected.add_edge g u v));
  g

let gnd rng ~n ~d =
  if n < 2 then Undirected.create n
  else
    let p = d /. float_of_int (n - 1) in
    let p = Float.max 0. (Float.min 1. p) in
    gnp rng ~n ~p

let gnp_adjacency rng ~n ~p =
  (* The walk emits edges in increasing (u, v) lexicographic order, so the
     stream is kept as its [v] endpoints alone, in a flat array sized for
     the expected edge count (grown by doubling past it), with [fwd.(u)]
     edges (u, v > u) and [back.(v)] edges (u < v, v) per vertex.  A
     second pass fills the rows: [u]'s row gets [v] and [v]'s row gets
     [u], both in increasing order, so no row needs a sort. *)
  let expected = p *. float_of_int n *. float_of_int (n - 1) /. 2. in
  let stream = ref (Array.make (16 + int_of_float (expected +. (4. *. sqrt expected))) 0) in
  let m = ref 0 in
  let fwd = Array.make n 0 and back = Array.make n 0 in
  iter_gnp_edges rng ~n ~p (fun u v ->
      if !m = Array.length !stream then begin
        let grown = Array.make (2 * !m) 0 in
        Array.blit !stream 0 grown 0 !m;
        stream := grown
      end;
      !stream.(!m) <- v;
      incr m;
      fwd.(u) <- fwd.(u) + 1;
      back.(v) <- back.(v) + 1);
  let stream = !stream in
  let adj = Array.init n (fun v -> Array.make (back.(v) + fwd.(v)) 0) in
  let fill = Array.make n 0 in
  let k = ref 0 in
  for u = 0 to n - 1 do
    for _ = 1 to fwd.(u) do
      let v = stream.(!k) in
      incr k;
      adj.(u).(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1;
      adj.(v).(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1
    done
  done;
  adj

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

let attach_fresh_vertex rng g ~v ~p ~present =
  let added = ref 0 in
  iter_fresh_edges rng ~n:(Undirected.vertex_count g) ~v ~p ~present (fun w ->
      if Undirected.add_edge g v w then incr added);
  !added
