module Rng = Stratify_prng.Rng
module Dist = Stratify_prng.Dist
module Undirected = Stratify_graph.Undirected

type t = { rng : Rng.t; views : int array array; view_size : int }

let random_view rng ~n ~view_size ~self =
  let seen = Hashtbl.create (2 * view_size) in
  let out = ref [] and filled = ref 0 in
  let cap = min view_size (n - 1) in
  while !filled < cap do
    let q = Rng.int rng n in
    if q <> self && not (Hashtbl.mem seen q) then begin
      Hashtbl.replace seen q ();
      out := q :: !out;
      incr filled
    end
  done;
  Array.of_list !out

let create rng ~n ~view_size =
  if n < 2 then invalid_arg "Gossip.create: need at least two peers";
  if view_size < 1 then invalid_arg "Gossip.create: need view_size >= 1";
  {
    rng;
    views = Array.init n (fun self -> random_view rng ~n ~view_size ~self);
    view_size;
  }

let n t = Array.length t.views
let view_size t = t.view_size
let view t p = Array.copy t.views.(p)

(* Merge the local view with the received buffer: dedup, drop self, keep a
   random subset of size view_size. *)
let merge t ~self current received =
  let seen = Hashtbl.create 16 in
  let pool = ref [] in
  let add q =
    if q <> self && not (Hashtbl.mem seen q) then begin
      Hashtbl.replace seen q ();
      pool := q :: !pool
    end
  in
  Array.iter add received;
  Array.iter add current;
  let pool = Array.of_list !pool in
  Dist.shuffle t.rng pool;
  Array.sub pool 0 (min t.view_size (Array.length pool))

let round t =
  let order = Array.init (n t) (fun i -> i) in
  Dist.shuffle t.rng order;
  Array.iter
    (fun p ->
      let my_view = t.views.(p) in
      if Array.length my_view > 0 then begin
        let q = my_view.(Rng.int t.rng (Array.length my_view)) in
        (* Each side sends half of its view plus its own address. *)
        let half v sender =
          let copy = Array.copy v in
          Dist.shuffle t.rng copy;
          Array.append [| sender |] (Array.sub copy 0 (Array.length copy / 2))
        in
        let to_q = half t.views.(p) p in
        let to_p = half t.views.(q) q in
        t.views.(p) <- merge t ~self:p t.views.(p) to_p;
        t.views.(q) <- merge t ~self:q t.views.(q) to_q
      end)
    order

let acceptance_graph t =
  Undirected.of_edges (n t) (fun add -> Array.iteri (fun p view -> Array.iter (add p) view) t.views)

let view_coverage t =
  let total = Array.fold_left (fun acc v -> acc + Array.length v) 0 t.views in
  float_of_int total /. float_of_int (n t * (n t - 1))

let indegree_stddev t =
  let counts = Array.make (n t) 0 in
  Array.iter (fun v -> Array.iter (fun q -> counts.(q) <- counts.(q) + 1) v) t.views;
  let acc = Stratify_stats.Online.create () in
  Array.iter (fun c -> Stratify_stats.Online.add acc (float_of_int c)) counts;
  Stratify_stats.Online.stddev acc

module Rank_estimator = struct
  type estimator = { totals : float array; rounds : int array; n : int }

  let create ~n = { totals = Array.make n 0.; rounds = Array.make n 0; n }

  let observe est t ~scores =
    if Array.length scores <> n t then invalid_arg "Rank_estimator.observe: score size mismatch";
    for p = 0 to n t - 1 do
      let v = t.views.(p) in
      if Array.length v > 0 then begin
        let better = ref 0 in
        Array.iter (fun q -> if scores.(q) > scores.(p) then incr better) v;
        est.totals.(p) <-
          est.totals.(p) +. (float_of_int !better /. float_of_int (Array.length v));
        est.rounds.(p) <- est.rounds.(p) + 1
      end
    done

  let estimated_rank est p =
    if est.rounds.(p) = 0 then float_of_int (est.n - 1) /. 2.
    else est.totals.(p) /. float_of_int est.rounds.(p) *. float_of_int (est.n - 1)

  let mean_absolute_error est ~scores =
    let ranking = Ranking.of_scores scores in
    let total = ref 0. in
    for p = 0 to est.n - 1 do
      total := !total +. Float.abs (estimated_rank est p -. float_of_int (Ranking.rank ranking p))
    done;
    !total /. float_of_int est.n
end
