module Rng = Stratify_prng.Rng
module U = Stratify_graph.Undirected
module Gen = Stratify_graph.Gen
module Components = Stratify_graph.Components

let test_union_find_basic () =
  let uf = Union_find.create 6 in
  Alcotest.(check int) "initial sets" 6 (Union_find.count uf);
  Alcotest.(check bool) "union new" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "union again" false (Union_find.union uf 1 0);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 1 3);
  Alcotest.(check bool) "same set" true (Union_find.same uf 0 2);
  Alcotest.(check int) "set size" 4 (Union_find.size uf 3);
  Alcotest.(check int) "remaining sets" 3 (Union_find.count uf)

let of_list n edges = U.of_edges n (fun add -> List.iter (fun (u, v) -> add u v) edges)

let test_self_loop_rejected () =
  Alcotest.check_raises "self loop" (Invalid_argument "Undirected.of_edges: self-loop at vertex 1")
    (fun () -> ignore (of_list 3 [ (0, 2); (1, 1) ]))

let test_out_of_range_rejected () =
  Alcotest.check_raises "vertex past n"
    (Invalid_argument "Undirected.of_edges: edge (2, 3) has a vertex outside [0, 3)") (fun () ->
      ignore (of_list 3 [ (0, 1); (2, 3) ]));
  Alcotest.check_raises "negative vertex"
    (Invalid_argument "Undirected.of_edges: edge (-1, 0) has a vertex outside [0, 3)") (fun () ->
      ignore (of_list 3 [ (-1, 0) ]));
  Alcotest.check_raises "negative size" (Invalid_argument "Undirected.of_edges: negative size -1")
    (fun () -> ignore (of_list (-1) []));
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Undirected.of_edges: negative capacity -1") (fun () ->
      ignore (U.of_edges ~capacity:(-1) 3 ignore))

let test_builders () =
  Alcotest.(check int) "complete K6 edges" 15 (U.edge_count (Gen.complete 6));
  Alcotest.(check int) "ring edges" 7 (U.edge_count (Gen.ring 7));
  Alcotest.(check int) "path edges" 6 (U.edge_count (Gen.path 7));
  Alcotest.(check int) "star edges" 6 (U.edge_count (Gen.star 7));
  let ring = Gen.ring 5 in
  for v = 0 to 4 do
    Alcotest.(check int) "ring degree" 2 (U.degree ring v)
  done;
  (* the closing edge (4, 0) arrives last: rows 0 and 4 still come out sorted *)
  Alcotest.(check (array (array int))) "ring rows"
    [| [| 1; 4 |]; [| 0; 2 |]; [| 1; 3 |]; [| 2; 4 |]; [| 0; 3 |] |]
    (U.adjacency_arrays ring)

let test_sorted_neighbors_and_arrays () =
  let g = of_list 5 [ (2, 4); (2, 0); (3, 2) ] in
  let adj = U.adjacency_arrays g in
  Alcotest.(check (array int)) "row 2" [| 0; 3; 4 |] adj.(2);
  Alcotest.(check (array int)) "row 0" [| 2 |] adj.(0);
  Alcotest.(check (array int)) "row 1" [||] adj.(1);
  let g2 = U.of_adjacency_arrays adj in
  Alcotest.(check int) "round trip edges" (U.edge_count g) (U.edge_count g2);
  Alcotest.(check bool) "round trip membership" true (U.mem_edge g2 2 4);
  Alcotest.(check (array (array int))) "round trip rows" adj (U.adjacency_arrays g2)

(* Random edge streams over n vertices, n = 0 included: repeats, both
   orientations, any order; and a starting capacity for the builder's
   stream that is 0, too small, exact or larger. *)
let edge_stream_params =
  QCheck.make
    ~print:(fun (n, edges, capacity) ->
      Printf.sprintf "n=%d capacity=%d edges=[%s]" n capacity
        (String.concat "; " (List.map (fun (u, v) -> Printf.sprintf "%d,%d" u v) edges)))
    QCheck.Gen.(
      let* n = int_range 0 12 in
      let* edges =
        if n < 2 then return []
        else
          let edge =
            let* u = int_bound (n - 1) in
            let* k = int_range 1 (n - 1) in
            return (u, (u + k) mod n)
          in
          let* edges = list_size (int_bound 40) edge in
          let* echo =
            list_size (int_bound 10) (oneofl (if edges = [] then [ (0, 1) ] else edges))
          in
          return (edges @ List.map (fun (u, v) -> (v, u)) echo)
      in
      let len = List.length edges in
      let* capacity =
        oneof [ return 0; int_bound (Int.max 0 (len - 1)); return len; int_range len (len + 40) ]
      in
      return (n, edges, capacity))

let prop_builder_is_symmetric_closure =
  Helpers.qtest ~count:300 "builder = sorted deduplicated symmetric closure" edge_stream_params
    (fun (n, edges, capacity) ->
      let g = of_list n edges in
      let closure =
        Array.init n (fun u ->
            List.concat_map
              (fun (a, b) -> if a = u then [ b ] else if b = u then [ a ] else [])
              edges
            |> List.sort_uniq Int.compare |> Array.of_list)
      in
      let off, nbr = U.adjacency_csr g in
      let pairs = Array.fold_left (fun acc row -> acc + Array.length row) 0 closure in
      (* the same edges once each, in increasing (u, v) order with u < v:
         the stream that fills every row sorted *)
      let increasing =
        List.sort_uniq compare (List.map (fun (a, b) -> (Int.min a b, Int.max a b)) edges)
      in
      U.vertex_count g = n
      && U.adjacency_csr (U.of_edges ~capacity n (fun add -> List.iter (fun (u, v) -> add u v) edges))
         = (off, nbr)
      && Array.length off = n + 1
      && off.(n) = Array.length nbr
      && U.adjacency_arrays g = closure
      && U.adjacency_arrays (of_list n increasing) = closure
      && U.edge_count g * 2 = pairs
      && Array.for_all (fun u -> U.degree g u = Array.length closure.(u)) (Array.init n Fun.id)
      && List.for_all
           (fun (u, v) -> U.mem_edge g u v = Array.exists (Int.equal v) closure.(u))
           (List.concat_map (fun u -> List.init n (fun v -> (u, v))) (List.init n Fun.id)))

let test_gnp_edge_count () =
  let rng = Rng.create 1 in
  let n = 400 and p = 0.05 in
  let acc = Stratify_stats.Online.create () in
  for _ = 1 to 30 do
    let g = Gen.gnp rng ~n ~p in
    Stratify_stats.Online.add acc (float_of_int (U.edge_count g))
  done;
  let expected = p *. float_of_int (n * (n - 1) / 2) in
  let mean = Stratify_stats.Online.mean acc in
  Alcotest.(check bool)
    (Printf.sprintf "edge count mean %.0f near %.0f" mean expected)
    true
    (Float.abs (mean -. expected) < 0.05 *. expected)

let test_gnp_extremes () =
  let rng = Rng.create 2 in
  Alcotest.(check int) "p=0" 0 (U.edge_count (Gen.gnp rng ~n:50 ~p:0.));
  Alcotest.(check int) "p=1" (50 * 49 / 2) (U.edge_count (Gen.gnp rng ~n:50 ~p:1.))

let test_gnp_symmetry_no_selfloop () =
  let rng = Rng.create 3 in
  let g = Gen.gnp rng ~n:100 ~p:0.1 in
  Array.iteri
    (fun v row ->
      Array.iter
        (fun w ->
          Alcotest.(check bool) "no self" true (w <> v);
          Alcotest.(check bool) "symmetric" true (U.mem_edge g w v))
        row)
    (U.adjacency_arrays g)

let test_gnd_mean_degree () =
  let rng = Rng.create 4 in
  let acc = Stratify_stats.Online.create () in
  for _ = 1 to 20 do
    let g = Gen.gnd rng ~n:500 ~d:12. in
    Stratify_stats.Online.add acc (2. *. float_of_int (U.edge_count g) /. 500.)
  done;
  Helpers.check_close ~eps:0.5 "mean degree ~ d" 12. (Stratify_stats.Online.mean acc)

let test_gnp_adjacency_agrees () =
  let rng = Rng.create 5 in
  let adj = Gen.gnp_adjacency rng ~n:200 ~p:0.08 in
  (* sorted rows, symmetric, no self-loops *)
  Array.iteri
    (fun u row ->
      Array.iteri
        (fun k v ->
          Alcotest.(check bool) "no self" true (v <> u);
          if k > 0 then Alcotest.(check bool) "sorted" true (row.(k - 1) < v);
          Alcotest.(check bool) "symmetric" true (Array.exists (fun w -> w = u) adj.(v)))
        row)
    adj;
  (* Same distribution as Gen.gnp: compare edge totals loosely. *)
  let m = Array.fold_left (fun acc row -> acc + Array.length row) 0 adj / 2 in
  let expected = 0.08 *. float_of_int (200 * 199 / 2) in
  Alcotest.(check bool) "edge count plausible" true
    (Float.abs (float_of_int m -. expected) < 5. *. sqrt expected)

(* The fresh neighbours of an arrival, in the order they are drawn. *)
let fresh_edges rng ~n ~v ~p ~present =
  let got = ref [] in
  Gen.iter_fresh_edges rng ~n ~v ~p ~present (fun w -> got := w :: !got);
  List.rev !got

let test_iter_fresh_edges () =
  let rng = Rng.create 6 in
  let present = Array.make 100 true in
  present.(7) <- false;
  let got = fresh_edges rng ~n:100 ~v:0 ~p:0.5 ~present:(fun x -> present.(x)) in
  Alcotest.(check (list int)) "increasing, distinct" (List.sort_uniq Int.compare got) got;
  Alcotest.(check bool) "skips itself" false (List.mem 0 got);
  Alcotest.(check bool) "skips absent" false (List.mem 7 got);
  let added = List.length got in
  Alcotest.(check bool) "plausible count" true (added > 25 && added < 75);
  Alcotest.(check (list int)) "p=0 adds none" []
    (fresh_edges rng ~n:10 ~v:3 ~p:0. ~present:(fun _ -> true));
  Alcotest.(check (list int)) "p=1 adds all" [ 0; 1; 2; 4; 5; 6; 7; 8; 9 ]
    (fresh_edges rng ~n:10 ~v:3 ~p:1. ~present:(fun _ -> true))

let test_components () =
  let g = of_list 7 [ (0, 1); (1, 2); (3, 4) ] in
  let c = Components.of_graph g in
  Alcotest.(check int) "count" 4 c.Components.count;
  Alcotest.(check int) "largest" 3 (Components.largest_size c);
  Helpers.check_close "mean" (7. /. 4.) (Components.mean_size c);
  Alcotest.(check bool) "same comp" true (c.Components.component.(0) = c.Components.component.(2));
  Alcotest.(check bool) "diff comp" true (c.Components.component.(0) <> c.Components.component.(3));
  Alcotest.(check (list int)) "members" [ 3; 4 ] (Components.members c c.Components.component.(3))

let test_components_connected () =
  let c = Components.of_graph (Gen.ring 10) in
  Alcotest.(check bool) "ring connected" true (Components.is_connected c);
  let c2 = Components.of_graph (Gen.empty 3) in
  Alcotest.(check bool) "empty not connected" false (Components.is_connected c2)

let prop_gnp_rows_symmetric =
  Helpers.qtest ~count:50 "components of adjacency = components of graph"
    Helpers.instance_params (fun (seed, n, p, _) ->
      let rng = Rng.create seed in
      let g = Gen.gnp rng ~n ~p in
      let c1 = Components.of_graph g in
      let c2 = Components.of_adjacency (U.adjacency_arrays g) in
      (* the graph's rows, the same rows laid end to end, and union-find:
         same ids, same sizes *)
      c1 = c2 && c1 = Union_find.components g)

let prop_csr_matches_adjacency_arrays =
  Helpers.qtest ~count:100 "CSR snapshot = per-row adjacency arrays"
    Helpers.instance_params (fun (seed, n, p, _) ->
      let rng = Rng.create seed in
      let g = Gen.gnp rng ~n ~p in
      let rows = U.adjacency_arrays g in
      let off, data = U.adjacency_csr g in
      Array.length off = n + 1
      && off.(n) = Array.length data
      && begin
           let ok = ref true in
           Array.iteri
             (fun v row ->
               if Array.sub data off.(v) (off.(v + 1) - off.(v)) <> row then ok := false)
             rows;
           !ok
         end)

let suite =
  [
    Alcotest.test_case "union-find basics" `Quick test_union_find_basic;
    Alcotest.test_case "self-loop rejected" `Quick test_self_loop_rejected;
    Alcotest.test_case "out-of-range vertex rejected" `Quick test_out_of_range_rejected;
    Alcotest.test_case "builders" `Quick test_builders;
    Alcotest.test_case "sorted neighbours / adjacency arrays" `Quick test_sorted_neighbors_and_arrays;
    prop_builder_is_symmetric_closure;
    prop_csr_matches_adjacency_arrays;
    Alcotest.test_case "G(n,p) edge-count concentration" `Slow test_gnp_edge_count;
    Alcotest.test_case "G(n,p) extremes" `Quick test_gnp_extremes;
    Alcotest.test_case "G(n,p) symmetry, no self-loops" `Quick test_gnp_symmetry_no_selfloop;
    Alcotest.test_case "G(n,d) mean degree" `Slow test_gnd_mean_degree;
    Alcotest.test_case "gnp_adjacency invariants" `Quick test_gnp_adjacency_agrees;
    Alcotest.test_case "iter_fresh_edges" `Quick test_iter_fresh_edges;
    Alcotest.test_case "connected components" `Quick test_components;
    Alcotest.test_case "is_connected" `Quick test_components_connected;
    prop_gnp_rows_symmetric;
  ]

(* ------------------------------------------------------------------ *)
(* Spatial positions                                                   *)

module Spatial = Stratify_graph.Spatial

let test_positions_and_distance () =
  let rng = Rng.create 31 in
  let pos = Spatial.random_positions rng ~n:50 in
  Array.iter
    (fun (x, y) ->
      Alcotest.(check bool) "in unit square" true (x >= 0. && x < 1. && y >= 0. && y < 1.))
    pos;
  Helpers.check_close "self distance" 0. (Spatial.distance pos 3 3);
  Helpers.check_close "symmetric" (Spatial.distance pos 1 2) (Spatial.distance pos 2 1)

let spatial_suite =
  [
    Alcotest.test_case "positions and distances" `Quick test_positions_and_distance;
  ]

(* Reference G(n,p) walk that converts every gap to an int: valid for
   every p whose gaps fit one. *)
let reference_gnp_edges rng ~n ~p =
  let edges = ref [] in
  let log_q = log1p (-.p) in
  let u = ref 0 and v = ref 0 in
  let continue = ref (n >= 2) in
  while !continue do
    let r = Rng.unit_float rng in
    let skip = 1 + int_of_float (floor (log1p (-.r) /. log_q)) in
    let j = ref (!v + skip) in
    while !j >= n && !continue do
      incr u;
      j := !u + 1 + (!j - n);
      if !u >= n - 1 then continue := false
    done;
    if !continue then begin
      v := !j;
      edges := (!u, !v) :: !edges
    end
  done;
  List.rev !edges

let test_gnp_draws_unchanged () =
  List.iter
    (fun (seed, n, p) ->
      let a = Rng.create seed and b = Rng.create seed and c = Rng.create seed in
      let expected = reference_gnp_edges a ~n ~p in
      let after_reference = Rng.copy a in
      let got = ref [] in
      let g = Gen.gnp b ~n ~p in
      U.iter_edges (fun u v -> got := (Int.min u v, Int.max u v) :: !got) g;
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "edges n=%d p=%g" n p)
        (List.sort compare expected) (List.sort compare !got);
      Alcotest.(check int) "same number of draws" (Rng.bits30 a) (Rng.bits30 b);
      (* the walk itself: the same edges in the reference's order *)
      let walked = ref [] in
      Gen.iter_gnp_edges c ~n ~p (fun u v -> walked := (u, v) :: !walked);
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "walk n=%d p=%g" n p)
        expected (List.rev !walked);
      Alcotest.(check int) "walk: same number of draws" (Rng.bits30 after_reference)
        (Rng.bits30 c))
    [ (1, 0, 0.3); (2, 1, 0.3); (3, 2, 0.5); (4, 50, 0.05); (5, 200, 0.01); (6, 300, 1e-6);
      (7, 40, 0.97) ]

(* A gap too large for an int must end the walk, not convert (to 0 on
   amd64) and turn every candidate into an edge. *)
let test_gnp_tiny_p () =
  let rng = Rng.create 1 in
  let adj = Gen.gnp_adjacency rng ~n:200 ~p:1e-30 in
  Alcotest.(check int) "gnp_adjacency: no edges" 0
    (Array.fold_left (fun acc row -> acc + Array.length row) 0 adj);
  Alcotest.(check int) "gnp: no edges" 0 (U.edge_count (Gen.gnp rng ~n:200 ~p:1e-30));
  Alcotest.(check (list int)) "fresh arrival: no edges" []
    (fresh_edges rng ~n:200 ~v:3 ~p:1e-30 ~present:(fun _ -> true))

(* Ids are handed out in order of each component's smallest vertex. *)
let test_components_first_seen () =
  let adj = [| [| 6 |]; [||]; [| 5 |]; [||]; [| 5 |]; [| 2; 4 |]; [| 0 |] |] in
  let c = Components.of_adjacency adj in
  Alcotest.(check (array int)) "ids" [| 0; 1; 2; 3; 2; 2; 0 |] c.Components.component;
  Alcotest.(check (array int)) "sizes" [| 2; 1; 3; 1 |] c.Components.sizes;
  let rng = Rng.create 9 in
  for _ = 1 to 50 do
    let n = 1 + Rng.int rng 60 in
    let g = Gen.gnp rng ~n ~p:(1.5 /. float_of_int n) in
    let rows = U.adjacency_arrays g in
    let c = Components.of_graph g in
    let next = ref 0 in
    Array.iteri
      (fun v id ->
        if id = !next then incr next
        else Alcotest.(check bool) "id already seen" true (id < !next);
        Array.iter
          (fun w ->
            Alcotest.(check int) "neighbours share an id" id c.Components.component.(w))
          rows.(v))
      c.Components.component;
    Alcotest.(check int) "count" !next c.Components.count;
    Array.iteri
      (fun id size ->
        Alcotest.(check int) "size" (List.length (Components.members c id)) size)
      c.Components.sizes
  done

let suite =
  suite @ spatial_suite
  @ [
      Alcotest.test_case "G(n,p) draws match the reference walk" `Quick test_gnp_draws_unchanged;
      Alcotest.test_case "G(n,p) with tiny p has no edges" `Quick test_gnp_tiny_p;
      Alcotest.test_case "component ids in first-seen order" `Quick test_components_first_seen;
    ]
