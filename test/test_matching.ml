module Rng = Stratify_prng.Rng
module Dist = Stratify_prng.Dist
module Gen = Stratify_graph.Gen
module U = Stratify_graph.Undirected
open Stratify_core

(* ------------------------------------------------------------------ *)
(* Ranking                                                             *)

let test_ranking_of_scores () =
  let r = Ranking.of_scores [| 1.5; 9.; 4. |] in
  Alcotest.(check int) "best peer" 1 (Ranking.peer_at r 0);
  Alcotest.(check int) "middle peer" 2 (Ranking.peer_at r 1);
  Alcotest.(check int) "worst peer" 0 (Ranking.peer_at r 2);
  Alcotest.(check int) "rank of 9." 0 (Ranking.rank r 1);
  Alcotest.(check bool) "prefers" true (Ranking.prefers r 1 0);
  Alcotest.(check bool) "not identity" false (Ranking.is_identity r)

let test_ranking_ties_rejected () =
  match Ranking.of_scores [| 1.; 2.; 1. |] with
  | exception Ranking.Ties (a, b) ->
      Alcotest.(check bool) "tie peers" true ((a = 0 && b = 2) || (a = 2 && b = 0))
  | _ -> Alcotest.fail "expected Ties"

let test_ranking_identity () =
  let r = Ranking.identity 5 in
  Alcotest.(check bool) "identity" true (Ranking.is_identity r);
  for i = 0 to 4 do
    Alcotest.(check int) "rank = id" i (Ranking.rank r i)
  done;
  Alcotest.(check int) "compare" (-1)
    (compare (Ranking.compare_peers r 0 3) 0);
  (* The array-free identity answers every accessor as the scored
     ranking of the same order does, and both refuse an index past the
     population. *)
  List.iter
    (fun n ->
      let id = Ranking.identity n in
      let scored = Ranking.of_scores (Array.init n (fun i -> -.float i)) in
      let what s = Printf.sprintf "n=%d: %s" n s in
      Alcotest.(check int) (what "size") (Ranking.size scored) (Ranking.size id);
      Alcotest.(check bool) (what "is_identity") (Ranking.is_identity scored) (Ranking.is_identity id);
      for p = 0 to n - 1 do
        Alcotest.(check int) (what "rank") (Ranking.rank scored p) (Ranking.rank id p);
        Alcotest.(check int) (what "peer_at") (Ranking.peer_at scored p) (Ranking.peer_at id p);
        Alcotest.(check bool) (what "score") true (Ranking.score scored p = Ranking.score id p);
        for q = 0 to n - 1 do
          Alcotest.(check bool) (what "prefers") (Ranking.prefers scored p q)
            (Ranking.prefers id p q);
          Alcotest.(check int) (what "compare_peers") (Ranking.compare_peers scored p q)
            (Ranking.compare_peers id p q)
        done
      done;
      List.iter
        (fun (form, r) ->
          List.iter
            (fun (acc, f) ->
              List.iter
                (fun i ->
                  match f r i with
                  | exception Invalid_argument _ -> ()
                  | _ -> Alcotest.failf "%s: %s %s %d did not raise" (what "range") form acc i)
                [ -1; n ])
            [
              ("rank", Ranking.rank);
              ("peer_at", Ranking.peer_at);
              ("score", fun r i -> int_of_float (Ranking.score r i));
              ("prefers", fun r i -> Bool.to_int (Ranking.prefers r i i));
              ("compare_peers", fun r i -> Ranking.compare_peers r i i);
            ])
        [ ("identity", id); ("scored", scored) ])
    [ 0; 1; 5; 64 ];
  Alcotest.check_raises "negative size" (Invalid_argument "Ranking.identity: negative size -1")
    (fun () -> ignore (Ranking.identity (-1)))

(* A NaN equals nothing, so no tie check can see it: it must be refused
   by name, before it lands at an arbitrary rank.  Equal infinities
   still tie. *)
let test_ranking_rejects_nan () =
  Alcotest.check_raises "NaN score" (Invalid_argument "Ranking.of_scores: peer 0 has a NaN score")
    (fun () -> ignore (Ranking.of_scores [| nan; 1.; nan |]));
  Alcotest.check_raises "NaN after valid scores"
    (Invalid_argument "Ranking.of_scores: peer 2 has a NaN score") (fun () ->
      ignore (Ranking.of_scores [| 3.; 1.; Float.nan |]));
  match Ranking.of_scores [| infinity; 0.; infinity |] with
  | exception Ranking.Ties (a, b) ->
      Alcotest.(check (pair int int)) "equal infinities tie" (0, 2) (Int.min a b, Int.max a b)
  | _ -> Alcotest.fail "expected Ties"

(* ------------------------------------------------------------------ *)
(* Instance                                                            *)

let test_instance_relabeling () =
  (* Peers 0,1,2 with scores making 2 the best; edge set {0-2, 1-2}. *)
  let g = U.of_edges 3 (fun add -> add 0 2; add 1 2) in
  let ranking = Ranking.of_scores [| 5.; 1.; 9. |] in
  (* ranks: peer2 -> 0, peer0 -> 1, peer1 -> 2 *)
  let inst = Instance.create ~ranking ~graph:g ~b:[| 1; 2; 3 |] () in
  Alcotest.(check int) "n" 3 (Instance.n inst);
  Alcotest.(check int) "best peer budget" 3 (Instance.slots inst 0);
  Alcotest.(check int) "slot total" 6 (Instance.slot_total inst);
  (* Rank 0 (= original peer 2) accepts ranks 1 and 2. *)
  Alcotest.(check (array int)) "acceptance best" [| 1; 2 |] (Instance.acceptable inst 0);
  Alcotest.(check (array int)) "acceptance rank1" [| 0 |] (Instance.acceptable inst 1);
  Alcotest.(check bool) "accepts" true (Instance.accepts inst 2 0);
  Alcotest.(check bool) "not accepts" false (Instance.accepts inst 1 2);
  Alcotest.(check int) "rank->id" 2 (Instance.rank_to_id inst 0);
  Alcotest.(check int) "id->rank" 0 (Instance.id_to_rank inst 2)

(* Under the identity ranking the Dense backend is the graph's own CSR,
   not a copy of it. *)
let test_instance_shares_graph_rows () =
  let graph = Gen.gnp (Rng.create 3) ~n:30 ~p:0.2 in
  let off, nbr = U.adjacency_csr graph in
  match Instance.raw_backend (Instance.create ~graph ~b:(Array.make 30 1) ()) with
  | Instance.Raw_dense { off = o; data } ->
      Alcotest.(check bool) "same offsets" true (o == off);
      Alcotest.(check bool) "same rows" true (data == nbr)
  | _ -> Alcotest.fail "create built a non-dense backend"

let test_instance_validation () =
  let g = Gen.empty 2 in
  Alcotest.check_raises "negative budget" (Invalid_argument "Instance: negative slot budget")
    (fun () -> ignore (Instance.create ~graph:g ~b:[| 1; -1 |] ()));
  Alcotest.check_raises "bad size" (Invalid_argument "Instance: |b| must equal the number of peers")
    (fun () -> ignore (Instance.create ~graph:g ~b:[| 1 |] ()))

(* ------------------------------------------------------------------ *)
(* Config                                                              *)

let line_instance n b =
  (* path acceptance graph 0-1-2-...-(n-1) *)
  Instance.create ~graph:(Gen.path n) ~b:(Array.make n b) ()

let test_config_connect_disconnect () =
  let inst = line_instance 4 2 in
  let c = Config.empty inst in
  Config.connect c 1 2;
  Config.connect c 0 1;
  Alcotest.(check int) "degree" 2 (Config.degree c 1);
  Alcotest.(check (list int)) "mates best first" [ 0; 2 ] (Config.mates c 1);
  Alcotest.(check bool) "mated" true (Config.mated c 2 1);
  Alcotest.(check (option int)) "best" (Some 0) (Config.best_mate c 1);
  Alcotest.(check (option int)) "worst" (Some 2) (Config.worst_mate c 1);
  Alcotest.(check int) "edges" 2 (Config.edge_count c);
  Config.disconnect c 1 2;
  Alcotest.(check bool) "unmated" false (Config.mated c 1 2);
  Alcotest.(check int) "edges after" 1 (Config.edge_count c)

let test_config_guards () =
  let inst = line_instance 4 1 in
  let c = Config.empty inst in
  Config.connect c 0 1;
  Alcotest.check_raises "full" (Invalid_argument "Config.connect: no free slot") (fun () ->
      Config.connect c 1 2);
  Alcotest.check_raises "unacceptable"
    (Invalid_argument "Config.connect: pair not in the acceptance graph") (fun () ->
      Config.connect c 2 0);
  Alcotest.check_raises "not mates" (Invalid_argument "Config.disconnect: not mates") (fun () ->
      Config.disconnect c 2 3)

(* The ordered row writer: each guard is a named error.  The range and
   order guards also cover what the deleted band blit refused — a band
   outside the population, and writing over peers already mated. *)
let test_append_guards () =
  let inst = Instance.complete ~n:4 ~b:[| 1; 2; 2; 0 |] () in
  let c = Config.empty inst in
  let raises what msg f = Alcotest.check_raises what (Invalid_argument msg) f in
  let outside = "Config.append: peer outside the population" in
  raises "peer past n" outside (fun () -> Config.append c 4 0);
  raises "negative peer" outside (fun () -> Config.append c (-1) 0);
  raises "mate past n" outside (fun () -> Config.append c 0 4);
  raises "negative mate" outside (fun () -> Config.append c 0 (-1));
  Config.append c 0 1;
  raises "segment full" "Config.append: segment full" (fun () -> Config.append c 0 2);
  raises "zero-budget segment" "Config.append: segment full" (fun () -> Config.append c 3 0);
  Config.append c 1 2;
  let order = "Config.append: mate not above the last" in
  raises "mate below the last" order (fun () -> Config.append c 1 0);
  raises "repeated mate" order (fun () -> Config.append c 1 2);
  (* In scan order, peer 1 receives 0 before it claims 2. *)
  let c = Config.empty inst in
  List.iter (fun (p, q) -> Config.append c p q) [ (0, 1); (1, 0); (1, 2); (2, 1) ];
  Config.seal c;
  Alcotest.(check bool) "sealed = connected" true
    (Config.equal c (Config.of_pairs inst [ (0, 1); (1, 2) ]));
  Alcotest.(check int) "edges" 2 (Config.edge_count c)

let test_config_drop_worst_copy_equal () =
  let inst = line_instance 5 2 in
  let c = Config.of_pairs inst [ (1, 2); (2, 3) ] in
  let c2 = Config.copy c in
  Alcotest.(check bool) "copies equal" true (Config.equal c c2);
  Alcotest.(check (option int)) "drop worst" (Some 3) (Config.drop_worst c 2);
  Alcotest.(check bool) "now differ" false (Config.equal c c2);
  Alcotest.(check bool) "copy untouched" true (Config.mated c2 2 3);
  Alcotest.(check (option int)) "drop empty" None (Config.drop_worst c 0);
  Alcotest.(check bool) "signatures differ" true (Config.signature c <> Config.signature c2)

let prop_config_worst_cache_matches_lists =
  (* [Config] caches each peer's worst mate for O(1) [worst_mate]/[mated];
     this drives random connect/disconnect/drop_worst sequences against
     the plain-list reference the cache replaced ([List.nth] for worst,
     [List.mem] for membership) and demands identical observations
     throughout. *)
  Helpers.qtest ~count:200 "worst-mate cache = list reference under random ops"
    Helpers.instance_params (fun (seed, n, p, bmax) ->
      let rng = Rng.create seed in
      let inst = Helpers.random_instance rng ~n ~p ~bmax in
      let n = Instance.n inst in
      let c = Config.empty inst in
      let model = Array.make n [] in
      let model_worst q =
        match model.(q) with [] -> None | l -> Some (List.nth l (List.length l - 1))
      in
      let model_connect a b =
        model.(a) <- List.sort compare (b :: model.(a));
        model.(b) <- List.sort compare (a :: model.(b))
      in
      let model_disconnect a b =
        model.(a) <- List.filter (( <> ) b) model.(a);
        model.(b) <- List.filter (( <> ) a) model.(b)
      in
      let agree q =
        Config.mates c q = model.(q)
        && Config.worst_mate c q = model_worst q
        && Config.degree c q = List.length model.(q)
        && List.for_all
             (fun other -> Config.mated c q other = List.mem other model.(q))
             (Array.to_list (Instance.acceptable inst q))
      in
      let ok = ref true in
      for _ = 1 to 120 do
        let a = Rng.int rng n in
        (match Rng.int rng 3 with
        | 0 ->
            (* Connect [a] to a random acceptable free peer, if any. *)
            let candidates =
              List.filter
                (fun b ->
                  Config.free_slots c b > 0 && (not (List.mem b model.(a))) && b <> a)
                (Array.to_list (Instance.acceptable inst a))
            in
            if Config.free_slots c a > 0 && candidates <> [] then begin
              let b = List.nth candidates (Rng.int rng (List.length candidates)) in
              Config.connect c a b;
              model_connect a b
            end
        | 1 -> (
            match (Config.drop_worst c a, model_worst a) with
            | Some w, Some w' when w = w' -> model_disconnect a w
            | None, None -> ()
            | _ -> ok := false)
        | _ ->
            (* Disconnect a uniformly random current mate. *)
            if model.(a) <> [] then begin
              let b = List.nth model.(a) (Rng.int rng (List.length model.(a))) in
              Config.disconnect c a b;
              model_disconnect a b
            end);
        if not (agree a) then ok := false
      done;
      !ok
      && (let all = ref true in
          for q = 0 to n - 1 do
            if not (agree q) then all := false
          done;
          !all)
      && Config.edge_count c
         = Array.fold_left (fun acc l -> acc + List.length l) 0 model / 2)

(* ------------------------------------------------------------------ *)
(* Backend equivalence                                                 *)

(* Executable spec of [Instance.first_index_above]: linear scan of the
   materialized row. *)
let first_above_spec row rank =
  let len = Array.length row in
  let rec go i = if i >= len || row.(i) > rank then i else go (i + 1) in
  go 0

(* Observational equality of two instances describing the same acceptance
   system through different backends: every accessor of the iteration API
   must agree (and match the row-based spec). *)
let instances_agree a b =
  let n = Instance.n a in
  let ok = ref (n = Instance.n b) in
  for p = 0 to n - 1 do
    let row_a = Instance.acceptable a p and row_b = Instance.acceptable b p in
    if row_a <> row_b then ok := false;
    if Instance.degree a p <> Array.length row_a then ok := false;
    if Instance.degree b p <> Array.length row_b then ok := false;
    if Instance.slots a p <> Instance.slots b p then ok := false;
    Array.iteri
      (fun i q ->
        if Instance.acceptable_at a p i <> q || Instance.acceptable_at b p i <> q then ok := false)
      row_a;
    let collected = ref [] in
    Instance.iter_acceptable a p (fun q -> collected := q :: !collected);
    if List.rev !collected <> Array.to_list row_a then ok := false;
    if Instance.fold_acceptable a p (fun acc _ -> acc + 1) 0 <> Array.length row_a then ok := false;
    for q = 0 to n - 1 do
      if Instance.accepts a p q <> Instance.accepts b p q then ok := false
    done;
    for rank = -1 to n do
      let spec = first_above_spec row_a rank in
      if Instance.first_index_above a p ~rank <> spec then ok := false;
      if Instance.first_index_above b p ~rank <> spec then ok := false
    done
  done;
  !ok

(* The generic blocking scan the fused kernels replaced — kept as the
   executable spec of [Blocking.best_blocking_mate]. *)
let reference_best_blocking_mate c p =
  let inst = Config.instance c in
  if Instance.slots inst p = 0 then None
  else begin
    let len = Instance.degree inst p in
    let rec scan i =
      if i >= len then None
      else begin
        let q = Instance.acceptable_at inst p i in
        if not (Blocking.would_accept c p q) then None
        else if (not (Config.mated c p q)) && Blocking.would_accept c q p then Some q
        else scan (i + 1)
      end
    in
    scan 0
  end

(* Drive one random op sequence on a config per instance (all instances
   describing the same acceptance system) and demand identical signatures
   and spec-conformant blocking observations after every op. *)
let configs_stay_equivalent rng insts ~ops =
  match insts with
  | [] -> true
  | first :: _ ->
      let n = Instance.n first in
      let cs = List.map Config.empty insts in
      let ok = ref true in
      let check () =
        (match cs with
        | c0 :: rest ->
            let s0 = Config.signature c0 in
            List.iter (fun c -> if Config.signature c <> s0 then ok := false) rest
        | [] -> ());
        List.iter
          (fun c ->
            for p = 0 to n - 1 do
              if Blocking.best_blocking_mate c p <> reference_best_blocking_mate c p then
                ok := false
            done)
          cs
      in
      for _ = 1 to ops do
        let p = Rng.int rng n in
        (match Rng.int rng 3 with
        | 0 ->
            (* A best-mate initiative — the dynamics' own operation. *)
            List.iter
              (fun c ->
                match Blocking.best_blocking_mate c p with
                | None -> ()
                | Some q ->
                    if Config.free_slots c p <= 0 then ignore (Config.drop_worst c p);
                    if Config.free_slots c q <= 0 then ignore (Config.drop_worst c q);
                    Config.connect c p q)
              cs
        | 1 -> List.iter (fun c -> ignore (Config.drop_worst c p)) cs
        | _ ->
            List.iter
              (fun c -> if Config.degree c p > 0 then Config.disconnect c p (Config.mate_at c p 0))
              cs);
        check ()
      done;
      !ok

let complete_params =
  QCheck.make
    ~print:(fun (seed, n, bmax) -> Printf.sprintf "seed=%d n=%d bmax=%d" seed n bmax)
    QCheck.Gen.(
      let* seed = int_bound 1_000_000 in
      let* n = int_range 1 20 in
      let* bmax = int_range 0 4 in
      return (seed, n, bmax))

let prop_complete_backend_equiv =
  Helpers.qtest ~count:60 "implicit complete backend = materialized dense"
    complete_params (fun (seed, n, bmax) ->
      let rng = Rng.create seed in
      let b = Array.init n (fun _ -> Rng.int rng (bmax + 1)) in
      let implicit = Instance.complete ~n ~b () in
      let dense = Instance.create ~graph:(Gen.complete n) ~b () in
      instances_agree implicit dense
      && Config.signature (Greedy.stable_config implicit)
         = Config.signature (Greedy.stable_config dense)
      && Blocking.is_stable (Greedy.stable_config implicit)
      && configs_stay_equivalent rng [ implicit; dense ] ~ops:60)

let prop_complete_minus_backend_equiv =
  Helpers.qtest ~count:60 "complete-minus backend = materialized dense"
    complete_params (fun (seed, n, bmax) ->
      let rng = Rng.create seed in
      let b = Array.init n (fun _ -> Rng.int rng (bmax + 1)) in
      let removed = List.filter (fun _ -> Rng.int rng 4 = 0) (List.init n (fun p -> p)) in
      let gone = Array.make n false in
      List.iter (fun p -> gone.(p) <- true) removed;
      let adj =
        Array.init n (fun p ->
            if gone.(p) then [||]
            else
              Array.of_list
                (List.filter (fun q -> (q <> p) && not gone.(q)) (List.init n (fun q -> q))))
      in
      let implicit = Instance.complete_minus ~n ~b ~removed () in
      let dense = Instance.of_adjacency ~adj ~b () in
      instances_agree implicit dense
      && Config.signature (Greedy.stable_config implicit)
         = Config.signature (Greedy.stable_config dense)
      && configs_stay_equivalent rng [ implicit; dense ] ~ops:60)

let prop_blocking_fused_matches_reference =
  Helpers.qtest ~count:120 "fused blocking scan = generic reference"
    Helpers.instance_params (fun (seed, n, p, bmax) ->
      let rng = Rng.create seed in
      let inst = Helpers.random_instance rng ~n ~p ~bmax in
      configs_stay_equivalent rng [ inst ] ~ops:80)

(* Bitset mate filter ≡ exact linear scan: the same op sequence driven
   on two configs of the same instance, one keeping the 63-bit mate
   mask, one forced onto the flat-array fallback — every observation
   the kernels make (mated / would_accept / is_blocking /
   best_blocking_mate) must agree, and both must match the executable
   spec. *)
let mask_paths_agree rng inst ~ops =
  let n = Instance.n inst in
  let masked = Config.empty inst in
  let flat = Config.empty inst in
  Config.set_use_mask flat false;
  let cs = [ masked; flat ] in
  let ok = ref true in
  let check () =
    if Config.signature masked <> Config.signature flat then ok := false;
    for p = 0 to n - 1 do
      let bm = Blocking.best_blocking_mate masked p in
      if bm <> Blocking.best_blocking_mate flat p then ok := false;
      if bm <> reference_best_blocking_mate masked p then ok := false;
      (match bm with
      | Some q -> if Blocking.best_blocking_mate_int masked p <> q then ok := false
      | None -> if Blocking.best_blocking_mate_int masked p <> -1 then ok := false);
      for q = 0 to n - 1 do
        if Config.mated masked p q <> Config.mated flat p q then ok := false;
        if Config.mated masked p q <> Config.mated_linear masked p q then ok := false;
        if Blocking.would_accept masked p q <> Blocking.would_accept flat p q then ok := false;
        if Blocking.is_blocking masked p q <> Blocking.is_blocking flat p q then ok := false
      done
    done
  in
  if not (Config.mask_enabled masked) || Config.mask_enabled flat then ok := false;
  check ();
  for _ = 1 to ops do
    let p = Rng.int rng n in
    (match Rng.int rng 3 with
    | 0 ->
        List.iter
          (fun c ->
            match Blocking.best_blocking_mate c p with
            | None -> ()
            | Some q ->
                if Config.free_slots c p <= 0 then ignore (Config.drop_worst c p);
                if Config.free_slots c q <= 0 then ignore (Config.drop_worst c q);
                Config.connect c p q)
          cs
    | 1 -> List.iter (fun c -> ignore (Config.drop_worst c p)) cs
    | _ ->
        List.iter
          (fun c -> if Config.degree c p > 0 then Config.disconnect c p (Config.mate_at c p 0))
          cs);
    check ()
  done;
  !ok

let prop_mask_equiv_complete =
  Helpers.qtest ~count:60 "bitset mate path = flat path (complete backend)" complete_params
    (fun (seed, n, bmax) ->
      let rng = Rng.create seed in
      let b = Array.init n (fun _ -> Rng.int rng (bmax + 1)) in
      mask_paths_agree rng (Instance.complete ~n ~b ()) ~ops:60)

let prop_mask_equiv_complete_minus =
  Helpers.qtest ~count:60 "bitset mate path = flat path (complete-minus backend)" complete_params
    (fun (seed, n, bmax) ->
      let rng = Rng.create seed in
      let b = Array.init n (fun _ -> Rng.int rng (bmax + 1)) in
      let removed = List.filter (fun _ -> Rng.int rng 4 = 0) (List.init n (fun p -> p)) in
      mask_paths_agree rng (Instance.complete_minus ~n ~b ~removed ()) ~ops:60)

let prop_mask_equiv_sparse =
  Helpers.qtest ~count:80 "bitset mate path = flat path (sparse backend)"
    Helpers.instance_params (fun (seed, n, p, bmax) ->
      let rng = Rng.create seed in
      mask_paths_agree rng (Helpers.random_instance rng ~n ~p ~bmax) ~ops:60)

(* ------------------------------------------------------------------ *)
(* Ordered row writer ≡ connect                                         *)

(* [Greedy.stable_config] appends its pairs and seals once; rebuilding
   the same pairs through [Config.of_pairs] maintains every derived view
   incrementally.  The two must be indistinguishable through every
   reader, on all four backends, including zero budgets, n ∈ {0, 1} and
   budgets above n - 1. *)
let writer_params =
  QCheck.make
    ~print:(fun (seed, n, bmax, backend) ->
      Printf.sprintf "seed=%d n=%d bmax=%d backend=%d" seed n bmax backend)
    QCheck.Gen.(
      let* seed = int_bound 1_000_000 in
      let* n = frequency [ (1, return 0); (1, return 1); (6, int_range 2 24) ] in
      let* bmax = frequency [ (3, int_range 0 4); (1, int_range 0 30) ] in
      let* backend = int_range 0 3 in
      return (seed, n, bmax, backend))

let prop_writer_matches_connect =
  Helpers.qtest ~count:200 "appended-and-sealed greedy = of_pairs of its pairs (4 backends)"
    writer_params (fun (seed, n, bmax, backend) ->
      let rng = Rng.create seed in
      let b = Array.init n (fun _ -> Rng.int rng (bmax + 1)) in
      let p = float_of_int (Rng.int rng 11) /. 10. in
      let inst =
        match backend with
        | 0 -> Instance.create ~graph:(Gen.gnp rng ~n ~p) ~b ()
        | 1 -> Instance.complete ~n ~b ()
        | 2 ->
            let removed = List.filter (fun _ -> Rng.int rng 4 = 0) (List.init n (fun p -> p)) in
            Instance.complete_minus ~n ~b ~removed ()
        | _ -> Instance.dynamic ~graph:(Gen.gnp rng ~n ~p) ~b ()
      in
      let built = Greedy.stable_config inst in
      let pairs = ref [] in
      Config.iter_pairs (fun p q -> pairs := (p, q) :: !pairs) built;
      let connected = Config.of_pairs inst (List.rev !pairs) in
      let ok =
        ref
          (Config.equal built connected
          && Config.raw_thresh built = Config.raw_thresh connected
          && Config.edge_count built = Config.edge_count connected
          && Config.edge_count built = List.length !pairs
          && Config.mask_enabled built = Config.mask_enabled connected)
      in
      for p = 0 to n - 1 do
        if Config.worst_rank built p <> Config.worst_rank connected p then ok := false;
        List.iter
          (fun use_mask ->
            Config.set_use_mask built use_mask;
            Config.set_use_mask connected use_mask;
            for q = 0 to n - 1 do
              if Config.mated built p q <> Config.mated connected p q then ok := false
            done)
          [ true; false ]
      done;
      for _ = 1 to 40 do
        let lo = Rng.int rng (n + 1) and hi = Rng.int rng (n + 1) in
        let p = Rng.int rng (n + 2) - 1 in
        if Config.first_accepting built ~lo ~hi p <> Config.first_accepting connected ~lo ~hi p
        then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Blocking                                                            *)

let test_blocking_basics () =
  let inst = line_instance 4 1 in
  let c = Config.empty inst in
  (* Empty config: every acceptance edge blocks. *)
  Alcotest.(check bool) "0-1 blocks" true (Blocking.is_blocking c 0 1);
  Alcotest.(check (list (pair int int))) "all pairs" [ (0, 1); (1, 2); (2, 3) ]
    (Blocking.blocking_pairs c);
  Config.connect c 1 2;
  (* 0-1 still blocks: 1 prefers 0 to its worst mate 2. *)
  Alcotest.(check bool) "0-1 blocks still" true (Blocking.is_blocking c 0 1);
  (* 2-3 no longer blocks: 2 is full with the better mate 1. *)
  Alcotest.(check bool) "2-3 does not block" false (Blocking.is_blocking c 2 3);
  Alcotest.(check (option int)) "best blocking mate of 0" (Some 1)
    (Blocking.best_blocking_mate c 0);
  Alcotest.(check (option int)) "none for 3" None (Blocking.best_blocking_mate c 3)

let test_blocking_zero_budget () =
  let g = Gen.complete 3 in
  let inst = Instance.create ~graph:g ~b:[| 0; 1; 1 |] () in
  let c = Config.empty inst in
  Alcotest.(check bool) "b=0 never blocks" false (Blocking.is_blocking c 0 1);
  Alcotest.(check (option int)) "no mate for b=0" None (Blocking.best_blocking_mate c 0);
  Alcotest.(check (list (pair int int))) "only 1-2" [ (1, 2) ] (Blocking.blocking_pairs c)

let test_stability_check () =
  let inst = line_instance 4 1 in
  let stable = Config.of_pairs inst [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "stable" true (Blocking.is_stable stable);
  let unstable = Config.of_pairs inst [ (1, 2) ] in
  Alcotest.(check bool) "unstable" false (Blocking.is_stable unstable);
  Alcotest.(check (option (pair int int))) "first blocking" (Some (0, 1))
    (Blocking.first_blocking_pair unstable)

(* ------------------------------------------------------------------ *)
(* Greedy / Algorithm 1                                                *)

let test_greedy_line () =
  let inst = line_instance 4 1 in
  let c = Greedy.stable_config inst in
  Alcotest.(check bool) "stable" true (Blocking.is_stable c);
  Alcotest.(check bool) "0-1" true (Config.mated c 0 1);
  Alcotest.(check bool) "2-3" true (Config.mated c 2 3)

let test_greedy_complete_blocks () =
  (* Fig 4: K9 with b0 = 2 -> three complete triangles. *)
  let adj = Greedy.stable_complete ~b:(Array.make 9 2) in
  Alcotest.(check bool) "block structure" true
    (Cluster.matches_block_structure ~n:9 ~b0:2 adj);
  Alcotest.(check (array int)) "peer 0 mates" [| 1; 2 |] adj.(0);
  Alcotest.(check (array int)) "peer 4 mates" [| 3; 5 |] adj.(4)

let test_greedy_complete_matches_generic () =
  let rng = Helpers.rng () in
  for _ = 1 to 20 do
    let n = 2 + Rng.int rng 30 in
    let b = Array.init n (fun _ -> Rng.int rng 4) in
    let fast = Greedy.stable_complete ~b in
    let inst = Instance.create ~graph:(Gen.complete n) ~b () in
    let slow = Config.to_adjacency (Greedy.stable_config inst) in
    Alcotest.(check bool) "fast = generic on complete graphs" true (fast = slow)
  done

let test_greedy_partners_array () =
  let inst = line_instance 5 1 in
  Alcotest.(check (array int)) "partners" [| 1; 0; 3; 2; -1 |]
    (Greedy.stable_partners_array inst);
  let inst2 = line_instance 3 2 in
  Alcotest.check_raises "b>1 rejected"
    (Invalid_argument "Greedy.stable_partners_array: 1-matching only") (fun () ->
      ignore (Greedy.stable_partners_array inst2))

let prop_greedy_stable =
  Helpers.qtest ~count:300 "Algorithm 1 output is stable" Helpers.instance_params
    (fun (seed, n, p, bmax) ->
      let rng = Rng.create seed in
      let inst = Helpers.random_instance rng ~n ~p ~bmax in
      Blocking.is_stable (Greedy.stable_config inst))

let prop_greedy_unique_stable =
  Helpers.qtest ~count:120 "greedy = the unique stable configuration (brute force)"
    QCheck.(
      make
        ~print:(fun (s, n) -> Printf.sprintf "seed=%d n=%d" s n)
        Gen.(pair (int_bound 1_000_000) (int_range 1 6)))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let inst = Helpers.random_instance rng ~n ~p:0.6 ~bmax:2 in
      match Brute.all_stable_configs inst with
      | [ unique ] -> Config.equal unique (Greedy.stable_config inst)
      | others ->
          QCheck.Test.fail_reportf "expected exactly one stable config, got %d"
            (List.length others))

(* Algorithm 1 on the G(n,p) walk itself: for every peer, the streamed
   kernel reads the mates that the graph, the instance and the sealed
   configuration give, and leaves the budgets it was handed alone. *)
let stream_params =
  QCheck.make
    ~print:(fun (seed, n, p, b) ->
      Printf.sprintf "seed=%d n=%d p=%g b=[%s]" seed n p
        (String.concat "; " (Array.to_list (Array.map string_of_int b))))
    QCheck.Gen.(
      let* seed = int_bound 1_000_000 in
      let* n = int_range 1 40 in
      let* p = oneof [ return 0.; return 1.; float_bound_inclusive 1. ] in
      let* b = array_repeat n (int_bound 3) in
      return (seed, n, p, b))

let prop_stream_mates_match_graph =
  Helpers.qtest ~count:200 "streamed Algorithm 1 = graph path, every peer" stream_params
    (fun (seed, n, p, b) ->
      let rng = Rng.create seed in
      let budgets = Array.copy b in
      let config =
        Greedy.stable_config (Instance.create ~graph:(Gen.gnp (Rng.copy rng) ~n ~p) ~b ())
      in
      List.for_all
        (fun peer ->
          Greedy.mates_of_stream ~b:budgets ~peer (Gen.iter_gnp_edges (Rng.copy rng) ~n ~p)
          = Config.mates config peer)
        (List.init n Fun.id)
      && budgets = b)

let test_stream_errors () =
  let run ~b ~peer edges =
    ignore (Greedy.mates_of_stream ~b ~peer (fun add -> List.iter (fun (u, v) -> add u v) edges))
  in
  let raises what msg f =
    Alcotest.check_raises what (Invalid_argument ("Greedy.mates_of_stream: " ^ msg)) f
  in
  raises "peer past n" "peer 3 outside [0, 3)" (fun () -> run ~b:[| 1; 1; 1 |] ~peer:3 []);
  raises "negative peer" "peer -1 outside [0, 3)" (fun () -> run ~b:[| 1; 1; 1 |] ~peer:(-1) []);
  raises "negative budget" "negative budget -1 at peer 1" (fun () ->
      run ~b:[| 1; -1; 1 |] ~peer:0 []);
  raises "vertex past n" "edge (1, 3) is not 0 <= u < v < 3" (fun () ->
      run ~b:[| 2; 2; 2 |] ~peer:2 [ (0, 1); (1, 3) ]);
  raises "reversed edge" "edge (2, 1) is not 0 <= u < v < 3" (fun () ->
      run ~b:[| 2; 2; 2 |] ~peer:2 [ (2, 1) ]);
  raises "self-loop" "edge (1, 1) is not 0 <= u < v < 3" (fun () ->
      run ~b:[| 2; 2; 2 |] ~peer:2 [ (1, 1) ]);
  raises "out of order" "edge (0, 1) does not follow (0, 2)" (fun () ->
      run ~b:[| 2; 2; 2 |] ~peer:2 [ (0, 2); (0, 1) ]);
  raises "repeated edge" "edge (0, 2) does not follow (0, 2)" (fun () ->
      run ~b:[| 2; 2; 2 |] ~peer:2 [ (0, 2); (0, 2) ])

(* The walk ends at the first edge past row [peer] or when [peer] is
   full, and the stream gives nothing after it. *)
let test_stream_stops () =
  let read = ref 0 in
  let k4 add =
    List.iter
      (fun (u, v) ->
        incr read;
        add u v)
      [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ]
  in
  let mates ~b ~peer =
    read := 0;
    let m = Greedy.mates_of_stream ~b ~peer k4 in
    (m, !read)
  in
  Alcotest.(check (pair (list int) int)) "row 1 ends at (2, 3)" ([ 0; 2; 3 ], 6)
    (mates ~b:[| 3; 4; 3; 3 |] ~peer:1);
  Alcotest.(check (pair (list int) int)) "full peer 0 ends at (0, 1)" ([ 1 ], 1)
    (mates ~b:[| 1; 3; 3; 3 |] ~peer:0);
  Alcotest.(check (pair (list int) int)) "no slot reads nothing" ([], 0)
    (mates ~b:[| 3; 0; 3; 3 |] ~peer:1)

(* ------------------------------------------------------------------ *)
(* Brute                                                               *)

let test_brute_counts () =
  (* K3, b=1: empty + three single-pair configs. *)
  let inst = Instance.create ~graph:(Gen.complete 3) ~b:[| 1; 1; 1 |] () in
  Alcotest.(check int) "K3 1-matchings" 4 (Brute.count_configs inst);
  Alcotest.(check int) "materialised" 4 (List.length (Brute.all_configs inst));
  (* Unique stable: {0,1}. *)
  (match Brute.all_stable_configs inst with
  | [ c ] ->
      Alcotest.(check bool) "0-1 mated" true (Config.mated c 0 1);
      Alcotest.(check int) "peer 2 alone" 0 (Config.degree c 2)
  | l -> Alcotest.failf "expected 1 stable config, got %d" (List.length l))

(* ------------------------------------------------------------------ *)
(* Tan                                                                 *)

let test_tan_no_cycle_in_global_ranking () =
  let rng = Helpers.rng ~seed:5 () in
  for _ = 1 to 30 do
    let inst = Helpers.random_instance rng ~n:7 ~p:0.7 ~bmax:2 in
    let sys = Tan.of_global_ranking inst in
    Alcotest.(check bool) "no preference cycle" true (Tan.find_preference_cycle sys = None);
    Alcotest.(check bool) "ranking-like" true (Tan.is_global_ranking_like sys)
  done

let odd_cycle_prefs =
  (* The classic 3-cycle: each of 0,1,2 prefers its successor. *)
  [| [| 1; 2 |]; [| 2; 0 |]; [| 0; 1 |] |]

let test_tan_finds_odd_cycle () =
  let sys = Tan.of_lists odd_cycle_prefs in
  (match Tan.find_preference_cycle sys with
  | Some cycle -> Alcotest.(check int) "cycle length" 3 (List.length cycle)
  | None -> Alcotest.fail "expected a cycle");
  (match Tan.find_preference_cycle ~parity:`Odd sys with
  | Some _ -> ()
  | None -> Alcotest.fail "expected an odd cycle");
  Alcotest.(check bool) "even cycle absent" true
    (Tan.find_preference_cycle ~parity:`Even sys = None);
  Alcotest.(check bool) "not ranking-like" false (Tan.is_global_ranking_like sys)

let test_tan_symmetrisation () =
  (* 0 lists 1 but 1 does not list 0: the pair must be dropped. *)
  let sys = Tan.of_lists [| [| 1 |]; [||] |] in
  Alcotest.(check bool) "dropped" false (Tan.accepts sys 0 1)

let test_tan_validation () =
  Alcotest.check_raises "self" (Invalid_argument "Tan.of_lists: peer prefers itself") (fun () ->
      ignore (Tan.of_lists [| [| 0 |] |]));
  Alcotest.check_raises "dup" (Invalid_argument "Tan.of_lists: duplicate in preference list")
    (fun () -> ignore (Tan.of_lists [| [| 1; 1 |]; [| 0 |] |]))

(* ------------------------------------------------------------------ *)
(* Roommates                                                           *)

let test_roommates_classic_solvable () =
  (* Gusfield & Irving's 6-person example with a stable matching. *)
  let prefs =
    [|
      [| 3; 5; 1; 2; 4 |];
      [| 5; 2; 4; 0; 3 |];
      [| 1; 4; 5; 0; 3 |];
      [| 2; 5; 4; 1; 0 |];
      [| 0; 1; 2; 3; 5 |];
      [| 4; 2; 3; 1; 0 |];
    |]
  in
  let sys = Tan.of_lists prefs in
  (match Roommates.solve sys with
  | Roommates.Stable mate ->
      Alcotest.(check bool) "checker agrees" true (Roommates.is_stable_matching sys mate);
      Array.iteri (fun p q -> if q >= 0 then Alcotest.(check int) "mutual" p mate.(q)) mate
  | Roommates.No_stable -> Alcotest.fail "expected a stable matching")

let test_roommates_classic_unsolvable () =
  (* The classic 4-person instance with no stable matching: 0,1,2 rank
     each other cyclically and all rank 3 last. *)
  let prefs = [| [| 1; 2; 3 |]; [| 2; 0; 3 |]; [| 0; 1; 3 |]; [| 0; 1; 2 |] |] in
  let sys = Tan.of_lists prefs in
  Alcotest.(check bool) "no stable matching" true (Roommates.solve sys = Roommates.No_stable);
  (* Tan's theorem: there must be an odd preference cycle. *)
  Alcotest.(check bool) "odd cycle exists" true
    (Tan.find_preference_cycle ~parity:`Odd sys <> None)

let test_roommates_global_ranking_agrees_with_greedy () =
  let rng = Helpers.rng ~seed:33 () in
  for _ = 1 to 50 do
    let n = 1 + Rng.int rng 14 in
    let inst = Helpers.random_instance rng ~n ~p:0.5 ~bmax:1 in
    (* Restrict to peers with budget 1 by dropping b=0 peers' edges. *)
    let sys =
      Tan.of_lists
        (Array.init n (fun p ->
             if Instance.slots inst p = 0 then [||]
             else
               Array.of_list
                 (List.filter
                    (fun q -> Instance.slots inst q > 0)
                    (Array.to_list (Instance.acceptable inst p)))))
    in
    match Roommates.solve sys with
    | Roommates.Stable mate ->
        let greedy = Greedy.stable_config inst in
        Array.iteri
          (fun p q ->
            let expected = match Config.best_mate greedy p with Some m -> m | None -> -1 in
            if Instance.slots inst p > 0 then
              Alcotest.(check int) (Printf.sprintf "mate of %d" p) expected q)
          mate
    | Roommates.No_stable -> Alcotest.fail "global ranking always has a stable matching"
  done

(* Brute-force stable-matching enumeration over a general preference
   system (n small). *)
let brute_roommates sys =
  let n = Tan.size sys in
  let mate = Array.make n (-1) in
  let results = ref [] in
  let rec go p =
    if p >= n then begin
      if Roommates.is_stable_matching sys (Array.copy mate) then results := Array.copy mate :: !results
    end
    else if mate.(p) >= 0 then go (p + 1)
    else begin
      (* p stays single *)
      go (p + 1);
      Array.iter
        (fun q ->
          if q > p && mate.(q) < 0 then begin
            mate.(p) <- q;
            mate.(q) <- p;
            go (p + 1);
            mate.(p) <- -1;
            mate.(q) <- -1
          end)
        (Tan.preference_list sys p)
    end
  in
  go 0;
  !results

let random_tan rng n p =
  (* Random symmetric acceptance with random strict preferences. *)
  let prefs = U.adjacency_arrays (Gen.gnp rng ~n ~p) in
  Array.iter (Dist.shuffle rng) prefs;
  Tan.of_lists prefs

let prop_roommates_matches_brute_force =
  Helpers.qtest ~count:300 "Irving agrees with brute force on existence and stability"
    QCheck.(
      make
        ~print:(fun (s, n) -> Printf.sprintf "seed=%d n=%d" s n)
        Gen.(pair (int_bound 1_000_000) (int_range 1 7)))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let sys = random_tan rng n 0.7 in
      let brute = brute_roommates sys in
      match Roommates.solve sys with
      | Roommates.Stable mate ->
          Roommates.is_stable_matching sys mate && List.length brute > 0
      | Roommates.No_stable -> brute = [])

let test_roommates_empty_and_trivial () =
  Alcotest.(check bool) "n=1 stays single" true
    (match Roommates.solve (Tan.of_lists [| [||] |]) with
    | Roommates.Stable [| -1 |] -> true
    | _ -> false);
  (match Roommates.solve (Tan.of_lists [| [| 1 |]; [| 0 |] |]) with
  | Roommates.Stable m -> Alcotest.(check (array int)) "pair" [| 1; 0 |] m
  | Roommates.No_stable -> Alcotest.fail "pair instance is stable")


let prop_relabeling_invariance =
  (* Solving with an arbitrary ranking must agree with solving the
     identity-ranked instance after relabelling the peers by rank. *)
  Helpers.qtest ~count:150 "ranking relabelling invariance" Helpers.instance_params
    (fun (seed, n, p, bmax) ->
      let rng = Rng.create seed in
      let graph = Gen.gnp rng ~n ~p in
      let b = Array.init n (fun _ -> Rng.int rng (bmax + 1)) in
      let scores = Array.init n (fun i -> float_of_int i +. Rng.unit_float rng *. 0.5) in
      match Ranking.of_scores scores with
      | exception Ranking.Ties _ -> true (* astronomically unlikely; skip *)
      | ranking ->
          let inst = Instance.create ~ranking ~graph ~b () in
          let stable = Greedy.stable_config inst in
          (* Identity-ranked twin: relabel vertices by rank. *)
          let twin_graph =
            U.of_edges n (fun add ->
                U.iter_edges (fun u v -> add (Ranking.rank ranking u) (Ranking.rank ranking v)) graph)
          in
          let twin_b = Array.init n (fun r -> b.(Ranking.peer_at ranking r)) in
          let twin = Instance.create ~graph:twin_graph ~b:twin_b () in
          Config.equal (Greedy.stable_config twin) stable
          && Blocking.is_stable stable)

(* Unsorted rows, under the identity and a shuffled ranking: every
   acceptance list must be the relabelled row, sorted, and the input
   rows must stay as they were. *)
let test_of_adjacency_reference () =
  let rng = Rng.create 17 in
  for _ = 1 to 50 do
    let n = 2 + Rng.int rng 30 in
    let adj = U.adjacency_arrays (Gen.gnp rng ~n ~p:0.3) in
    Array.iter (Dist.shuffle rng) adj;
    let before = Array.map Array.copy adj in
    let scores = Array.init n float_of_int in
    Dist.shuffle rng scores;
    List.iter
      (fun ranking ->
        let inst = Instance.of_adjacency ~ranking ~adj ~b:(Array.make n 1) () in
        for r = 0 to n - 1 do
          let expected = Array.map (Ranking.rank ranking) adj.(Ranking.peer_at ranking r) in
          Array.sort compare expected;
          Alcotest.(check (array int)) "sorted, relabelled row" expected
            (Instance.acceptable inst r)
        done)
      [ Ranking.identity n; Ranking.of_scores scores ];
    Alcotest.(check (array (array int))) "input untouched" before adj
  done

let suite =
  [
    Alcotest.test_case "ranking from scores" `Quick test_ranking_of_scores;
    Alcotest.test_case "ranking rejects ties" `Quick test_ranking_ties_rejected;
    Alcotest.test_case "identity ranking" `Quick test_ranking_identity;
    Alcotest.test_case "instance relabelling" `Quick test_instance_relabeling;
    Alcotest.test_case "instance validation" `Quick test_instance_validation;
    Alcotest.test_case "config connect/disconnect" `Quick test_config_connect_disconnect;
    Alcotest.test_case "config guards" `Quick test_config_guards;
    Alcotest.test_case "config drop/copy/equal" `Quick test_config_drop_worst_copy_equal;
    prop_config_worst_cache_matches_lists;
    Alcotest.test_case "blocking pairs" `Quick test_blocking_basics;
    Alcotest.test_case "blocking with zero budgets" `Quick test_blocking_zero_budget;
    Alcotest.test_case "stability check" `Quick test_stability_check;
    Alcotest.test_case "greedy on a path" `Quick test_greedy_line;
    Alcotest.test_case "greedy complete-graph blocks (Fig 4)" `Quick test_greedy_complete_blocks;
    Alcotest.test_case "fast complete path = generic greedy" `Quick
      test_greedy_complete_matches_generic;
    prop_complete_backend_equiv;
    prop_complete_minus_backend_equiv;
    prop_blocking_fused_matches_reference;
    prop_mask_equiv_complete;
    prop_mask_equiv_complete_minus;
    prop_mask_equiv_sparse;
    Alcotest.test_case "stable partners array" `Quick test_greedy_partners_array;
    prop_greedy_stable;
    prop_greedy_unique_stable;
    Alcotest.test_case "brute-force counting" `Quick test_brute_counts;
    Alcotest.test_case "global rankings have no preference cycle" `Quick
      test_tan_no_cycle_in_global_ranking;
    Alcotest.test_case "odd preference cycle found" `Quick test_tan_finds_odd_cycle;
    Alcotest.test_case "acceptability symmetrisation" `Quick test_tan_symmetrisation;
    Alcotest.test_case "preference-system validation" `Quick test_tan_validation;
    Alcotest.test_case "roommates: solvable classic" `Quick test_roommates_classic_solvable;
    Alcotest.test_case "roommates: unsolvable classic" `Quick test_roommates_classic_unsolvable;
    Alcotest.test_case "roommates = greedy under global ranking" `Quick
      test_roommates_global_ranking_agrees_with_greedy;
    prop_roommates_matches_brute_force;
    Alcotest.test_case "roommates corner cases" `Quick test_roommates_empty_and_trivial;
    prop_relabeling_invariance;
    Alcotest.test_case "of_adjacency = sorted relabelled rows" `Quick
      test_of_adjacency_reference;
    Alcotest.test_case "Config.append guards" `Quick test_append_guards;
    prop_writer_matches_connect;
    Alcotest.test_case "identity instance reads the graph's rows" `Quick
      test_instance_shares_graph_rows;
    prop_stream_mates_match_graph;
    Alcotest.test_case "streamed Algorithm 1 errors are named" `Quick test_stream_errors;
    Alcotest.test_case "streamed Algorithm 1 stops after row peer" `Quick test_stream_stops;
    Alcotest.test_case "ranking rejects NaN scores" `Quick test_ranking_rejects_nan;
  ]
