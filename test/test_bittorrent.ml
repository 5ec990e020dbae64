module Rng = Stratify_prng.Rng
module Profile = Stratify_bandwidth.Profile
module Saroiu = Stratify_bandwidth.Saroiu
open Stratify_bittorrent

(* ------------------------------------------------------------------ *)
(* Rate                                                                *)

let test_rate_window () =
  let r = Rate.create ~window:5 in
  Helpers.check_close "empty" 0. (Rate.rate r ~tick:0);
  Rate.record r ~tick:0 10.;
  Rate.record r ~tick:1 20.;
  Helpers.check_close "avg over window" 6. (Rate.rate r ~tick:1);
  (* Ticks 0 and 1 age out of the window ending at tick 6. *)
  Helpers.check_close "aged out (0)" 4. (Rate.rate r ~tick:5);
  Helpers.check_close "aged out (both)" 0. (Rate.rate r ~tick:8);
  Helpers.check_close "total persists" 30. (Rate.total r)

let test_rate_same_tick_accumulates () =
  let r = Rate.create ~window:4 in
  Rate.record r ~tick:3 1.;
  Rate.record r ~tick:3 2.;
  Helpers.check_close "accumulated" 0.75 (Rate.rate r ~tick:3)

let test_rate_bucket_reuse () =
  let r = Rate.create ~window:2 in
  Rate.record r ~tick:0 5.;
  Rate.record r ~tick:2 7.;
  (* tick 2 reuses the slot of tick 0; old value must not leak. *)
  Helpers.check_close "no leak" 3.5 (Rate.rate r ~tick:2)

(* ------------------------------------------------------------------ *)
(* Piece                                                               *)

let test_piece_bitfield () =
  let f = Piece.create ~pieces:20 in
  Alcotest.(check int) "empty" 0 (Piece.count f);
  Alcotest.(check bool) "add" true (Piece.add f 7);
  Alcotest.(check bool) "add dup" false (Piece.add f 7);
  Alcotest.(check bool) "has" true (Piece.has f 7);
  Alcotest.(check bool) "not has" false (Piece.has f 8);
  Alcotest.(check int) "count" 1 (Piece.count f);
  Piece.fill_all f;
  Alcotest.(check bool) "complete" true (Piece.is_complete f);
  Alcotest.(check int) "full count" 20 (Piece.count f)

let test_piece_random_fill () =
  let rng = Helpers.rng () in
  let f = Piece.create ~pieces:2000 in
  Piece.random_fill f rng ~fraction:0.5;
  let c = Piece.count f in
  Alcotest.(check bool) (Printf.sprintf "half-ish (%d)" c) true (c > 880 && c < 1120)

let test_rarest_first () =
  let mk held =
    let f = Piece.create ~pieces:4 in
    List.iter (fun i -> ignore (Piece.add f i)) held;
    f
  in
  let fields = [| mk [ 0; 1; 2 ]; mk [ 0; 1 ]; mk [ 0 ] |] in
  let counts = Piece.Availability.of_swarm ~pieces:4 fields in
  (* availability: piece0=3, piece1=2, piece2=1, piece3=0 *)
  (* receiver has only piece 0; sender has 0,1,2: rarest wanted = 2. *)
  (match Piece.Availability.rarest_wanted counts ~have:fields.(2) ~from_:fields.(0) with
  | Some p -> Alcotest.(check int) "rarest" 2 p
  | None -> Alcotest.fail "expected a wanted piece");
  (* sender with subset of receiver: not interested. *)
  Alcotest.(check bool) "not interested" true
    (Piece.Availability.rarest_wanted counts ~have:fields.(0) ~from_:fields.(2) = None)

(* ------------------------------------------------------------------ *)
(* Choker                                                              *)

let test_choker_top_slots () =
  let rates = [ (4, 1.); (2, 9.); (7, 5.); (1, 9.) ] in
  let d = Choker.rechoke ~rates ~slots:2 ~current_optimistic:None () in
  (* ties broken by id: 1 before 2 *)
  Alcotest.(check (list int)) "top2" [ 1; 2 ] d.Choker.unchoked;
  Alcotest.(check (option int)) "no optimistic" None d.Choker.optimistic

let test_choker_keeps_valid_optimistic () =
  let rates = [ (1, 5.); (2, 3.); (3, 1.) ] in
  let d = Choker.rechoke ~rates ~slots:1 ~current_optimistic:(Some 3) () in
  Alcotest.(check (list int)) "winner" [ 1 ] d.Choker.unchoked;
  Alcotest.(check (option int)) "kept" (Some 3) d.Choker.optimistic;
  (* Optimistic that became a TFT winner is dropped from the slot. *)
  let d2 = Choker.rechoke ~rates ~slots:1 ~current_optimistic:(Some 1) () in
  Alcotest.(check (option int)) "absorbed" None d2.Choker.optimistic;
  (* Optimistic no longer a neighbour is dropped. *)
  let d3 = Choker.rechoke ~rates ~slots:1 ~current_optimistic:(Some 99) () in
  Alcotest.(check (option int)) "gone" None d3.Choker.optimistic

let test_rotate_optimistic () =
  let rng = Helpers.rng () in
  (match Choker.rotate_optimistic rng ~candidates:[ 1; 2; 3 ] ~exclude:[ 1; 2 ] with
  | Some 3 -> ()
  | other ->
      Alcotest.failf "expected Some 3, got %s"
        (match other with None -> "None" | Some x -> string_of_int x));
  Alcotest.(check (option int)) "exhausted" None
    (Choker.rotate_optimistic rng ~candidates:[ 1 ] ~exclude:[ 1 ])

(* ------------------------------------------------------------------ *)
(* Swarm: bandwidth-only mode                                          *)

let heterogeneous_swarm ?(n = 120) ?(seed = 5) ?(ticks = 400) () =
  let rng = Rng.create seed in
  let uploads = Profile.rank_bandwidths Saroiu.profile ~n in
  let params = { (Swarm.default_params ~uploads) with Swarm.d = 20. } in
  let swarm = Swarm.create rng params in
  Swarm.run swarm ~ticks:(ticks / 2);
  Swarm.reset_counters swarm;
  Swarm.run swarm ~ticks:(ticks / 2);
  swarm

let test_swarm_conservation () =
  let swarm = heterogeneous_swarm () in
  let up = ref 0. and down = ref 0. in
  for i = 0 to Swarm.size swarm - 1 do
    up := !up +. (Swarm.peer swarm i).Peer.uploaded;
    down := !down +. (Swarm.peer swarm i).Peer.downloaded
  done;
  Helpers.check_close_rel ~rel:1e-9 "conservation" !up !down;
  Alcotest.(check bool) "data flowed" true (!up > 0.)

let test_swarm_tft_reciprocity () =
  let swarm = heterogeneous_swarm () in
  let r = Metrics.reciprocity swarm in
  (* The roaming optimistic slot keeps perturbing the matching, so full
     reciprocity is never reached; random unchoking would give ~b0/n. *)
  Alcotest.(check bool) (Printf.sprintf "reciprocity %.2f high" r) true (r > 0.4)

let test_swarm_stratification_emerges () =
  let swarm = heterogeneous_swarm ~n:150 ~ticks:1200 () in
  let c = Metrics.stratification_correlation swarm in
  (* Uncorrelated partner choice would give c ~ 0. *)
  Alcotest.(check bool) (Printf.sprintf "correlation %.2f" c) true (c > 0.4)

let test_swarm_share_ratio_shape () =
  (* Fig 11's gross shape on TFT traffic (what the §6 model predicts):
     the very best peers give more than they get because every potential
     partner is slower; the very worst get more than they give. *)
  let swarm = heterogeneous_swarm ~n:150 ~ticks:1200 () in
  let ratios = Metrics.tft_share_ratios swarm in
  let n = Array.length ratios in
  let mean lo hi =
    let acc = ref 0. in
    for i = lo to hi - 1 do
      acc := !acc +. ratios.(i)
    done;
    !acc /. float_of_int (hi - lo)
  in
  let best = mean 0 5 and worst = mean (n - 5) n in
  Alcotest.(check bool)
    (Printf.sprintf "top-5 %.2f < 1 < bottom-5 %.2f" best worst)
    true
    (best < 1. && worst > 1.)

let test_swarm_partner_rank_offset_small () =
  (* Stratification: TFT partners are close in rank compared to random
     partners (expected offset n/3 for uniform choice). *)
  let n = 150 in
  let swarm = heterogeneous_swarm ~n ~ticks:600 () in
  let ranks = Array.init n (fun i -> i) in
  let offset = Metrics.mean_partner_rank_offset swarm ~ranks in
  (* Uniform random partners would average n/3 = 50. *)
  Alcotest.(check bool)
    (Printf.sprintf "offset %.1f << %d" offset (n / 3))
    true
    (offset < float_of_int n /. 4.)

let test_swarm_determinism () =
  let run seed =
    let swarm = heterogeneous_swarm ~seed () in
    Metrics.share_ratios swarm
  in
  Alcotest.(check bool) "same seed same result" true (run 5 = run 5);
  Alcotest.(check bool) "different seed differs" true (run 5 <> run 6)

(* The exact trajectory, pinned: an FNV-1a fold over every peer's
   transfer counters (IEEE bits), its TFT unchokes, its optimistic
   unchoke and, in piece mode, its piece count.  The property tests
   above hold for many trajectories; a rewrite of the choker or of the
   transfer loop must reproduce this one. *)
let trajectory_hash swarm =
  let h = ref 0xcbf29ce484222325L in
  let word w = h := Int64.mul (Int64.logxor !h w) 0x100000001b3L in
  let int i = word (Int64.of_int i) in
  for i = 0 to Swarm.size swarm - 1 do
    let p = Swarm.peer swarm i in
    List.iter
      (fun x -> word (Int64.bits_of_float x))
      [ p.Peer.uploaded; p.Peer.downloaded; p.Peer.uploaded_tft; p.Peer.downloaded_tft ];
    int (List.length p.Peer.unchoked);
    List.iter int p.Peer.unchoked;
    int (Option.value p.Peer.optimistic ~default:(-1));
    Option.iter (fun f -> int (Piece.count f)) p.Peer.field
  done;
  !h

let test_swarm_trajectory_pinned () =
  let uploads = Array.init 300 (fun i -> 20. +. (10. *. float_of_int (i mod 5))) in
  let swarm = Swarm.create (Rng.create 4242) (Swarm.default_params ~uploads) in
  Swarm.run swarm ~ticks:40;
  Alcotest.(check int64) "300 peers, 40 ticks" 1344991189084431645L (trajectory_hash swarm)

let test_swarm_validation () =
  let rng = Helpers.rng () in
  Alcotest.check_raises "slot mismatch" (Invalid_argument "Swarm.create: |slots| <> |uploads|")
    (fun () ->
      ignore
        (Swarm.create rng
           { (Swarm.default_params ~uploads:(Array.make 4 1.)) with Swarm.slots = [| 3 |] }));
  Alcotest.check_raises "too small" (Invalid_argument "Swarm.create: need at least two peers")
    (fun () -> ignore (Swarm.create rng (Swarm.default_params ~uploads:[| 1. |])))

let test_download_caps_respected () =
  (* Asymmetric links: inbound traffic never exceeds the download cap,
     and conservation degrades only by the throttled surplus. *)
  let n = 60 in
  let rng = Rng.create 19 in
  let uploads = Profile.rank_bandwidths Saroiu.profile ~n in
  let caps = Array.map (fun u -> 2.5 *. u) uploads in
  let params =
    { (Swarm.default_params ~uploads) with Swarm.d = 20.; downloads = Some caps }
  in
  let swarm = Swarm.create rng params in
  let ticks = 400 in
  Swarm.run swarm ~ticks;
  for i = 0 to n - 1 do
    let inflow = (Swarm.peer swarm i).Peer.downloaded /. float_of_int ticks in
    Alcotest.(check bool)
      (Printf.sprintf "peer %d inflow %.1f <= cap %.1f" i inflow caps.(i))
      true
      (inflow <= caps.(i) +. 1e-6)
  done;
  (* Counters record delivered traffic, so conservation is exact... *)
  let total caps_mult =
    let rng = Rng.create 19 in
    let caps = Array.map (fun u -> caps_mult *. u) uploads in
    let params =
      { (Swarm.default_params ~uploads) with Swarm.d = 20.; downloads = Some caps }
    in
    let swarm = Swarm.create rng params in
    Swarm.run swarm ~ticks;
    let up = ref 0. and down = ref 0. in
    for i = 0 to n - 1 do
      up := !up +. (Swarm.peer swarm i).Peer.uploaded;
      down := !down +. (Swarm.peer swarm i).Peer.downloaded
    done;
    Helpers.check_close_rel ~rel:1e-9 "conservation of delivered traffic" !up !down;
    !down
  in
  (* ...and throttling shows as delivered volume growing with the cap. *)
  Alcotest.(check bool) "tighter caps deliver less" true (total 1.2 < total 5.0)

let test_no_caps_matches_old_behaviour () =
  let run downloads =
    let rng = Rng.create 20 in
    let uploads = Array.make 30 10. in
    let params = { (Swarm.default_params ~uploads) with Swarm.d = 10.; downloads } in
    let swarm = Swarm.create rng params in
    Swarm.run swarm ~ticks:100;
    Metrics.share_ratios swarm
  in
  (* An infinite cap must not change anything. *)
  Alcotest.(check bool) "identical" true
    (run None = run (Some (Array.make 30 infinity)))

(* ------------------------------------------------------------------ *)
(* Swarm: piece mode                                                   *)

let piece_swarm ~seeds ~ticks =
  let rng = Rng.create 11 in
  let n = 60 in
  let uploads = Array.make n 16. in
  let params =
    {
      (Swarm.default_params ~uploads) with
      Swarm.d = 15.;
      piece = Some { Swarm.pieces = 50; piece_size = 8.; init_fraction = 0.5; seeds };
    }
  in
  let swarm = Swarm.create rng params in
  Swarm.run swarm ~ticks;
  swarm

let test_piece_mode_progress () =
  let swarm = piece_swarm ~seeds:2 ~ticks:400 in
  let completed = Swarm.completed swarm in
  Alcotest.(check bool) (Printf.sprintf "completions %d" completed) true (completed > 30);
  (* Everyone still holds a valid bitfield and piece counts only grew. *)
  for i = 0 to Swarm.size swarm - 1 do
    match (Swarm.peer swarm i).Peer.field with
    | Some f -> Alcotest.(check bool) "holds pieces" true (Piece.count f >= 1)
    | None -> Alcotest.fail "expected piece mode"
  done

let test_piece_mode_interest_semantics () =
  let swarm = piece_swarm ~seeds:1 ~ticks:0 in
  (* Nobody is interested in a peer holding nothing they lack; everyone
     lacking something is interested in the seed (peer 0). *)
  let interested_in_seed = ref 0 in
  for q = 1 to Swarm.size swarm - 1 do
    match (Swarm.peer swarm q).Peer.field with
    | Some f ->
        if not (Piece.is_complete f) then begin
          if Swarm.interested swarm q 0 then incr interested_in_seed
        end
    | None -> ()
  done;
  Alcotest.(check bool) "most incomplete peers want the seed" true
    (!interested_in_seed > (Swarm.size swarm / 2))

let test_post_flashcrowd_assumption () =
  (* §6's premise: once pieces are well spread, availability barely gates
     throughput — aggregate download in piece mode is close to
     bandwidth-only mode. *)
  let n = 60 in
  let uploads = Array.make n 16. in
  let run piece =
    let rng = Rng.create 21 in
    let params = { (Swarm.default_params ~uploads) with Swarm.d = 15.; piece } in
    let swarm = Swarm.create rng params in
    Swarm.run swarm ~ticks:150;
    let total = ref 0. in
    for i = 0 to n - 1 do
      total := !total +. (Swarm.peer swarm i).Peer.downloaded
    done;
    !total
  in
  let bw_only = run None in
  (* A file large enough that nobody completes inside the window: with
     completion, interest vanishes and throughput trivially collapses. *)
  let with_pieces =
    run (Some { Swarm.pieces = 4000; piece_size = 4.; init_fraction = 0.5; seeds = 2 })
  in
  Alcotest.(check bool)
    (Printf.sprintf "piece throughput %.0f within 10%% of bw-only %.0f" with_pieces bw_only)
    true
    (with_pieces > 0.9 *. bw_only)

let test_piece_swarm_trajectory_pinned () =
  let swarm = piece_swarm ~seeds:2 ~ticks:40 in
  Alcotest.(check int64) "60 peers, 50 pieces, 40 ticks" 3019196061985673940L
    (trajectory_hash swarm)

let suite =
  [
    Alcotest.test_case "rate window semantics" `Quick test_rate_window;
    Alcotest.test_case "rate same-tick accumulation" `Quick test_rate_same_tick_accumulates;
    Alcotest.test_case "rate bucket reuse" `Quick test_rate_bucket_reuse;
    Alcotest.test_case "piece bitfield" `Quick test_piece_bitfield;
    Alcotest.test_case "piece random fill" `Quick test_piece_random_fill;
    Alcotest.test_case "rarest-first selection" `Quick test_rarest_first;
    Alcotest.test_case "choker top slots" `Quick test_choker_top_slots;
    Alcotest.test_case "choker optimistic lifecycle" `Quick test_choker_keeps_valid_optimistic;
    Alcotest.test_case "optimistic rotation" `Quick test_rotate_optimistic;
    Alcotest.test_case "conservation of data" `Slow test_swarm_conservation;
    Alcotest.test_case "TFT reciprocity" `Slow test_swarm_tft_reciprocity;
    Alcotest.test_case "stratification emerges" `Slow test_swarm_stratification_emerges;
    Alcotest.test_case "share-ratio shape (Fig 11, simulated)" `Slow test_swarm_share_ratio_shape;
    Alcotest.test_case "partner rank offset small" `Slow test_swarm_partner_rank_offset_small;
    Alcotest.test_case "simulator determinism" `Slow test_swarm_determinism;
    Alcotest.test_case "swarm trajectory pinned" `Quick test_swarm_trajectory_pinned;
    Alcotest.test_case "swarm validation" `Quick test_swarm_validation;
    Alcotest.test_case "download caps respected" `Slow test_download_caps_respected;
    Alcotest.test_case "no caps = unlimited caps" `Slow test_no_caps_matches_old_behaviour;
    Alcotest.test_case "piece mode progress" `Slow test_piece_mode_progress;
    Alcotest.test_case "piece-mode interest semantics" `Quick test_piece_mode_interest_semantics;
    Alcotest.test_case "post-flash-crowd assumption" `Slow test_post_flashcrowd_assumption;
    Alcotest.test_case "piece-mode trajectory pinned" `Quick test_piece_swarm_trajectory_pinned;
  ]
