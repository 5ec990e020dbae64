(* The service layer (lib/serve): request scripts, the live world, and
   full deterministic snapshot/restore.

   The load-bearing property is stop/resume equality: running a script
   to its horizon in one go, and running it to a random stop time,
   serializing the complete world to a JSON string, restoring it into a
   fresh engine and continuing, must produce byte-identical run
   manifests.  The qcheck law below drives that across random worlds
   (churn, faults, piece mode, multiple swarms). *)

module Rng = Stratify_prng.Rng
module Engine = Stratify_des.Engine
module Net = Stratify_net.Net
module Request = Stratify_serve.Request
module Serve = Stratify_serve.Serve
module Jsonx = Stratify_obs.Jsonx
module Manifest = Stratify_obs.Run_manifest

(* ---- deterministic random scripts ---------------------------------- *)

(* Everything derives from one integer so qcheck shrinking stays
   meaningful (same discipline as Helpers.instance_params). *)
let mk_script seed =
  let rng = Rng.create (0x5e7e + seed) in
  let n = 6 + Rng.int rng 15 in
  let nswarms = 1 + Rng.int rng 2 in
  let swarms =
    List.init nswarms (fun i ->
        let size = 4 + Rng.int rng 7 in
        let piece =
          if Rng.bool rng then
            Some
              {
                Request.pieces = 4 + Rng.int rng 12;
                piece_size = 8.;
                init_fraction = 0.25;
                seeds = 1;
              }
          else None
        in
        let partitions =
          if Rng.bool rng then
            [
              { Request.at_tick = 2 + Rng.int rng 5; groups = Request.Halves };
              { Request.at_tick = 9 + Rng.int rng 5; groups = Request.Heal };
            ]
          else []
        in
        {
          Request.sid = Printf.sprintf "s%d" i;
          size;
          d = 6.;
          loss = (if Rng.bool rng then 0.1 else 0.);
          partitions;
          piece;
        })
  in
  let horizon = 14. +. float_of_int (Rng.int rng 8) in
  let sid k = Printf.sprintf "s%d" (k mod nswarms) in
  let nreq = 6 + Rng.int rng 10 in
  let requests =
    Array.init nreq (fun i ->
        let at = Rng.float rng (horizon -. 0.5) in
        let peer = Rng.int rng n in
        let kind =
          match Rng.int rng 6 with
          | 0 -> Request.Join { peer; swarm = sid i }
          | 1 -> Request.Leave { peer; swarm = sid i }
          | 2 | 3 -> Request.Announce { peer; swarm = sid i; want = Rng.int rng 6 }
          | 4 -> Request.Scrape { swarm = sid i }
          | _ -> Request.Stats
        in
        { Request.at; kind })
  in
  {
    Request.name = "qcheck-serve";
    seed = seed land 0xffff;
    world =
      {
        Request.n;
        d = 5.;
        b = 2;
        churn_rate = (if Rng.bool rng then 0.4 else 0.);
        bands = (if Rng.bool rng then 2 else 1);
        swarms;
      };
    requests;
    horizon;
  }

let manifest_string t = Manifest.to_string (Serve.manifest ~git:"test" t)

(* ---- stop/resume equality ------------------------------------------ *)

let seed_and_cut =
  QCheck.make
    ~print:(fun (seed, cut) -> Printf.sprintf "seed=%d cut=%.2f" seed cut)
    QCheck.Gen.(
      let* seed = int_bound 100_000 in
      let* cut10 = int_range 1 9 in
      return (seed, float_of_int cut10 /. 10.))

let stop_resume_law (seed, cut) =
  let scr = mk_script seed in
  let stop_at = Float.max 1. (cut *. scr.Request.horizon) in
  let uninterrupted =
    let t = Serve.create scr in
    Serve.run_script t;
    manifest_string t
  in
  let resumed =
    let snap =
      let t = Serve.create scr in
      Serve.run_to t stop_at;
      Serve.snapshot_string t
    in
    let t = Serve.restore_string snap in
    (* snapshot of a restored world round-trips byte-for-byte *)
    let again = Serve.snapshot_string t in
    if not (String.equal snap again) then
      QCheck.Test.fail_reportf "snapshot not idempotent (stop %.2f)" stop_at;
    Serve.run_script t;
    manifest_string t
  in
  if not (String.equal uninterrupted resumed) then
    QCheck.Test.fail_reportf "stop/resume manifest drift (stop %.2f):\n%s\nvs\n%s" stop_at
      uninterrupted resumed;
  true

(* ---- the checksum is the fold of the returned replies --------------- *)

(* Replaying a script request by request ([run_to] its stamp, then
   [handle]) serves what [run_script] serves, and [Serve.checksum] is
   FNV-1a over the returned strings, each followed by a newline.  The
   service folds its reply buffer, not the string it hands out, so this
   ties the two together. *)
let fnv_replies replies =
  List.fold_left
    (fun cs reply ->
      let cs = ref cs in
      String.iter (fun c -> cs := ((!cs lxor Char.code c) * 0x01000193) land max_int) reply;
      ((!cs lxor 0x0a) * 0x01000193) land max_int)
    0x811C9DC5 replies

let checksum_law (seed, _) =
  let scr = mk_script seed in
  let requests = Array.copy scr.Request.requests in
  (* same-time requests fire in array order *)
  Array.stable_sort (fun (a : Request.t) b -> Float.compare a.at b.at) requests;
  let t = Serve.create { scr with Request.requests = [||] } in
  let replies = ref [] in
  Array.iter
    (fun (r : Request.t) ->
      Serve.run_to t r.at;
      replies := Serve.handle t r.kind :: !replies)
    requests;
  let scripted =
    let t = Serve.create scr in
    Serve.run_script t;
    Serve.checksum t
  in
  let folded = fnv_replies (List.rev !replies) in
  if folded <> Serve.checksum t || folded <> scripted then
    QCheck.Test.fail_reportf "replies fold to %d; replay checksum %d, scripted %d" folded
      (Serve.checksum t) scripted;
  true

(* ---- scripted vs direct equivalence, double run -------------------- *)

let test_double_run () =
  let scr = mk_script 1234 in
  let run () =
    let t = Serve.create scr in
    Serve.run_script t;
    (manifest_string t, Serve.checksum t)
  in
  let m1, c1 = run () and m2, c2 = run () in
  Alcotest.(check string) "same manifest" m1 m2;
  Alcotest.(check int) "same checksum" c1 c2

(* ---- pinned answers on a membership-heavy script -------------------- *)

(* Swarms that fill up under heavy seat/release traffic (20% join/leave,
   announces wanting up to 50 peers, churn every tick): this drives the
   slot bookkeeping — lowest free slot, padding draws over the occupied
   slots, duplicate picks — and peer recycling far harder than the small
   qcheck scripts.  The checksum and manifest are pinned constants, so
   any change to a single response, slot choice or swarm state fails. *)
let membership_script () =
  let rng = Rng.create 0x5107 in
  let n = 1500 and horizon = 40. and nreq = 4000 in
  let spec sid size ~loss ~piece = { Request.sid; size; d = 12.; loss; partitions = []; piece } in
  let specs =
    [|
      spec "lossy" 300 ~loss:0.1 ~piece:None;
      spec "pieces" 120 ~loss:0.
        ~piece:(Some { Request.pieces = 24; piece_size = 2.; init_fraction = 0.1; seeds = 2 });
      spec "clean" 50 ~loss:0. ~piece:None;
    |]
  in
  let pools =
    Array.map
      (fun (sw : Request.swarm_spec) ->
        Stratify_prng.Dist.sample_without_replacement rng ~k:(sw.size * 5 / 4) ~n)
      specs
  in
  let requests =
    Array.init nreq (fun i ->
        let at = (float_of_int i +. 0.5) *. horizon /. float_of_int nreq in
        let s = Rng.int rng (Array.length specs) in
        let swarm = specs.(s).Request.sid and pool = pools.(s) in
        let peer = pool.(Rng.int rng (Array.length pool)) in
        let kind =
          match Rng.int rng 100 with
          | r when r < 10 -> Request.Join { peer; swarm }
          | r when r < 20 -> Request.Leave { peer; swarm }
          | r when r < 90 -> Request.Announce { peer; swarm; want = 1 + Rng.int rng 50 }
          | r when r < 95 -> Request.Scrape { swarm }
          | _ -> Request.Stats
        in
        { Request.at; kind })
  in
  {
    Request.name = "membership-heavy";
    seed = 77;
    world =
      { Request.n; d = 6.; b = 2; churn_rate = 1.0; bands = 2; swarms = Array.to_list specs };
    requests;
    horizon;
  }

let pinned_checksum = 696264673798283490

let pinned_manifest =
  {|{
  "schema_version": 1,
  "kind": "serve",
  "name": "membership-heavy",
  "seed": 77,
  "scale": 1.0,
  "jobs": 1,
  "git": "test",
  "cores": 1,
  "phases": [],
  "counters": {
    "checksum.serve_responses": 696264673798283490,
    "serve.announces": 2828,
    "serve.arrivals": 20,
    "serve.departures": 20,
    "serve.joins": 362,
    "serve.leaves": 372,
    "serve.oracle.present": 1500,
    "serve.oracle.stable_edges": 1311,
    "serve.reconnects": 0,
    "serve.requests": 4000,
    "serve.scrapes": 211,
    "serve.stats": 227,
    "serve.ticks": 40,
    "serve.swarm.lossy.members": 299,
    "serve.swarm.lossy.completed": 300,
    "serve.swarm.lossy.link_drops": 3158,
    "serve.swarm.lossy.uploaded_milli": 21643590424,
    "serve.swarm.pieces.members": 117,
    "serve.swarm.pieces.completed": 98,
    "serve.swarm.pieces.link_drops": 0,
    "serve.swarm.pieces.uploaded_milli": 736412939,
    "serve.swarm.clean.members": 50,
    "serve.swarm.clean.completed": 50,
    "serve.swarm.clean.link_drops": 0,
    "serve.swarm.clean.uploaded_milli": 1201865662
  },
  "histograms": {},
  "metrics": {
    "horizon": 40.0,
    "now": 40.0
  }
}
|}

let test_membership_pinned () =
  let t = Serve.create (membership_script ()) in
  Serve.run_script t;
  (* [cores] is the host's, not the run's *)
  let m = Manifest.to_string { (Serve.manifest ~git:"test" t) with Manifest.cores = 1 } in
  Alcotest.(check int) "response checksum" pinned_checksum (Serve.checksum t);
  Alcotest.(check string) "manifest" pinned_manifest m

(* The snapshot bytes themselves, mid-run: every rate window, choke
   list, counter and progress entry of the three swarms, in the order
   the format lists them. *)
let test_snapshot_pinned () =
  let t = Serve.create (membership_script ()) in
  Serve.run_to t 20.;
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    (Serve.snapshot_string t);
  Alcotest.(check int64) "FNV-64 of the t=20 snapshot" (-1939435093814881738L) !h

(* ---- every reply kind, byte for byte --------------------------------- *)

(* n = 1001, so ids of one to four digits (0, 9, 10, 99, 100, 999,
   1000) appear in the replies.  Swarm "s" (4 slots) fills up and
   refuses; in swarm "m", peer 0's stable mates 29 and 209 are seated,
   so its announce lists them first, best-ranked first, then pads.
   Peer 999 has no stable mate: its announce is all padding.  The
   replies were recorded while each handler still formatted its own
   string with Printf or a Buffer. *)
let test_reply_bytes () =
  let swarm sid size = { Request.sid; size; d = 2.; loss = 0.; partitions = []; piece = None } in
  let t =
    Serve.create
      {
        Request.name = "reply-bytes";
        seed = 3;
        world =
          {
            Request.n = 1001;
            d = 12.;
            b = 2;
            churn_rate = 0.;
            bands = 1;
            swarms = [ swarm "s" 4; swarm "m" 6 ];
          };
        requests = [||];
        horizon = 10.;
      }
  in
  let stable = Stratify_core.Churn.world_stable (Serve.oracle t) in
  Alcotest.(check (list int)) "peer 0's stable mates" [ 29; 209 ]
    (Stratify_core.Config.mates stable 0);
  Alcotest.(check (list int)) "peer 999's stable mates" [] (Stratify_core.Config.mates stable 999);
  let join peer swarm = Request.Join { peer; swarm }
  and leave peer swarm = Request.Leave { peer; swarm }
  and announce peer swarm want = Request.Announce { peer; swarm; want } in
  let expect =
    List.iter (fun (kind, reply) -> Alcotest.(check string) reply reply (Serve.handle t kind))
  in
  expect
    [
      (join 0 "s", "OK join s 0 slot 0");
      (join 9 "s", "OK join s 9 slot 1");
      (join 9 "s", "ERR join s 9 already-member");
      (join 10 "s", "OK join s 10 slot 2");
      (join 1000 "s", "OK join s 1000 slot 3");
      (join 99 "s", "ERR join s full");
      (announce 100 "s" 5, "ERR announce s full");
      (leave 9 "s", "OK leave s 9");
      (leave 9 "s", "ERR leave s 9 not-a-member");
      (announce 999 "s" 3, "OK announce s 999 peers 1000 10 0");
      (join 209 "m", "OK join m 209 slot 0");
      (join 99 "m", "OK join m 99 slot 1");
      (join 29 "m", "OK join m 29 slot 2");
      (join 100 "m", "OK join m 100 slot 3");
      (announce 0 "m" 3, "OK announce m 0 peers 29 209 99");
      (announce 1000 "m" 50, "OK announce m 1000 peers 0 99 29 100 209");
      (Request.Scrape { swarm = "s" }, "OK scrape s members 4 complete 4 drops 0 uploaded 0.000");
      (Request.Stats, "OK stats now 0 ticks 0 present 1001 stable_edges 936 handled 17");
    ];
  Serve.run_to t 3.;
  expect
    [
      ( Request.Scrape { swarm = "m" },
        "OK scrape m members 6 complete 6 drops 0 uploaded 25351.191" );
      (Request.Stats, "OK stats now 3 ticks 3 present 1001 stable_edges 936 handled 19");
    ];
  Alcotest.(check int) "checksum" 1290784180688390296 (Serve.checksum t)

(* ---- restore checks the membership and neighbour invariants --------- *)

(* Peers 0-4 join at t=0.5 and take slots 0-4 of swarm "s0"; slots 5-7
   stay free. *)
let small_world () =
  let swarm =
    {
      Request.sid = "s0";
      size = 8;
      d = 4.;
      loss = 0.;
      partitions = [];
      piece = Some { Request.pieces = 16; piece_size = 2.; init_fraction = 0.3; seeds = 1 };
    }
  in
  let t =
    Serve.create
      {
        Request.name = "restore-checks";
        seed = 5;
        world = { Request.n = 20; d = 4.; b = 2; churn_rate = 0.; bands = 1; swarms = [ swarm ] };
        requests =
          Array.init 5 (fun peer -> { Request.at = 0.5; kind = Request.Join { peer; swarm = "s0" } });
        horizon = 10.;
      }
  in
  Serve.run_to t 6.;
  Jsonx.of_string (Serve.snapshot_string t)

let rec edit path f j =
  match (path, j) with
  | [], _ -> f j
  | `Field name :: rest, Jsonx.Obj kv ->
      Jsonx.Obj (List.map (fun (k, v) -> if k = name then (k, edit rest f v) else (k, v)) kv)
  | `Nth i :: rest, Jsonx.List l -> Jsonx.List (List.mapi (fun k v -> if k = i then edit rest f v else v) l)
  | _ -> Alcotest.fail "snapshot shape changed"

let swarm0 rest = `Field "swarms" :: `Nth 0 :: rest
let set_to v _ = v

let expect_restore_error ?(at = "swarm[s0]") what fragments snap =
  match Serve.restore_string (Jsonx.to_string ~indent:false snap) with
  | _ -> Alcotest.failf "%s: corrupt snapshot restored" what
  | exception (Invalid_argument msg | Jsonx.Parse_error msg) ->
      List.iter
        (fun fragment ->
          if not (Helpers.contains msg fragment) then
            Alcotest.failf "%s: error %S lacks %S" what msg fragment)
        (at :: fragments)

let test_restore_invariants () =
  let snap = small_world () in
  ignore (Serve.restore_string (Jsonx.to_string ~indent:false snap));
  expect_restore_error "member out of range" [ "slot 6"; "peer 20" ]
    (edit (swarm0 [ `Field "members"; `Nth 6 ]) (set_to (Jsonx.Int 20)) snap);
  expect_restore_error "member seated twice" [ "peer 0"; "slot 0"; "slot 5" ]
    (edit (swarm0 [ `Field "members"; `Nth 5 ]) (set_to (Jsonx.Int 0)) snap);
  (* no peer is its own knowledge-graph neighbour *)
  expect_restore_error "unchoked non-neighbour" [ "slot 2" ]
    (edit
       (swarm0 [ `Field "peers"; `Nth 2; `Field "unchoked" ])
       (set_to (Jsonx.List [ Jsonx.Int 2 ]))
       snap);
  expect_restore_error "optimistic non-neighbour" [ "slot 3" ]
    (edit (swarm0 [ `Field "peers"; `Nth 3; `Field "optimistic" ]) (set_to (Jsonx.Int 3)) snap);
  expect_restore_error "progress non-neighbour" [ "[1, 1]" ]
    (edit
       (swarm0 [ `Field "progress" ])
       (fun j ->
         Jsonx.List
           (Jsonx.List [ Jsonx.Int 1; Jsonx.Int 1; Jsonx.Float 0.5 ] :: Jsonx.get_list j))
       snap);
  (* Slot 6 unchokes [0, 1, 3] with 3 slots; its neighbours are 0, 1, 2,
     3, 4 and 7.  Slot 3's rate windows are from 0, 4, 6 and 7. *)
  let ints l = Jsonx.List (List.map (fun i -> Jsonx.Int i) l) in
  expect_restore_error "duplicate unchoke" [ "slot 6"; "peer 0 unchoked twice" ]
    (edit
       (swarm0 [ `Field "peers"; `Nth 6; `Field "unchoked" ])
       (set_to (ints [ 0; 0; 1 ]))
       snap);
  expect_restore_error "unchokes past the slots" [ "slot 6"; "5 unchokes for 3 slots" ]
    (edit
       (swarm0 [ `Field "peers"; `Nth 6; `Field "unchoked" ])
       (set_to (ints [ 0; 1; 3; 4; 7 ]))
       snap);
  let rates rest = swarm0 (`Field "peers" :: `Nth 3 :: `Field "rates" :: rest) in
  expect_restore_error "rate from a non-neighbour"
    [ "slot 3"; "is from 5, expected neighbour 4" ]
    (edit (rates [ `Nth 1; `Field "from" ]) (set_to (Jsonx.Int 5)) snap);
  expect_restore_error "short rate window" [ "slot 3"; "has window 3, the swarm's is 10" ]
    (edit
       (rates [ `Nth 1 ])
       (function
         | Jsonx.Obj kv ->
             Jsonx.Obj
               (List.map
                  (fun (k, v) ->
                    match k with
                    | "window" -> (k, Jsonx.Int 3)
                    | "buckets" -> (k, Jsonx.List (List.init 3 (fun _ -> Jsonx.Float 0.)))
                    | "stamps" -> (k, ints [ -1; -1; -1 ])
                    | _ -> (k, v))
                  kv)
         | _ -> Alcotest.fail "rate entry is not an object")
       snap);
  expect_restore_error "duplicated rate entry" [ "slot 3"; "is from 0, expected neighbour 4" ]
    (edit (rates [])
       (fun j ->
         match Jsonx.get_list j with
         | r0 :: _ :: rest -> Jsonx.List (r0 :: r0 :: rest)
         | _ -> Alcotest.fail "slot 3 has fewer than two rate windows")
       snap);
  expect_restore_error "missing rate entry" [ "slot 3"; "3 rate windows for 4" ]
    (edit (rates []) (fun j -> Jsonx.List (List.tl (Jsonx.get_list j))) snap);
  (* The oracle's stable pairs must be the instance's unique stable
     configuration (Theorem 1): without its first pair [p, q], a greedy
     rebuild first differs at peer p. *)
  let p =
    match Jsonx.get_list (Jsonx.member "stable" (Jsonx.member "oracle" snap)) with
    | Jsonx.List [ Jsonx.Int p; Jsonx.Int _ ] :: _ -> p
    | _ -> Alcotest.fail "the small world has no stable pair"
  in
  expect_restore_error ~at:"Churn.restore_world" "dropped stable pair"
    [ "Theorem 1"; Printf.sprintf "peer %d has" p ]
    (edit
       [ `Field "oracle"; `Field "stable" ]
       (fun j -> Jsonx.List (List.tl (Jsonx.get_list j)))
       snap);
  (* An absent peer is isolated: a snapshot that marks peer 0 absent
     but keeps its edges would resume into a diverging run. *)
  expect_restore_error ~at:"Churn.restore_world" "absent peer with edges"
    [ "absent peer 0 has" ]
    (edit [ `Field "oracle"; `Field "present"; `Nth 0 ] (set_to (Jsonx.Int 0)) snap);
  (* A served world never runs an initiative, so its evolving
     configuration is always empty. *)
  expect_restore_error ~at:"Serve.restore" "nonempty evolving configuration"
    [ "oracle.config must be empty"; "[0, 3]" ]
    (edit [ `Field "oracle"; `Field "config" ] (set_to (Jsonx.List [ ints [ 0; 3 ] ])) snap)

(* ---- script JSON ---------------------------------------------------- *)

let script_roundtrip_law (seed, _) =
  let scr = mk_script seed in
  let scr' = Request.of_json (Request.to_json scr) in
  scr = scr'

let expect_parse_error ?(fragment = "unknown") what json =
  match Request.of_json (Jsonx.of_string json) with
  | _ -> Alcotest.failf "%s: script accepted" what
  | exception Jsonx.Parse_error msg ->
      if not (Helpers.contains msg fragment) then
        Alcotest.failf "%s: error %S lacks %S" what msg fragment

let minimal_script extra_world extra_top =
  Printf.sprintf
    {|{"name": "x", "seed": 1, "world": {"n": 4, "swarms": [{"sid": "a", "size": 3}]%s}, "requests": [], "horizon": 5.0%s}|}
    extra_world extra_top

let test_unknown_keys () =
  expect_parse_error "top level" (minimal_script "" {|, "bogus": 1|});
  expect_parse_error "world" (minimal_script {|, "pop": 9|} "");
  expect_parse_error "swarm"
    {|{"name": "x", "seed": 1, "world": {"n": 4, "swarms": [{"sid": "a", "size": 3, "speed": 9}]}, "requests": [], "horizon": 5.0}|};
  expect_parse_error "request"
    {|{"name": "x", "seed": 1, "world": {"n": 4, "swarms": [{"sid": "a", "size": 3}]}, "requests": [{"at": 1.0, "kind": "stats", "why": 0}], "horizon": 5.0}|};
  expect_parse_error "pieces"
    {|{"name": "x", "seed": 1, "world": {"n": 4, "swarms": [{"sid": "a", "size": 3, "pieces": {"pieces": 4, "piece_size": 8.0, "chunk": 1}}]}, "requests": [], "horizon": 5.0}|};
  (* a key of another request kind *)
  expect_parse_error ~fragment:"requests[0]: unknown field \"want\"" "join with a want"
    {|{"name": "x", "seed": 1, "world": {"n": 4, "swarms": [{"sid": "a", "size": 3}]}, "requests": [{"at": 1.0, "kind": "join", "peer": 0, "swarm": "a", "want": 3}], "horizon": 5.0}|}

(* A shape error names the field's path in the script or the snapshot. *)
let test_decode_paths () =
  expect_parse_error ~fragment:"serve script.world.swarms[0].size: expected int, got string"
    "size as a string"
    {|{"name": "x", "world": {"n": 4, "swarms": [{"sid": "a", "size": "3"}]}, "horizon": 5.0}|};
  let expect_snapshot_error fragment snap =
    match Serve.restore_string (Jsonx.to_string ~indent:false snap) with
    | _ -> Alcotest.failf "%s: snapshot restored" fragment
    | exception Jsonx.Parse_error msg ->
        if not (Helpers.contains msg fragment) then Alcotest.failf "error %S lacks %S" msg fragment
  in
  let snap = small_world () in
  expect_snapshot_error "serve snapshot.swarms[0].peers[3].optimistic: expected int, got string"
    (edit
       (swarm0 [ `Field "peers"; `Nth 3; `Field "optimistic" ])
       (set_to (Jsonx.String "3"))
       snap);
  expect_snapshot_error "serve snapshot.tallies: unknown field \"joinz\""
    (edit [ `Field "tallies" ]
       (function
         | Jsonx.Obj kv -> Jsonx.Obj (("joinz", Jsonx.Int 0) :: kv)
         | _ -> Alcotest.fail "tallies is not an object")
       snap)

let expect_invalid what fragment f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument msg ->
      if not (Helpers.contains msg fragment) then
        Alcotest.failf "%s: message %S lacks %S" what msg fragment

let test_validate_errors () =
  let base = mk_script 7 in
  expect_invalid "horizon overrun" "beyond the horizon" (fun () ->
      Request.validate
        {
          base with
          Request.requests = [| { Request.at = base.Request.horizon +. 1.; kind = Request.Stats } |];
        });
  expect_invalid "unknown swarm ref" "unknown swarm" (fun () ->
      Request.validate
        {
          base with
          Request.requests =
            [| { Request.at = 1.; kind = Request.Scrape { swarm = "nope" } } |];
        });
  expect_invalid "infinite horizon" "horizon must be finite" (fun () ->
      Request.validate { base with Request.horizon = infinity });
  expect_invalid "stdio syntax" "unknown command" (fun () ->
      Request.of_line "shout 3 loud");
  (* a stdio line takes the ids and counts a script would *)
  expect_invalid "stdio negative want"
    {|serve: announce: want must be a decimal count >= 0, got "-3"|} (fun () ->
      Request.of_line "announce 5 alpha -3");
  expect_invalid "stdio hex peer" {|serve: announce: peer must be a decimal id >= 0, got "0x5"|}
    (fun () -> Request.of_line "announce 0x5 alpha 2");
  expect_invalid "stdio underscore peer" {|serve: join: peer must be a decimal id >= 0, got "1_0"|}
    (fun () -> Request.of_line "join 1_0 beta")

(* ---- error paths: serve, engine, net (satellite sweep) -------------- *)

let test_serve_errors () =
  let t = Serve.create (mk_script 3) in
  ignore (Serve.handle t (Request.Announce { peer = 0; swarm = "s0"; want = 2 }));
  ignore (Serve.handle t (Request.Scrape { swarm = "s0" }));
  let counter name = List.assoc name (Serve.manifest ~git:"test" t).Manifest.counters in
  let kinds = [ "serve.announces"; "serve.joins"; "serve.leaves"; "serve.scrapes"; "serve.stats" ] in
  let before = List.map counter kinds in
  expect_invalid "unknown swarm" "Serve: unknown swarm \"zz\"" (fun () ->
      Serve.handle t (Request.Scrape { swarm = "zz" }));
  expect_invalid "peer range" "outside the population" (fun () ->
      Serve.handle t (Request.Join { peer = 10_000; swarm = "s0" }));
  expect_invalid "announce to an unknown swarm" "Serve: unknown swarm \"zz\"" (fun () ->
      Serve.handle t (Request.Announce { peer = 0; swarm = "zz"; want = 3 }));
  (* a request that raised was not handled, so no tally counts it *)
  Alcotest.(check (list int)) "per-kind tallies after the raising calls" before
    (List.map counter kinds);
  Alcotest.(check int) "per-kind tallies sum to serve.requests" (counter "serve.requests")
    (List.fold_left (fun acc name -> acc + counter name) 0 kinds);
  Serve.run_to t 2.;
  expect_invalid "past run_to" "Engine.run_until" (fun () -> Serve.run_to t 1.)

let test_engine_errors () =
  let e = Engine.create () in
  Engine.run_until e ~time:5.;
  expect_invalid "packed past" "Engine.schedule_packed_at" (fun () ->
      Engine.schedule_packed_at e ~time:1. 0);
  expect_invalid "packed negative delay" "Engine.schedule_packed" (fun () ->
      Engine.schedule_packed e ~delay:(-1.) 0);
  expect_invalid "restore negative now" "Engine.restore_packed" (fun () ->
      Engine.restore_packed ~now:(-1.) [||]);
  expect_invalid "restore non-finite now" "Engine.restore_packed" (fun () ->
      Engine.restore_packed ~now:nan [||]);
  expect_invalid "restore non-finite entry" "Engine.schedule_packed_at" (fun () ->
      Engine.restore_packed ~now:0. [| (infinity, 0) |]);
  (* a dump is non-destructive: the queue stays intact *)
  let e = Engine.create () in
  Engine.schedule_packed e ~delay:1. 7;
  Engine.schedule_packed e ~delay:2. 8;
  Alcotest.(check (array (pair (float 0.) int)))
    "dump in pop order" [| (1., 7); (2., 8) |] (Engine.dump_packed e);
  Alcotest.(check int) "queue intact after dump" 2 (Engine.pending e)

let test_net_errors () =
  expect_invalid "negative tick" "Net.Tick.create" (fun () ->
      Net.Tick.create ~seed:1 ~loss:0.
        ~schedule:[ { Net.Tick.at_tick = -1; groups = None } ]
        ());
  let net = Net.create (Helpers.rng ()) (Net.ideal ()) in
  Engine.run_until (Net.engine net) ~time:10.;
  expect_invalid "past partition event" "Net.set_partition_schedule" (fun () ->
      Net.set_partition_schedule net [ { Net.at = 1.; groups = None } ]);
  (* pre-validation: nothing may have been enqueued by the failed call *)
  Alcotest.(check int) "no partial schedule" 0 (Engine.pending (Net.engine net))

(* An oracle degree so small that G(n,p)'s first gap overflows an int
   must still give the empty acceptance graph, as d = 0 does. *)
let test_tiny_oracle_degree () =
  let stable_pairs d =
    let script =
      Request.of_json
        (Jsonx.of_string
           (Printf.sprintf
              {|{"name": "tiny-d", "horizon": 1.0, "requests": [],
                 "world": {"n": 300, "d": %s, "b": 2, "swarms": [{"sid": "s", "size": 2}]}}|}
              d))
    in
    let stable = Stratify_core.Churn.world_stable (Serve.oracle (Serve.create script)) in
    let count = ref 0 in
    Stratify_core.Config.iter_pairs (fun _ _ -> incr count) stable;
    !count
  in
  Alcotest.(check int) "d = 0" 0 (stable_pairs "0.0");
  Alcotest.(check int) "d = 1e-30" 0 (stable_pairs "1e-30")

let suite =
  [
    Helpers.qtest ~count:12 "serve: stop/resume == uninterrupted (restored engine)"
      seed_and_cut stop_resume_law;
    Helpers.qtest ~count:60 "serve: script JSON round-trips" seed_and_cut
      script_roundtrip_law;
    Helpers.qtest ~count:30 "serve: checksum folds the returned replies" seed_and_cut
      checksum_law;
    Alcotest.test_case "serve: double-run equality" `Quick test_double_run;
    Alcotest.test_case "serve: membership-heavy answers pinned" `Quick
      test_membership_pinned;
    Alcotest.test_case "serve: mid-run snapshot bytes pinned" `Quick test_snapshot_pinned;
    Alcotest.test_case "serve: every reply kind pinned byte for byte" `Quick test_reply_bytes;
    Alcotest.test_case "serve: restore rejects broken invariants" `Quick
      test_restore_invariants;
    Alcotest.test_case "serve: unknown JSON keys rejected" `Quick
      test_unknown_keys;
    Alcotest.test_case "serve: decode errors name the field path" `Quick test_decode_paths;
    Alcotest.test_case "serve: validation errors are named" `Quick
      test_validate_errors;
    Alcotest.test_case "serve: reference errors are named" `Quick
      test_serve_errors;
    Alcotest.test_case "engine: packed error paths are named" `Quick
      test_engine_errors;
    Alcotest.test_case "net: partition scripting error paths" `Quick
      test_net_errors;
    Alcotest.test_case "serve: tiny oracle degree builds no edges" `Quick
      test_tiny_oracle_degree;
  ]
