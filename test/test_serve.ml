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

let expect_restore_error what fragments snap =
  match Serve.restore_string (Jsonx.to_string ~indent:false snap) with
  | _ -> Alcotest.failf "%s: corrupt snapshot restored" what
  | exception (Invalid_argument msg | Jsonx.Parse_error msg) ->
      List.iter
        (fun fragment ->
          if not (Helpers.contains msg fragment) then
            Alcotest.failf "%s: error %S lacks %S" what msg fragment)
        ("swarm[s0]" :: fragments)

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
       snap)

(* ---- script JSON ---------------------------------------------------- *)

let script_roundtrip_law (seed, _) =
  let scr = mk_script seed in
  let scr' = Request.of_json (Request.to_json scr) in
  scr = scr'

let expect_parse_error what json =
  match Request.of_json (Jsonx.of_string json) with
  | _ -> Alcotest.failf "%s: unknown key accepted" what
  | exception Jsonx.Parse_error msg ->
      if not (Helpers.contains msg "unknown") then
        Alcotest.failf "%s: error %S does not name the unknown key" what msg

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
    {|{"name": "x", "seed": 1, "world": {"n": 4, "swarms": [{"sid": "a", "size": 3, "pieces": {"pieces": 4, "piece_size": 8.0, "chunk": 1}}]}, "requests": [], "horizon": 5.0}|}

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
      Request.of_line "shout 3 loud")

(* ---- error paths: serve, engine, net (satellite sweep) -------------- *)

let test_serve_errors () =
  let t = Serve.create (mk_script 3) in
  expect_invalid "unknown swarm" "Serve: unknown swarm \"zz\"" (fun () ->
      Serve.handle t (Request.Scrape { swarm = "zz" }));
  expect_invalid "peer range" "outside the population" (fun () ->
      Serve.handle t (Request.Join { peer = 10_000; swarm = "s0" }));
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
    Alcotest.test_case "serve: double-run equality" `Quick test_double_run;
    Alcotest.test_case "serve: membership-heavy answers pinned" `Quick
      test_membership_pinned;
    Alcotest.test_case "serve: restore rejects broken invariants" `Quick
      test_restore_invariants;
    Alcotest.test_case "serve: unknown JSON keys rejected" `Quick
      test_unknown_keys;
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
