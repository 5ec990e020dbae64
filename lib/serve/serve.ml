module Rng = Stratify_prng.Rng
module Engine = Stratify_des.Engine
module Net = Stratify_net.Net
module Churn = Stratify_core.Churn
module Config = Stratify_core.Config
module Instance = Stratify_core.Instance
module Swarm = Stratify_bittorrent.Swarm
module Peer = Stratify_bittorrent.Peer
module Piece = Stratify_bittorrent.Piece
module Rate = Stratify_bittorrent.Rate
module Bw_profile = Stratify_bandwidth.Profile
module Saroiu = Stratify_bandwidth.Saroiu
module Jsonx = Stratify_obs.Jsonx
module Run_manifest = Stratify_obs.Run_manifest

type swarm_state = {
  sspec : Request.swarm_spec;
  swarm : Swarm.t;
  faults : Net.Tick.t option;
  created_rng : int64 array;
      (* the swarm RNG state *before* Swarm.create consumed it: restore
         replays create from here to regenerate the knowledge graph and
         piece fields bit-for-bit, then overwrites the mutable state *)
  members : int array;  (* slot -> peer id, -1 = free *)
  slot_of : (int, int) Hashtbl.t;
  mutable member_count : int;
  (* Derived membership index (rebuilt from [members] on restore, never
     serialized): the occupied slots in ascending order, first
     [member_count] entries live; and per slot, the stamp of the last
     announce that listed its occupant. *)
  occupied : int array;
  picked : int array;
  mutable stamp : int;
}

type t = {
  scr : Request.script;
  engine : Engine.t;
  oracle : Churn.world;
  er_p : float;
  req_rng : Rng.t;  (* announce padding draws *)
  churn_rng : Rng.t;  (* churn process + reconnect edge draws *)
  swarms : swarm_state list;  (* in script order *)
  mutable present_count : int;
  mutable ticks : int;
  mutable announces : int;
  mutable joins : int;
  mutable leaves : int;
  mutable scrapes : int;
  mutable stats_reqs : int;
  mutable reconnects : int;
  mutable arrivals : int;
  mutable departures : int;
  mutable checksum : int;
  mutable requests_handled : int;
}

let script t = t.scr
let engine t = t.engine
let now t = Engine.now t.engine
let ticks t = t.ticks
let checksum t = t.checksum
let requests_handled t = t.requests_handled
let oracle t = t.oracle

(* ------------------------------------------------------------------ *)
(* Response checksum: FNV-1a over response bytes, newline-separated.   *)

let fnv_offset = 0x811C9DC5
let fnv_prime = 0x01000193

let fold_checksum t s =
  let cs = ref t.checksum in
  for i = 0 to String.length s - 1 do
    cs := ((!cs lxor Char.code s.[i]) * fnv_prime) land max_int
  done;
  t.checksum <- ((!cs lxor 0x0a) * fnv_prime) land max_int

(* ------------------------------------------------------------------ *)
(* Directory plumbing.                                                 *)

let find_swarm t sid =
  let rec go = function
    | [] ->
        invalid_arg
          (Printf.sprintf "Serve: unknown swarm %S (known:%s)" sid
             (String.concat ""
                (List.map (fun ss -> " " ^ ss.sspec.Request.sid) t.swarms)))
    | ss :: rest -> if String.equal ss.sspec.Request.sid sid then ss else go rest
  in
  go t.swarms

let check_peer t peer =
  let n = t.scr.Request.world.Request.n in
  if peer < 0 || peer >= n then
    invalid_arg
      (Printf.sprintf "Serve: peer %d outside the population [0, %d)" peer n)

(* Binary search over the live prefix of [occupied]: the first index
   where [past], a predicate monotone in the index, holds (or
   [member_count]). *)
let first_index ss past =
  let lo = ref 0 and hi = ref ss.member_count in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if past mid then hi := mid else lo := mid + 1
  done;
  !lo

let rank ss slot = first_index ss (fun i -> ss.occupied.(i) >= slot)

(* The lowest free slot.  The occupied slots are distinct and sorted,
   so [occupied.(i) >= i], with equality exactly below the first gap:
   the first [i] with [occupied.(i) > i] (or [member_count]) is free. *)
let free_slot ss =
  if ss.member_count = Array.length ss.members then None
  else Some (first_index ss (fun i -> ss.occupied.(i) > i))

let take_slot ss peer slot =
  let pos = rank ss slot in
  Array.blit ss.occupied pos ss.occupied (pos + 1) (ss.member_count - pos);
  ss.occupied.(pos) <- slot;
  ss.members.(slot) <- peer;
  Hashtbl.replace ss.slot_of peer slot;
  ss.member_count <- ss.member_count + 1;
  Swarm.recycle_peer ss.swarm slot

let release_slot ss peer slot =
  Swarm.recycle_peer ss.swarm slot;
  let pos = rank ss slot in
  Array.blit ss.occupied (pos + 1) ss.occupied pos (ss.member_count - pos - 1);
  ss.members.(slot) <- -1;
  Hashtbl.remove ss.slot_of peer;
  ss.member_count <- ss.member_count - 1

(* Upload total over the occupied slots, summed in slot order. *)
let members_uploaded ss =
  let acc = ref 0. in
  for i = 0 to ss.member_count - 1 do
    acc := !acc +. (Swarm.peer ss.swarm ss.occupied.(i)).Peer.uploaded
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Churn: the population evolves under the oracle, and swarm           *)
(* membership follows — a departed peer silently leaves every swarm.   *)

let depart t v =
  Churn.remove_peer t.oracle v;
  t.present_count <- t.present_count - 1;
  t.departures <- t.departures + 1;
  List.iter
    (fun ss ->
      match Hashtbl.find_opt ss.slot_of v with
      | Some slot -> release_slot ss v slot
      | None -> ())
    t.swarms

let arrive t v =
  Churn.insert_peer t.churn_rng t.oracle v ~p:t.er_p;
  t.present_count <- t.present_count + 1;
  t.arrivals <- t.arrivals + 1

let churn_once t =
  let mask = Churn.world_present t.oracle in
  let remove_first = Rng.bool t.churn_rng in
  let removal_ok = t.present_count > 2 in
  if remove_first && removal_ok then (
    match Churn.random_member t.churn_rng mask true with
    | Some v -> depart t v
    | None -> ())
  else
    match Churn.random_member t.churn_rng mask false with
    | Some v -> arrive t v
    | None -> (
        if removal_ok then
          match Churn.random_member t.churn_rng mask true with
          | Some v -> depart t v
          | None -> ())

let ensure_online t peer =
  if not (Churn.world_present t.oracle).(peer) then begin
    Churn.insert_peer t.churn_rng t.oracle peer ~p:t.er_p;
    t.present_count <- t.present_count + 1;
    t.reconnects <- t.reconnects + 1
  end

(* ------------------------------------------------------------------ *)
(* Request handlers.  Reference errors (unknown swarm, peer out of     *)
(* range) raise; state-dependent refusals answer "ERR ..." so the      *)
(* service keeps running — a tracker does not die because a peer       *)
(* joined twice.                                                       *)

let do_announce t peer sid want =
  let ss = find_swarm t sid in
  check_peer t peer;
  ensure_online t peer;
  let own =
    match Hashtbl.find_opt ss.slot_of peer with
    | Some _ as seated -> seated
    | None -> (
        match free_slot ss with
        | Some slot as free ->
            take_slot ss peer slot;
            free
        | None -> None)
  in
  match own with
  | None -> Printf.sprintf "ERR announce %s full" sid
  | Some own ->
      let want = max 0 (min want (ss.member_count - 1)) in
      let buf = Buffer.create 256 in
      Buffer.add_string buf "OK announce ";
      Buffer.add_string buf sid;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int peer);
      Buffer.add_string buf " peers";
      (* a slot stamped with this announce is listed already; the
         announcer's own slot starts stamped *)
      ss.stamp <- ss.stamp + 1;
      let stamp = ss.stamp in
      ss.picked.(own) <- stamp;
      let npicks = ref 0 in
      let pick slot =
        if ss.picked.(slot) <> stamp then begin
          ss.picked.(slot) <- stamp;
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int ss.members.(slot));
          incr npicks
        end
      in
      (* stable-configuration mates first: the tracker answer *is* the
         paper's stratified matching, restricted to this swarm *)
      List.iter
        (fun q ->
          if !npicks < want then
            match Hashtbl.find_opt ss.slot_of q with
            | Some slot -> pick slot
            | None -> ())
        (Config.mates (Churn.world_stable t.oracle) peer);
      (* pad with uniform member draws; bounded attempts keep a
         near-degenerate membership from spinning *)
      let attempts = ref 0 in
      let max_attempts = (4 * want) + 8 in
      while !npicks < want && !attempts < max_attempts do
        incr attempts;
        pick ss.occupied.(Rng.int t.req_rng ss.member_count)
      done;
      Buffer.contents buf

let do_join t peer sid =
  let ss = find_swarm t sid in
  check_peer t peer;
  if Hashtbl.mem ss.slot_of peer then
    Printf.sprintf "ERR join %s %d already-member" sid peer
  else
    match free_slot ss with
    | None -> Printf.sprintf "ERR join %s full" sid
    | Some slot ->
        ensure_online t peer;
        take_slot ss peer slot;
        Printf.sprintf "OK join %s %d slot %d" sid peer slot

let do_leave t peer sid =
  let ss = find_swarm t sid in
  check_peer t peer;
  match Hashtbl.find_opt ss.slot_of peer with
  | None -> Printf.sprintf "ERR leave %s %d not-a-member" sid peer
  | Some slot ->
      release_slot ss peer slot;
      Printf.sprintf "OK leave %s %d" sid peer

let do_scrape t sid =
  let ss = find_swarm t sid in
  Printf.sprintf "OK scrape %s members %d complete %d drops %d uploaded %.3f"
    sid ss.member_count
    (Swarm.completed ss.swarm)
    (Swarm.link_drops ss.swarm)
    (members_uploaded ss)

let do_stats t =
  Printf.sprintf "OK stats now %g ticks %d present %d stable_edges %d handled %d"
    (Engine.now t.engine) t.ticks t.present_count
    (Config.edge_count (Churn.world_stable t.oracle))
    t.requests_handled

let handle t kind =
  let resp =
    match kind with
    | Request.Announce { peer; swarm; want } ->
        t.announces <- t.announces + 1;
        do_announce t peer swarm want
    | Request.Join { peer; swarm } ->
        t.joins <- t.joins + 1;
        do_join t peer swarm
    | Request.Leave { peer; swarm } ->
        t.leaves <- t.leaves + 1;
        do_leave t peer swarm
    | Request.Scrape { swarm } ->
        t.scrapes <- t.scrapes + 1;
        do_scrape t swarm
    | Request.Stats ->
        t.stats_reqs <- t.stats_reqs + 1;
        do_stats t
  in
  t.requests_handled <- t.requests_handled + 1;
  fold_checksum t resp;
  resp

(* ------------------------------------------------------------------ *)
(* The event loop: one self-rescheduling packed tick plus one packed   *)
(* event per scripted request (src = request index).  Packed-only      *)
(* means the queue serializes ([Engine.dump_packed]).                  *)

let kind_tick = 0
let kind_request = 1
let tick_code = Net.Packed.pack ~kind:kind_tick ~src:0 ~dst:0
let request_code i = Net.Packed.pack_checked ~kind:kind_request ~src:i ~dst:0

let handle_tick t =
  List.iter (fun ss -> Swarm.step ss.swarm) t.swarms;
  let rate = t.scr.Request.world.Request.churn_rate in
  if rate > 0. && Rng.bernoulli t.churn_rng rate then churn_once t;
  t.ticks <- t.ticks + 1;
  Engine.schedule_packed t.engine ~delay:1.0 tick_code

let handle_scripted t i = ignore (handle t t.scr.Request.requests.(i).Request.kind)

let install_handler t =
  Engine.set_packed_handler t.engine (fun _e code ->
      match Net.Packed.kind code with
      | 0 -> handle_tick t
      | 1 -> handle_scripted t (Net.Packed.src code)
      | k -> invalid_arg (Printf.sprintf "Serve: unknown packed event kind %d" k))

(* ------------------------------------------------------------------ *)
(* World construction.  All randomness flows from the script seed      *)
(* through named substreams split off a root in a fixed order, so the  *)
(* whole run is a pure function of the script.                         *)

let resolve_groups size = function
  | Request.Heal -> None
  | Request.Halves ->
      Some (Array.init size (fun i -> if 2 * i < size then 0 else 1))
  | Request.Groups g -> Some (Array.copy g)

let make_faults ~seed ~idx (sw : Request.swarm_spec) =
  if sw.loss > 0. || sw.partitions <> [] then
    Some
      (Net.Tick.create
         ~seed:(seed + (7919 * (idx + 1)))
         ~loss:sw.loss
         ~schedule:
           (List.map
              (fun (pe : Request.partition) ->
                { Net.Tick.at_tick = pe.at_tick;
                  groups = resolve_groups sw.size pe.groups })
              sw.partitions)
         ())
  else None

let swarm_params (sw : Request.swarm_spec) ~faults =
  let uploads = Bw_profile.rank_bandwidths Saroiu.profile ~n:sw.size in
  {
    (Swarm.default_params ~uploads) with
    Swarm.d = sw.d;
    faults;
    piece =
      Option.map
        (fun (pp : Request.piece_spec) ->
          {
            Swarm.pieces = pp.pieces;
            piece_size = pp.piece_size;
            init_fraction = pp.init_fraction;
            seeds = pp.seeds;
          })
        sw.piece;
  }

let er_p (w : Request.world_spec) = w.d /. float_of_int (max 1 (w.n - 1))

(* A swarm's directory over its slot -> peer array, with the derived
   membership index built from it. *)
let swarm_state sspec swarm ~faults ~created_rng members =
  let size = Array.length members in
  let slot_of = Hashtbl.create 64 and occupied = Array.make size 0 in
  let count = ref 0 in
  Array.iteri
    (fun slot pid ->
      if pid >= 0 then begin
        Hashtbl.replace slot_of pid slot;
        occupied.(!count) <- slot;
        incr count
      end)
    members;
  {
    sspec;
    swarm;
    faults;
    created_rng;
    members;
    slot_of;
    member_count = !count;
    occupied;
    picked = Array.make size 0;
    stamp = 0;
  }

let create scr =
  let scr = Request.validate scr in
  let w = scr.Request.world in
  let root = Rng.create scr.Request.seed in
  let oracle_rng = Rng.split root in
  let req_rng = Rng.split root in
  let churn_rng = Rng.split root in
  let oracle =
    Churn.make_world ~bands:w.Request.bands oracle_rng ~n:w.Request.n
      ~d:w.Request.d ~b:w.Request.b
  in
  let swarms =
    List.mapi
      (fun idx (sw : Request.swarm_spec) ->
        let srng = Rng.split root in
        let created_rng = Rng.state srng in
        let faults = make_faults ~seed:scr.Request.seed ~idx sw in
        let swarm = Swarm.create srng (swarm_params sw ~faults) in
        swarm_state sw swarm ~faults ~created_rng (Array.make sw.size (-1)))
      w.Request.swarms
  in
  let engine = Engine.create () in
  let t =
    {
      scr;
      engine;
      oracle;
      er_p = er_p w;
      req_rng;
      churn_rng;
      swarms;
      present_count = w.Request.n;
      ticks = 0;
      announces = 0;
      joins = 0;
      leaves = 0;
      scrapes = 0;
      stats_reqs = 0;
      reconnects = 0;
      arrivals = 0;
      departures = 0;
      checksum = fnv_offset;
      requests_handled = 0;
    }
  in
  install_handler t;
  Array.iteri
    (fun i (r : Request.t) ->
      Engine.schedule_packed_at engine ~time:r.at (request_code i))
    scr.Request.requests;
  Engine.schedule_packed_at engine ~time:1.0 tick_code;
  t

let run_to t time = Engine.run_until t.engine ~time
let run_script t = run_to t t.scr.Request.horizon

(* ------------------------------------------------------------------ *)
(* Manifest: built by hand from world-internal tallies, never from the *)
(* process-global counters — so stop/resume across *processes* keeps   *)
(* every total, and the bytes are backend- and wall-clock-invariant.   *)

let manifest ?git t =
  let swarm_counters =
    List.concat_map
      (fun ss ->
        let sid = ss.sspec.Request.sid in
        [
          ("serve.swarm." ^ sid ^ ".members", ss.member_count);
          ("serve.swarm." ^ sid ^ ".completed", Swarm.completed ss.swarm);
          ("serve.swarm." ^ sid ^ ".link_drops", Swarm.link_drops ss.swarm);
          ( "serve.swarm." ^ sid ^ ".uploaded_milli",
            int_of_float (members_uploaded ss *. 1000.) );
        ])
      t.swarms
  in
  {
    Run_manifest.schema_version = Run_manifest.schema_version;
    kind = "serve";
    name = t.scr.Request.name;
    seed = t.scr.Request.seed;
    scale = 1.0;
    jobs = 1;
    git = (match git with Some g -> g | None -> Run_manifest.git_describe ());
    cores = Domain.recommended_domain_count ();
    phases = [];
    counters =
      [
        ("checksum.serve_responses", t.checksum);
        ("serve.announces", t.announces);
        ("serve.arrivals", t.arrivals);
        ("serve.departures", t.departures);
        ("serve.joins", t.joins);
        ("serve.leaves", t.leaves);
        ("serve.oracle.present", t.present_count);
        ( "serve.oracle.stable_edges",
          Config.edge_count (Churn.world_stable t.oracle) );
        ("serve.reconnects", t.reconnects);
        ("serve.requests", t.requests_handled);
        ("serve.scrapes", t.scrapes);
        ("serve.stats", t.stats_reqs);
        ("serve.ticks", t.ticks);
      ]
      @ swarm_counters;
    histograms = [];
    metrics = [ ("horizon", t.scr.Request.horizon); ("now", Engine.now t.engine) ];
    profile = [];
  }

(* ------------------------------------------------------------------ *)
(* Snapshot.  Int64s travel as decimal strings (Jsonx.Int is an OCaml  *)
(* 63-bit int); every hash-table dump is sorted by key so the bytes    *)
(* are canonical.                                                      *)

let json_of_int64 x = Jsonx.String (Int64.to_string x)

let json_of_rng_state st =
  Jsonx.List (List.map json_of_int64 (Array.to_list st))

let json_of_groups = function
  | None -> Jsonx.Null
  | Some g -> Jsonx.List (List.map (fun x -> Jsonx.Int x) (Array.to_list g))

let json_of_faults = function
  | None -> Jsonx.Null
  | Some f ->
      let s = Net.Tick.snapshot f in
      Jsonx.Obj
        [
          ("base", json_of_int64 s.Net.Tick.snap_base);
          ("loss", Jsonx.Float s.Net.Tick.snap_loss);
          ( "pending",
            Jsonx.List
              (List.map
                 (fun (e : Net.Tick.event) ->
                   Jsonx.Obj
                     [
                       ("at_tick", Jsonx.Int e.at_tick);
                       ("groups", json_of_groups e.groups);
                     ])
                 s.Net.Tick.snap_pending) );
          ("groups", json_of_groups s.Net.Tick.snap_groups);
          ("drops", Jsonx.Int s.Net.Tick.snap_drops);
        ]

let json_of_swarm ss =
  let sw = ss.swarm in
  let peers =
    List.init (Swarm.size sw) (fun i ->
        let p = Swarm.peer sw i in
        let rates =
          Hashtbl.fold (fun q r acc -> (q, r) :: acc) p.Peer.link_rates []
          |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
          |> List.map (fun (q, r) ->
                 let buckets, stamps, total = Rate.dump r in
                 Jsonx.Obj
                   [
                     ("from", Jsonx.Int q);
                     ("window", Jsonx.Int (Rate.window r));
                     ( "buckets",
                       Jsonx.List
                         (List.map (fun x -> Jsonx.Float x)
                            (Array.to_list buckets)) );
                     ( "stamps",
                       Jsonx.List
                         (List.map (fun x -> Jsonx.Int x) (Array.to_list stamps))
                     );
                     ("total", Jsonx.Float total);
                   ])
        in
        let pieces =
          match p.Peer.field with
          | None -> Jsonx.Null
          | Some f ->
              let held = ref [] in
              Piece.iter_held f (fun pc -> held := pc :: !held);
              Jsonx.List
                (List.map (fun pc -> Jsonx.Int pc) (List.sort compare !held))
        in
        Jsonx.Obj
          [
            ( "unchoked",
              Jsonx.List (List.map (fun q -> Jsonx.Int q) p.Peer.unchoked) );
            ( "optimistic",
              Jsonx.Int (match p.Peer.optimistic with Some q -> q | None -> -1)
            );
            ("uploaded", Jsonx.Float p.Peer.uploaded);
            ("downloaded", Jsonx.Float p.Peer.downloaded);
            ("uploaded_tft", Jsonx.Float p.Peer.uploaded_tft);
            ("downloaded_tft", Jsonx.Float p.Peer.downloaded_tft);
            ("pieces", pieces);
            ("rates", Jsonx.List rates);
          ])
  in
  let progress =
    let acc = ref [] in
    Swarm.iter_link_progress sw (fun s r v -> acc := (s, r, v) :: !acc);
    Jsonx.List
      (List.map
         (fun (s, r, v) ->
           Jsonx.List [ Jsonx.Int s; Jsonx.Int r; Jsonx.Float v ])
         (List.sort compare !acc))
  in
  Jsonx.Obj
    [
      ("sid", Jsonx.String ss.sspec.Request.sid);
      ("created_rng", json_of_rng_state ss.created_rng);
      ("rng", json_of_rng_state (Rng.state (Swarm.rng sw)));
      ("tick", Jsonx.Int (Swarm.tick_count sw));
      ( "members",
        Jsonx.List (List.map (fun m -> Jsonx.Int m) (Array.to_list ss.members))
      );
      ("faults", json_of_faults ss.faults);
      ("peers", Jsonx.List peers);
      ("progress", progress);
    ]

let json_of_oracle oracle =
  let present = Churn.world_present oracle in
  let adjacency =
    match Instance.raw_backend (Churn.world_instance oracle) with
    | Instance.Raw_dynamic { rows; len } ->
        Jsonx.List
          (List.init (Array.length rows) (fun i ->
               Jsonx.List (List.init len.(i) (fun j -> Jsonx.Int rows.(i).(j)))))
    | _ -> invalid_arg "Serve.snapshot: oracle instance is not dynamic"
  in
  let pairs cfg =
    let acc = ref [] in
    Config.iter_pairs
      (fun p q -> acc := Jsonx.List [ Jsonx.Int p; Jsonx.Int q ] :: !acc)
      cfg;
    Jsonx.List (List.rev !acc)
  in
  Jsonx.Obj
    [
      ( "present",
        Jsonx.List
          (List.map
             (fun b -> Jsonx.Int (if b then 1 else 0))
             (Array.to_list present)) );
      ("adjacency", adjacency);
      ("config", pairs (Churn.world_config oracle));
      ("stable", pairs (Churn.world_stable oracle));
    ]

let snapshot t =
  let queue = Engine.dump_packed t.engine in
  Jsonx.Obj
    [
      ("schema_version", Jsonx.Int 1);
      ("kind", Jsonx.String "serve-snapshot");
      ("script", Request.to_json t.scr);
      ("now", Jsonx.Float (Engine.now t.engine));
      (* the queue entries in the canonical (time, seq) order *)
      ("ticks", Jsonx.Int t.ticks);
      ( "tallies",
        Jsonx.Obj
          [
            ("announces", Jsonx.Int t.announces);
            ("joins", Jsonx.Int t.joins);
            ("leaves", Jsonx.Int t.leaves);
            ("scrapes", Jsonx.Int t.scrapes);
            ("stats", Jsonx.Int t.stats_reqs);
            ("reconnects", Jsonx.Int t.reconnects);
            ("arrivals", Jsonx.Int t.arrivals);
            ("departures", Jsonx.Int t.departures);
            ("requests_handled", Jsonx.Int t.requests_handled);
          ] );
      ("checksum", Jsonx.Int t.checksum);
      ("req_rng", json_of_rng_state (Rng.state t.req_rng));
      ("churn_rng", json_of_rng_state (Rng.state t.churn_rng));
      ( "queue",
        Jsonx.List
          (List.map
             (fun (time, code) ->
               Jsonx.List [ Jsonx.Float time; Jsonx.Int code ])
             (Array.to_list queue)) );
      ("oracle", json_of_oracle t.oracle);
      ("swarms", Jsonx.List (List.map json_of_swarm t.swarms));
    ]

let snapshot_string t = Jsonx.to_string ~indent:false (snapshot t)

(* ------------------------------------------------------------------ *)
(* Restore.                                                            *)

let parse_fail fmt =
  Printf.ksprintf (fun msg -> raise (Jsonx.Parse_error msg)) fmt

let req what name obj =
  match List.assoc_opt name obj with
  | Some v -> v
  | None -> parse_fail "%s: missing field %S" what name

let int64_of_json what = function
  | Jsonx.String s -> (
      try Int64.of_string s
      with _ -> parse_fail "%s: bad int64 %S" what s)
  | _ -> parse_fail "%s: expected an int64-as-string" what

let rng_state_of_json what = function
  | Jsonx.List l -> Array.of_list (List.map (int64_of_json what) l)
  | _ -> parse_fail "%s: expected an RNG state list" what

let int_array what = function
  | Jsonx.List l -> Array.of_list (List.map Jsonx.get_int l)
  | _ -> parse_fail "%s: expected an int array" what

let float_array what = function
  | Jsonx.List l -> Array.of_list (List.map Jsonx.get_float l)
  | _ -> parse_fail "%s: expected a float array" what

let groups_of_json what = function
  | Jsonx.Null -> None
  | j -> Some (int_array what j)

let faults_of_json what = function
  | Jsonx.Null -> None
  | fj ->
      let fo = Jsonx.get_obj fj in
      let pending =
        List.map
          (fun ej ->
            let eo = Jsonx.get_obj ej in
            {
              Net.Tick.at_tick = Jsonx.get_int (req what "at_tick" eo);
              groups = groups_of_json what (req what "groups" eo);
            })
          (Jsonx.get_list (req what "pending" fo))
      in
      Some
        (Net.Tick.restore
           {
             Net.Tick.snap_base = int64_of_json what (req what "base" fo);
             snap_loss = Jsonx.get_float (req what "loss" fo);
             snap_pending = pending;
             snap_groups = groups_of_json what (req what "groups" fo);
             snap_drops = Jsonx.get_int (req what "drops" fo);
           })

let restore_invalid fmt = Printf.ksprintf invalid_arg fmt

let restore_swarm what ~n (sw : Request.swarm_spec) sj =
  let obj = Jsonx.get_obj sj in
  let sid = Jsonx.get_string (req what "sid" obj) in
  if not (String.equal sid sw.sid) then
    parse_fail "%s: swarm %S out of order (script declares %S here)" what sid
      sw.sid;
  let what = Printf.sprintf "%s.swarm[%s]" what sid in
  let created_rng = rng_state_of_json what (req what "created_rng" obj) in
  let faults = faults_of_json what (req what "faults" obj) in
  (* replay create from the captured pre-create RNG state: regenerates
     the knowledge graph and piece fields bit-for-bit *)
  let srng = Rng.of_state created_rng in
  let swarm = Swarm.create srng (swarm_params sw ~faults) in
  Rng.set_state (Swarm.rng swarm) (rng_state_of_json what (req what "rng" obj));
  Swarm.set_tick swarm (Jsonx.get_int (req what "tick" obj));
  let members = int_array what (req what "members" obj) in
  if Array.length members <> sw.size then
    parse_fail "%s: members has %d slots, swarm has %d" what
      (Array.length members) sw.size;
  let peers_j = Jsonx.get_list (req what "peers" obj) in
  if List.length peers_j <> sw.size then
    parse_fail "%s: %d peer records, swarm has %d slots" what
      (List.length peers_j) sw.size;
  (* Choke references and link progress must only ever name
     knowledge-graph neighbours: the simulation never creates any other,
     and [Swarm.recycle_peer] relies on it to visit neighbours only. *)
  let neighbour i q = Array.mem q (Swarm.peer swarm i).Peer.neighbors in
  let chokes_neighbour i role q =
    if not (neighbour i q) then
      restore_invalid "%s: slot %d's %s %d is not a knowledge-graph neighbour"
        what i role q;
    q
  in
  List.iteri
    (fun i pj ->
      let po = Jsonx.get_obj pj in
      let p = Swarm.peer swarm i in
      p.Peer.unchoked <-
        List.map
          (fun qj -> chokes_neighbour i "unchoked peer" (Jsonx.get_int qj))
          (Jsonx.get_list (req what "unchoked" po));
      p.Peer.optimistic <-
        (match Jsonx.get_int (req what "optimistic" po) with
        | -1 -> None
        | q -> Some (chokes_neighbour i "optimistic unchoke" q));
      p.Peer.uploaded <- Jsonx.get_float (req what "uploaded" po);
      p.Peer.downloaded <- Jsonx.get_float (req what "downloaded" po);
      p.Peer.uploaded_tft <- Jsonx.get_float (req what "uploaded_tft" po);
      p.Peer.downloaded_tft <- Jsonx.get_float (req what "downloaded_tft" po);
      Hashtbl.reset p.Peer.link_rates;
      List.iter
        (fun rj ->
          let ro = Jsonx.get_obj rj in
          Hashtbl.replace p.Peer.link_rates
            (Jsonx.get_int (req what "from" ro))
            (Rate.restore
               ~window:(Jsonx.get_int (req what "window" ro))
               ~buckets:(float_array what (req what "buckets" ro))
               ~stamps:(int_array what (req what "stamps" ro))
               ~total:(Jsonx.get_float (req what "total" ro))))
        (Jsonx.get_list (req what "rates" po));
      match req what "pieces" po with
      | Jsonx.Null -> ()
      | pcj ->
          Swarm.set_held_pieces swarm i
            (List.map Jsonx.get_int (Jsonx.get_list pcj)))
    peers_j;
  Swarm.clear_link_progress swarm;
  List.iter
    (fun ej ->
      match Jsonx.get_list ej with
      | [ s; r; v ] ->
          let s = Jsonx.get_int s and r = Jsonx.get_int r in
          if s < 0 || s >= sw.size || not (neighbour s r) then
            restore_invalid
              "%s: progress entry [%d, %d] is not a knowledge-graph neighbour pair"
              what s r;
          Swarm.set_link_progress swarm ~sender:s ~receiver:r (Jsonx.get_float v)
      | _ -> parse_fail "%s: progress entry must be [sender, receiver, v]" what)
    (Jsonx.get_list (req what "progress" obj));
  let ss = swarm_state sw swarm ~faults ~created_rng members in
  Array.iteri
    (fun slot pid ->
      if pid < -1 || pid >= n then
        restore_invalid "%s: slot %d holds peer %d, outside the population [0, %d)"
          what slot pid n;
      if pid >= 0 then
        let last = Hashtbl.find ss.slot_of pid in
        if last <> slot then
          restore_invalid "%s: peer %d holds both slot %d and slot %d" what pid
            slot last)
    members;
  ss

let restore j =
  let what = "Serve.restore" in
  let top = Jsonx.get_obj j in
  (match Jsonx.get_int (req what "schema_version" top) with
  | 1 -> ()
  | v -> parse_fail "%s: unsupported schema_version %d" what v);
  (match Jsonx.get_string (req what "kind" top) with
  | "serve-snapshot" -> ()
  | k -> parse_fail "%s: kind %S is not a serve snapshot" what k);
  let scr = Request.of_json (req what "script" top) in
  let w = scr.Request.world in
  let now = Jsonx.get_float (req what "now" top) in
  let tallies = Jsonx.get_obj (req what "tallies" top) in
  let tally name = Jsonx.get_int (req (what ^ ".tallies") name tallies) in
  let queue =
    Jsonx.get_list (req what "queue" top)
    |> List.map (fun e ->
           match Jsonx.get_list e with
           | [ time; code ] -> (Jsonx.get_float time, Jsonx.get_int code)
           | _ -> parse_fail "%s: queue entry must be [time, code]" what)
    |> Array.of_list
  in
  let oracle_j = Jsonx.get_obj (req what "oracle" top) in
  let present =
    Array.of_list
      (List.map
         (fun v -> Jsonx.get_int v <> 0)
         (Jsonx.get_list (req what "present" oracle_j)))
  in
  let adjacency =
    Array.of_list
      (List.map
         (fun row -> int_array (what ^ ".adjacency") row)
         (Jsonx.get_list (req what "adjacency" oracle_j)))
  in
  let pairs name =
    List.map
      (fun pq ->
        match Jsonx.get_list pq with
        | [ a; b ] -> (Jsonx.get_int a, Jsonx.get_int b)
        | _ -> parse_fail "%s: %s entry must be [p, q]" what name)
      (Jsonx.get_list (req what name oracle_j))
  in
  let oracle =
    Churn.restore_world ~n:w.Request.n ~b:w.Request.b ~present ~adjacency
      ~config_pairs:(pairs "config") ~stable_pairs:(pairs "stable")
  in
  let swarm_js = Jsonx.get_list (req what "swarms" top) in
  if List.length swarm_js <> List.length w.Request.swarms then
    parse_fail "%s: snapshot has %d swarms, script declares %d" what
      (List.length swarm_js)
      (List.length w.Request.swarms);
  let swarms =
    List.map2 (restore_swarm what ~n:w.Request.n) w.Request.swarms swarm_js
  in
  (* restore_packed replays the snapshot's canonical (time, seq) order *)
  let engine = Engine.restore_packed ~now queue in
  let t =
    {
      scr;
      engine;
      oracle;
      er_p = er_p w;
      req_rng = Rng.of_state (rng_state_of_json what (req what "req_rng" top));
      churn_rng =
        Rng.of_state (rng_state_of_json what (req what "churn_rng" top));
      swarms;
      present_count =
        Array.fold_left (fun a b -> if b then a + 1 else a) 0 present;
      ticks = Jsonx.get_int (req what "ticks" top);
      announces = tally "announces";
      joins = tally "joins";
      leaves = tally "leaves";
      scrapes = tally "scrapes";
      stats_reqs = tally "stats";
      reconnects = tally "reconnects";
      arrivals = tally "arrivals";
      departures = tally "departures";
      checksum = Jsonx.get_int (req what "checksum" top);
      requests_handled = tally "requests_handled";
    }
  in
  install_handler t;
  t

let restore_string s = restore (Jsonx.of_string s)
