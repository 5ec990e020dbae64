module Rng = Stratify_prng.Rng
module Engine = Stratify_des.Engine
module Net = Stratify_net.Net
module Churn = Stratify_core.Churn
module Config = Stratify_core.Config
module Instance = Stratify_core.Instance
module Swarm = Stratify_bittorrent.Swarm
module Piece = Stratify_bittorrent.Piece
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
  mutable member_count : int;
  (* Derived membership index (rebuilt from [members] on restore, never
     serialized): per population id, its slot or -1; the occupied slots
     in ascending order, first [member_count] entries live; and per
     slot, the stamp of the last announce that listed its occupant. *)
  slot_of : int array;
  occupied : int array;
  picked : int array;
  mutable stamp : int;
}

(* Request and churn totals, as the manifest and a snapshot carry them. *)
type tallies = {
  mutable announces : int;
  mutable joins : int;
  mutable leaves : int;
  mutable scrapes : int;
  mutable stats : int;
  mutable reconnects : int;
  mutable arrivals : int;
  mutable departures : int;
  mutable requests_handled : int;
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
  tallies : tallies;
  mutable checksum : int;
  (* the response being written: [out_len] bytes of [out] *)
  mutable out : Bytes.t;
  mutable out_len : int;
}

let script t = t.scr
let engine t = t.engine
let now t = Engine.now t.engine
let ticks t = t.ticks
let checksum t = t.checksum
let requests_handled t = t.tallies.requests_handled
let oracle t = t.oracle

(* ------------------------------------------------------------------ *)
(* The response writer.  Every handler appends its reply to one reused *)
(* buffer, so a request allocates only the string [handle] returns.    *)

let reserve t k =
  let need = t.out_len + k in
  if need > Bytes.length t.out then begin
    let cap = ref (2 * Bytes.length t.out) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let grown = Bytes.create !cap in
    Bytes.blit t.out 0 grown 0 t.out_len;
    t.out <- grown
  end

let add_char t c =
  reserve t 1;
  Bytes.unsafe_set t.out t.out_len c;
  t.out_len <- t.out_len + 1

let add_string t s =
  let k = String.length s in
  reserve t k;
  Bytes.unsafe_blit_string s 0 t.out t.out_len k;
  t.out_len <- t.out_len + k

(* The digits [string_of_int] writes for [x >= 0]; every int a reply
   carries (ids, slots, counts) is one. *)
let add_int t (x : int) =
  let digits = ref 1 and rest = ref (x / 10) in
  while !rest > 0 do
    incr digits;
    rest := !rest / 10
  done;
  reserve t !digits;
  let v = ref x in
  for i = t.out_len + !digits - 1 downto t.out_len do
    Bytes.unsafe_set t.out i (Char.unsafe_chr (Char.code '0' + (!v mod 10)));
    v := !v / 10
  done;
  t.out_len <- t.out_len + !digits

(* " x", the way a reply lists an id *)
let add_id t x =
  add_char t ' ';
  add_int t x

(* Response checksum: FNV-1a over response bytes, newline-separated. *)
let fnv_offset = 0x811C9DC5
let fnv_prime = 0x01000193

let fold_checksum t =
  let cs = ref t.checksum in
  for i = 0 to t.out_len - 1 do
    cs := ((!cs lxor Char.code (Bytes.unsafe_get t.out i)) * fnv_prime) land max_int
  done;
  t.checksum <- ((!cs lxor 0x0a) * fnv_prime) land max_int

(* ------------------------------------------------------------------ *)
(* Directory plumbing.                                                 *)

(* Module-level so the walk builds no closure per request (DESIGN.md §13). *)
let rec find_swarm_in t sid = function
  | [] ->
      invalid_arg
        (Printf.sprintf "Serve: unknown swarm %S (known:%s)" sid
           (String.concat "" (List.map (fun ss -> " " ^ ss.sspec.Request.sid) t.swarms)))
  | ss :: rest -> if String.equal ss.sspec.Request.sid sid then ss else find_swarm_in t sid rest

let find_swarm t sid = find_swarm_in t sid t.swarms

let check_peer t peer =
  let n = t.scr.Request.world.Request.n in
  if peer < 0 || peer >= n then
    invalid_arg
      (Printf.sprintf "Serve: peer %d outside the population [0, %d)" peer n)

(* Two binary searches over the live prefix of [occupied], each written
   out so that no predicate closure is built per request. *)

(* The index of [slot] in [occupied], or where it would go. *)
let rank ss slot =
  let lo = ref 0 and hi = ref ss.member_count in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if ss.occupied.(mid) >= slot then hi := mid else lo := mid + 1
  done;
  !lo

(* The lowest free slot, or -1 when the swarm is full.  The occupied
   slots are distinct and sorted, so [occupied.(i) >= i], with equality
   exactly below the first gap: the first [i] with [occupied.(i) > i]
   (or [member_count]) is free. *)
let free_slot ss =
  if ss.member_count = Array.length ss.members then -1
  else begin
    let lo = ref 0 and hi = ref ss.member_count in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if ss.occupied.(mid) > mid then hi := mid else lo := mid + 1
    done;
    !lo
  end

(* The tail shifts are plain loops: [Array.blit] into an old (major
   heap) array runs [caml_modify] on every element, even for ints. *)
let take_slot ss peer slot =
  let pos = rank ss slot in
  let occupied = ss.occupied in
  for i = ss.member_count downto pos + 1 do
    occupied.(i) <- occupied.(i - 1)
  done;
  occupied.(pos) <- slot;
  ss.members.(slot) <- peer;
  ss.slot_of.(peer) <- slot;
  ss.member_count <- ss.member_count + 1;
  Swarm.recycle_peer ss.swarm slot

let release_slot ss peer slot =
  Swarm.recycle_peer ss.swarm slot;
  let pos = rank ss slot in
  let occupied = ss.occupied in
  for i = pos to ss.member_count - 2 do
    occupied.(i) <- occupied.(i + 1)
  done;
  ss.members.(slot) <- -1;
  ss.slot_of.(peer) <- -1;
  ss.member_count <- ss.member_count - 1

(* Upload total over the occupied slots, summed in slot order. *)
let members_uploaded ss =
  let acc = ref 0. in
  for i = 0 to ss.member_count - 1 do
    acc := !acc +. Swarm.uploaded ss.swarm ss.occupied.(i)
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Churn: the population evolves under the oracle, and swarm           *)
(* membership follows — a departed peer silently leaves every swarm.   *)

let depart t v =
  Churn.remove_peer t.oracle v;
  t.present_count <- t.present_count - 1;
  t.tallies.departures <- t.tallies.departures + 1;
  List.iter
    (fun ss ->
      let slot = ss.slot_of.(v) in
      if slot >= 0 then release_slot ss v slot)
    t.swarms

let arrive t v =
  Churn.insert_peer t.churn_rng t.oracle v ~p:t.er_p;
  t.present_count <- t.present_count + 1;
  t.tallies.arrivals <- t.tallies.arrivals + 1

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
    t.tallies.reconnects <- t.tallies.reconnects + 1
  end

(* ------------------------------------------------------------------ *)
(* Request handlers.  Reference errors (unknown swarm, peer out of     *)
(* range) raise before anything is written; state-dependent refusals   *)
(* answer "ERR ..." so the service keeps running — a tracker does not  *)
(* die because a peer joined twice.  Each handler writes its reply     *)
(* into the response buffer.                                           *)

(* List [slot]'s occupant unless this announce (stamped [stamp]) has
   listed it already; 1 if listed now, else 0. *)
let pick t ss stamp slot =
  if ss.picked.(slot) = stamp then 0
  else begin
    ss.picked.(slot) <- stamp;
    add_id t ss.members.(slot);
    1
  end

let do_announce t peer sid want =
  let ss = find_swarm t sid in
  check_peer t peer;
  ensure_online t peer;
  let own =
    let seated = ss.slot_of.(peer) in
    if seated >= 0 then seated
    else
      let free = free_slot ss in
      if free >= 0 then take_slot ss peer free;
      free
  in
  if own < 0 then begin
    add_string t "ERR announce ";
    add_string t sid;
    add_string t " full"
  end
  else begin
    let want = Int.max 0 (Int.min want (ss.member_count - 1)) in
    add_string t "OK announce ";
    add_string t sid;
    add_id t peer;
    add_string t " peers";
    (* a slot stamped with this announce is listed already; the
       announcer's own slot starts stamped *)
    ss.stamp <- ss.stamp + 1;
    let stamp = ss.stamp in
    ss.picked.(own) <- stamp;
    let npicks = ref 0 in
    (* stable-configuration mates first, best-ranked first: the tracker
       answer *is* the paper's stratified matching, restricted to this
       swarm *)
    let stable = Churn.world_stable t.oracle in
    let degree = Config.degree stable peer in
    let i = ref 0 in
    while !npicks < want && !i < degree do
      let slot = ss.slot_of.(Config.mate_at stable peer !i) in
      if slot >= 0 then npicks := !npicks + pick t ss stamp slot;
      incr i
    done;
    (* pad with uniform member draws; bounded attempts keep a
       near-degenerate membership from spinning *)
    let attempts = ref 0 in
    let max_attempts = (4 * want) + 8 in
    while !npicks < want && !attempts < max_attempts do
      incr attempts;
      npicks := !npicks + pick t ss stamp ss.occupied.(Rng.int t.req_rng ss.member_count)
    done
  end

let do_join t peer sid =
  let ss = find_swarm t sid in
  check_peer t peer;
  if ss.slot_of.(peer) >= 0 then begin
    add_string t "ERR join ";
    add_string t sid;
    add_id t peer;
    add_string t " already-member"
  end
  else
    let free = free_slot ss in
    if free < 0 then begin
      add_string t "ERR join ";
      add_string t sid;
      add_string t " full"
    end
    else begin
      ensure_online t peer;
      take_slot ss peer free;
      add_string t "OK join ";
      add_string t sid;
      add_id t peer;
      add_string t " slot ";
      add_int t free
    end

let do_leave t peer sid =
  let ss = find_swarm t sid in
  check_peer t peer;
  let slot = ss.slot_of.(peer) in
  if slot < 0 then begin
    add_string t "ERR leave ";
    add_string t sid;
    add_id t peer;
    add_string t " not-a-member"
  end
  else begin
    release_slot ss peer slot;
    add_string t "OK leave ";
    add_string t sid;
    add_id t peer
  end

let do_scrape t sid =
  let ss = find_swarm t sid in
  add_string t "OK scrape ";
  add_string t sid;
  add_string t " members ";
  add_int t ss.member_count;
  add_string t " complete ";
  add_int t (Swarm.completed ss.swarm);
  add_string t " drops ";
  add_int t (Swarm.link_drops ss.swarm);
  add_string t " uploaded ";
  add_string t (Printf.sprintf "%.3f" (members_uploaded ss))

let do_stats t =
  add_string t "OK stats now ";
  add_string t (Printf.sprintf "%g" (Engine.now t.engine));
  add_string t " ticks ";
  add_int t t.ticks;
  add_string t " present ";
  add_int t t.present_count;
  add_string t " stable_edges ";
  add_int t (Config.edge_count (Churn.world_stable t.oracle));
  add_string t " handled ";
  add_int t t.tallies.requests_handled

(* A kind's tally moves with [requests_handled], after its handler
   returns: a request that raised was not handled. *)
let handle t kind =
  t.out_len <- 0;
  (match kind with
  | Request.Announce { peer; swarm; want } ->
      do_announce t peer swarm want;
      t.tallies.announces <- t.tallies.announces + 1
  | Request.Join { peer; swarm } ->
      do_join t peer swarm;
      t.tallies.joins <- t.tallies.joins + 1
  | Request.Leave { peer; swarm } ->
      do_leave t peer swarm;
      t.tallies.leaves <- t.tallies.leaves + 1
  | Request.Scrape { swarm } ->
      do_scrape t swarm;
      t.tallies.scrapes <- t.tallies.scrapes + 1
  | Request.Stats ->
      do_stats t;
      t.tallies.stats <- t.tallies.stats + 1);
  t.tallies.requests_handled <- t.tallies.requests_handled + 1;
  fold_checksum t;
  Bytes.sub_string t.out 0 t.out_len

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
   membership index built from it.  Every member must lie in [0, n);
   a peer seated twice keeps its last slot. *)
let swarm_state sspec swarm ~faults ~created_rng ~n members =
  let size = Array.length members in
  let slot_of = Array.make n (-1) and occupied = Array.make size 0 in
  let count = ref 0 in
  Array.iteri
    (fun slot pid ->
      if pid >= 0 then begin
        slot_of.(pid) <- slot;
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
    member_count = !count;
    slot_of;
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
        swarm_state sw swarm ~faults ~created_rng ~n:w.Request.n (Array.make sw.size (-1)))
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
      tallies =
        {
          announces = 0;
          joins = 0;
          leaves = 0;
          scrapes = 0;
          stats = 0;
          reconnects = 0;
          arrivals = 0;
          departures = 0;
          requests_handled = 0;
        };
      checksum = fnv_offset;
      out = Bytes.create 256;
      out_len = 0;
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
        ("serve.announces", t.tallies.announces);
        ("serve.arrivals", t.tallies.arrivals);
        ("serve.departures", t.tallies.departures);
        ("serve.joins", t.tallies.joins);
        ("serve.leaves", t.tallies.leaves);
        ("serve.oracle.present", t.present_count);
        ( "serve.oracle.stable_edges",
          Config.edge_count (Churn.world_stable t.oracle) );
        ("serve.reconnects", t.tallies.reconnects);
        ("serve.requests", t.tallies.requests_handled);
        ("serve.scrapes", t.tallies.scrapes);
        ("serve.stats", t.tallies.stats);
        ("serve.ticks", t.ticks);
      ]
      @ swarm_counters;
    histograms = [];
    metrics = [ ("horizon", t.scr.Request.horizon); ("now", Engine.now t.engine) ];
    profile = [];
  }

(* ------------------------------------------------------------------ *)
(* Snapshot.  The world is captured into plain records and encoded     *)
(* through one codec; restore decodes them all, then rebuilds the      *)
(* world and checks its invariants.  Int64s travel as decimal strings  *)
(* (Jsonx.Int is an OCaml 63-bit int); every list is written in        *)
(* ascending id order (swarm state in its CSR edge order) so the bytes *)
(* are canonical.                                                      *)

module Snap = struct
  type peer = {
    unchoked : int list;
    optimistic : int;
    uploaded : float;
    downloaded : float;
    uploaded_tft : float;
    downloaded_tft : float;
    pieces : int list option;  (* [None] in bandwidth-only mode *)
    rates : Swarm.rate list;
  }

  type swarm = {
    sid : string;
    created_rng : int64 array;
    rng : int64 array;
    tick : int;
    members : int array;
    faults : Net.Tick.snapshot option;
    peers : peer list;
    progress : (int * int * float) list;
  }

  type oracle = {
    present : bool array;
    adjacency : int array array;
    config : (int * int) list;
    stable : (int * int) list;
  }

  type t = {
    script : Request.script;
    now : float;
    ticks : int;
    tallies : tallies;
    checksum : int;
    req_rng : int64 array;
    churn_rng : int64 array;
    queue : (float * int) array;  (* in the canonical (time, seq) order *)
    oracle : oracle;
    swarms : swarm list;
  }

  open Stratify_obs.Codec

  let int64 =
    conv ~enc:Int64.to_string string ~dec:(fun s ->
        try Int64.of_string s with Failure _ -> fail (Printf.sprintf "bad int64 %S" s))

  let groups = nullable (array int)

  let faults =
    let open Net.Tick in
    let event =
      obj
        (record (fun at_tick groups -> { at_tick; groups })
        |+ req "at_tick" int (fun e -> e.at_tick)
        |+ req "groups" groups (fun e -> e.groups))
    in
    obj
      (record (fun snap_base snap_loss snap_pending snap_groups snap_drops ->
           { snap_base; snap_loss; snap_pending; snap_groups; snap_drops })
      |+ req "base" int64 (fun s -> s.snap_base)
      |+ req "loss" float (fun s -> s.snap_loss)
      |+ req "pending" (list event) (fun s -> s.snap_pending)
      |+ req "groups" groups (fun s -> s.snap_groups)
      |+ req "drops" int (fun s -> s.snap_drops))

  let rate =
    let open Swarm in
    obj
      (record (fun from_ window buckets stamps total ->
           { from_; window; buckets; stamps; total })
      |+ req "from" int (fun r -> r.from_)
      |+ req "window" int (fun r -> r.window)
      |+ req "buckets" (array float) (fun r -> r.buckets)
      |+ req "stamps" (array int) (fun r -> r.stamps)
      |+ req "total" float (fun r -> r.total))

  let peer =
    obj
      (record
         (fun unchoked optimistic uploaded downloaded uploaded_tft downloaded_tft pieces
              rates ->
           { unchoked; optimistic; uploaded; downloaded; uploaded_tft; downloaded_tft; pieces;
             rates })
      |+ req "unchoked" (list int) (fun p -> p.unchoked)
      |+ req "optimistic" int (fun p -> p.optimistic)
      |+ req "uploaded" float (fun p -> p.uploaded)
      |+ req "downloaded" float (fun p -> p.downloaded)
      |+ req "uploaded_tft" float (fun p -> p.uploaded_tft)
      |+ req "downloaded_tft" float (fun p -> p.downloaded_tft)
      |+ req "pieces" (nullable (list int)) (fun p -> p.pieces)
      |+ req "rates" (list rate) (fun p -> p.rates))

  let swarm =
    obj
      (record (fun sid created_rng rng tick members faults peers progress ->
           { sid; created_rng; rng; tick; members; faults; peers; progress })
      |+ req "sid" string (fun s -> s.sid)
      |+ req "created_rng" (array int64) (fun s -> s.created_rng)
      |+ req "rng" (array int64) (fun s -> s.rng)
      |+ req "tick" int (fun s -> s.tick)
      |+ req "members" (array int) (fun s -> s.members)
      |+ req "faults" (nullable faults) (fun s -> s.faults)
      |+ req "peers" (list peer) (fun s -> s.peers)
      |+ req "progress" (list (triple int int float)) (fun s -> s.progress))

  let oracle =
    let flag = conv ~dec:(fun x -> x <> 0) ~enc:(fun b -> if b then 1 else 0) int in
    obj
      (record (fun present adjacency config stable -> { present; adjacency; config; stable })
      |+ req "present" (array flag) (fun o -> o.present)
      |+ req "adjacency" (array (array int)) (fun o -> o.adjacency)
      |+ req "config" (list (pair int int)) (fun o -> o.config)
      |+ req "stable" (list (pair int int)) (fun o -> o.stable))

  let tallies =
    obj
      (record
         (fun announces joins leaves scrapes stats reconnects arrivals departures
              requests_handled ->
           { announces; joins; leaves; scrapes; stats; reconnects; arrivals; departures;
             requests_handled })
      |+ req "announces" int (fun t -> t.announces)
      |+ req "joins" int (fun t -> t.joins)
      |+ req "leaves" int (fun t -> t.leaves)
      |+ req "scrapes" int (fun t -> t.scrapes)
      |+ req "stats" int (fun t -> t.stats)
      |+ req "reconnects" int (fun t -> t.reconnects)
      |+ req "arrivals" int (fun t -> t.arrivals)
      |+ req "departures" int (fun t -> t.departures)
      |+ req "requests_handled" int (fun t -> t.requests_handled))

  let codec =
    obj
      (record
         (fun () () script now ticks tallies checksum req_rng churn_rng queue oracle swarms ->
           { script; now; ticks; tallies; checksum; req_rng; churn_rng; queue; oracle; swarms })
      |+ req "schema_version" (literal int 1) ignore
      |+ req "kind" (literal string "serve-snapshot") ignore
      |+ req "script" Request.codec (fun s -> s.script)
      |+ req "now" float (fun s -> s.now)
      |+ req "ticks" int (fun s -> s.ticks)
      |+ req "tallies" tallies (fun s -> s.tallies)
      |+ req "checksum" int (fun s -> s.checksum)
      |+ req "req_rng" (array int64) (fun s -> s.req_rng)
      |+ req "churn_rng" (array int64) (fun s -> s.churn_rng)
      |+ req "queue" (array (pair float int)) (fun s -> s.queue)
      |+ req "oracle" oracle (fun s -> s.oracle)
      |+ req "swarms" (list swarm) (fun s -> s.swarms))
end

let capture_swarm ss =
  let sw = ss.swarm in
  let peer i =
    {
      Snap.unchoked = Swarm.unchoked sw i;
      optimistic = Swarm.optimistic sw i;
      uploaded = Swarm.uploaded sw i;
      downloaded = Swarm.downloaded sw i;
      uploaded_tft = Swarm.uploaded_tft sw i;
      downloaded_tft = Swarm.downloaded_tft sw i;
      pieces =
        Option.map
          (fun f -> List.filter (Piece.has f) (List.init (Piece.pieces f) Fun.id))
          (Swarm.field sw i);
      rates = Swarm.rates sw i;
    }
  in
  let progress = ref [] in
  Swarm.iter_link_progress sw (fun s r v -> progress := (s, r, v) :: !progress);
  {
    Snap.sid = ss.sspec.Request.sid;
    created_rng = ss.created_rng;
    rng = Rng.state (Swarm.rng sw);
    tick = Swarm.tick_count sw;
    members = ss.members;
    faults = Option.map Net.Tick.snapshot ss.faults;
    peers = List.init (Swarm.size sw) peer;
    progress = List.rev !progress;
  }

let capture_oracle oracle =
  let pairs cfg =
    let acc = ref [] in
    Config.iter_pairs (fun p q -> acc := (p, q) :: !acc) cfg;
    List.rev !acc
  in
  {
    Snap.present = Churn.world_present oracle;
    adjacency =
      (match Instance.raw_backend (Churn.world_instance oracle) with
      | Instance.Raw_dynamic { rows; len } ->
          Array.mapi (fun i row -> Array.sub row 0 len.(i)) rows
      | _ -> invalid_arg "Serve.snapshot: oracle instance is not dynamic");
    config = pairs (Churn.world_config oracle);
    stable = pairs (Churn.world_stable oracle);
  }

let snapshot t =
  Snap.codec.enc
    {
      Snap.script = t.scr;
      now = Engine.now t.engine;
      ticks = t.ticks;
      tallies = t.tallies;
      checksum = t.checksum;
      req_rng = Rng.state t.req_rng;
      churn_rng = Rng.state t.churn_rng;
      queue = Engine.dump_packed t.engine;
      oracle = capture_oracle t.oracle;
      swarms = List.map capture_swarm t.swarms;
    }

let snapshot_string t = Jsonx.to_string ~indent:false (snapshot t)

(* ------------------------------------------------------------------ *)
(* Restore.                                                            *)

let restore_invalid fmt = Printf.ksprintf invalid_arg fmt

let restore_swarm ~n (sw : Request.swarm_spec) (snap : Snap.swarm) =
  if not (String.equal snap.sid sw.sid) then
    restore_invalid "Serve.restore: swarm %S out of order (script declares %S here)" snap.sid
      sw.sid;
  let what = Printf.sprintf "Serve.restore.swarm[%s]" snap.sid in
  let faults = Option.map Net.Tick.restore snap.faults in
  (* replay create from the captured pre-create RNG state: regenerates
     the knowledge graph and piece fields bit-for-bit *)
  let swarm = Swarm.create (Rng.of_state snap.created_rng) (swarm_params sw ~faults) in
  Rng.set_state (Swarm.rng swarm) snap.rng;
  Swarm.set_tick swarm snap.tick;
  let members = snap.members in
  if Array.length members <> sw.size then
    restore_invalid "%s: members has %d slots, swarm has %d" what (Array.length members)
      sw.size;
  if List.length snap.peers <> sw.size then
    restore_invalid "%s: %d peer records, swarm has %d slots" what (List.length snap.peers)
      sw.size;
  (* The Swarm setters check the choke, rate and progress state against
     the knowledge graph and the slot budgets: the simulation never
     names a non-neighbour ([Swarm.recycle_peer] relies on it to visit
     neighbours only), never unchokes a peer twice or past its slots,
     and keeps one rate window per neighbour. *)
  let checked context f =
    try f () with Invalid_argument msg -> restore_invalid "%s: %s: %s" what context msg
  in
  List.iteri
    (fun i (p : Snap.peer) ->
      checked (Printf.sprintf "slot %d" i) (fun () ->
          Swarm.set_unchoked swarm i p.unchoked;
          Swarm.set_optimistic swarm i p.optimistic;
          Swarm.set_counters swarm i ~uploaded:p.uploaded ~downloaded:p.downloaded
            ~uploaded_tft:p.uploaded_tft ~downloaded_tft:p.downloaded_tft;
          Swarm.set_rates swarm i p.rates;
          Option.iter (Swarm.set_held_pieces swarm i) p.pieces))
    snap.peers;
  Swarm.clear_link_progress swarm;
  List.iter
    (fun (s, r, v) ->
      checked "progress" (fun () -> Swarm.set_link_progress swarm ~sender:s ~receiver:r v))
    snap.progress;
  Array.iteri
    (fun slot pid ->
      if pid < -1 || pid >= n then
        restore_invalid "%s: slot %d holds peer %d, outside the population [0, %d)" what slot
          pid n)
    members;
  let ss = swarm_state sw swarm ~faults ~created_rng:snap.created_rng ~n members in
  Array.iteri
    (fun slot pid ->
      if pid >= 0 && ss.slot_of.(pid) <> slot then
        restore_invalid "%s: peer %d holds both slot %d and slot %d" what pid slot
          ss.slot_of.(pid))
    members;
  ss

let restore j =
  let snap = Stratify_obs.Codec.decode ~what:"serve snapshot" Snap.codec j in
  let w = snap.script.Request.world in
  let o = snap.oracle in
  (match o.config with
  | [] -> ()
  | (p, q) :: _ ->
      restore_invalid
        "Serve.restore: oracle.config must be empty, since a served world never runs an \
         initiative (it starts with [%d, %d])"
        p q);
  let oracle =
    Churn.restore_world ~n:w.Request.n ~b:w.Request.b ~present:o.present ~adjacency:o.adjacency
      ~stable_pairs:o.stable
  in
  if List.length snap.swarms <> List.length w.Request.swarms then
    restore_invalid "Serve.restore: snapshot has %d swarms, script declares %d"
      (List.length snap.swarms) (List.length w.Request.swarms);
  let swarms = List.map2 (restore_swarm ~n:w.Request.n) w.Request.swarms snap.swarms in
  (* restore_packed replays the snapshot's canonical (time, seq) order *)
  let engine = Engine.restore_packed ~now:snap.now snap.queue in
  let t =
    {
      scr = snap.script;
      engine;
      oracle;
      er_p = er_p w;
      req_rng = Rng.of_state snap.req_rng;
      churn_rng = Rng.of_state snap.churn_rng;
      swarms;
      present_count = Array.fold_left (fun a b -> if b then a + 1 else a) 0 o.present;
      ticks = snap.ticks;
      tallies = snap.tallies;
      checksum = snap.checksum;
      out = Bytes.create 256;
      out_len = 0;
    }
  in
  install_handler t;
  t

let restore_string s = restore (Jsonx.of_string s)
