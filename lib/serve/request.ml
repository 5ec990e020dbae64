module Jsonx = Stratify_obs.Jsonx

type kind =
  | Join of { peer : int; swarm : string }
  | Leave of { peer : int; swarm : string }
  | Announce of { peer : int; swarm : string; want : int }
  | Scrape of { swarm : string }
  | Stats

type t = { at : float; kind : kind }
type groups = Halves | Heal | Groups of int array
type partition = { at_tick : int; groups : groups }
type piece_spec = { pieces : int; piece_size : float; init_fraction : float; seeds : int }

type swarm_spec = {
  sid : string;
  size : int;
  d : float;
  loss : float;
  partitions : partition list;
  piece : piece_spec option;
}

type world_spec = {
  n : int;
  d : float;
  b : int;
  churn_rate : float;
  bands : int;
  swarms : swarm_spec list;
}

type script = {
  name : string;
  seed : int;
  world : world_spec;
  requests : t array;
  horizon : float;
}

(* ---- validation ---------------------------------------------------- *)

let invalid fmt = Printf.ksprintf invalid_arg fmt

let validate script =
  let w = script.world in
  if script.name = "" then invalid "serve script: empty name";
  if w.n < 2 then invalid "serve script: population n must be >= 2 (got %d)" w.n;
  if w.d < 0. then invalid "serve script: negative oracle degree %g" w.d;
  if w.b < 1 then invalid "serve script: oracle budget b must be >= 1 (got %d)" w.b;
  if w.churn_rate < 0. || w.churn_rate > 1. then
    invalid "serve script: churn_rate must be in [0, 1], got %g" w.churn_rate;
  if w.bands < 1 then invalid "serve script: bands must be >= 1 (got %d)" w.bands;
  if not (Float.is_finite script.horizon) then
    invalid "serve script %S: horizon must be finite (got %g)" script.name script.horizon;
  if script.horizon <= 0. then invalid "serve script: horizon must be positive (got %g)" script.horizon;
  let seen = Hashtbl.create 8 in
  List.iter
    (fun sw ->
      if sw.sid = "" then invalid "serve script: empty swarm id";
      if Hashtbl.mem seen sw.sid then invalid "serve script: duplicate swarm id %S" sw.sid;
      Hashtbl.replace seen sw.sid ();
      if sw.size < 2 then
        invalid "serve script: swarm %S needs size >= 2 (got %d)" sw.sid sw.size;
      if sw.d < 0. then invalid "serve script: swarm %S has negative degree %g" sw.sid sw.d;
      if sw.loss < 0. || sw.loss >= 1. then
        invalid "serve script: swarm %S loss must be in [0, 1), got %g" sw.sid sw.loss;
      List.iter
        (fun p ->
          if p.at_tick < 0 then
            invalid "serve script: swarm %S partition at negative tick %d" sw.sid p.at_tick;
          match p.groups with
          | Groups g ->
              if Array.length g <> sw.size then
                invalid "serve script: swarm %S partition groups has %d entries, expected %d"
                  sw.sid (Array.length g) sw.size;
              Array.iter
                (fun x -> if x < 0 then invalid "serve script: swarm %S negative group label" sw.sid)
                g
          | Halves | Heal -> ())
        sw.partitions;
      match sw.piece with
      | None -> ()
      | Some pp ->
          if pp.pieces < 1 then
            invalid "serve script: swarm %S needs pieces >= 1 (got %d)" sw.sid pp.pieces;
          if pp.piece_size <= 0. then
            invalid "serve script: swarm %S piece_size must be positive (got %g)" sw.sid
              pp.piece_size;
          if pp.init_fraction < 0. || pp.init_fraction > 1. then
            invalid "serve script: swarm %S init_fraction must be in [0, 1], got %g" sw.sid
              pp.init_fraction;
          if pp.seeds < 0 || pp.seeds > sw.size then
            invalid "serve script: swarm %S seeds must be in [0, %d], got %d" sw.sid sw.size
              pp.seeds)
    w.swarms;
  let check_swarm what i sid =
    if not (Hashtbl.mem seen sid) then
      invalid "serve script: request %d (%s) references unknown swarm %S" i what sid
  and check_peer what i p =
    if p < 0 || p >= w.n then
      invalid "serve script: request %d (%s) peer %d outside the population [0, %d)" i what p w.n
  in
  Array.iteri
    (fun i r ->
      if r.at < 0. then invalid "serve script: request %d at %g is before time zero" i r.at;
      if r.at > script.horizon then
        invalid "serve script: request %d at %g is beyond the horizon %g" i r.at script.horizon;
      match r.kind with
      | Join { peer; swarm } ->
          check_peer "join" i peer;
          check_swarm "join" i swarm
      | Leave { peer; swarm } ->
          check_peer "leave" i peer;
          check_swarm "leave" i swarm
      | Announce { peer; swarm; want } ->
          check_peer "announce" i peer;
          check_swarm "announce" i swarm;
          if want < 0 then invalid "serve script: request %d announce wants %d peers" i want
      | Scrape { swarm } -> check_swarm "scrape" i swarm
      | Stats -> ())
    script.requests;
  script

(* ---- JSON ---------------------------------------------------------- *)

open struct
  open Stratify_obs.Codec

  (* "halves", "heal" or one group label per peer *)
  let groups =
    let labels = array int in
    {
      enc =
        (function
        | Halves -> Jsonx.String "halves"
        | Heal -> Jsonx.String "heal"
        | Groups g -> labels.enc g);
      dec =
        (function
        | Jsonx.String "halves" -> Halves
        | Jsonx.String "heal" -> Heal
        | Jsonx.String s -> fail (Printf.sprintf "unknown groups %S (want halves or heal)" s)
        | j -> Groups (labels.dec j));
    }

  let partition =
    obj
      (record (fun at_tick groups -> { at_tick; groups })
      |+ req "at_tick" int (fun p -> p.at_tick)
      |+ req "groups" groups (fun p -> p.groups))

  let piece =
    obj
      (record (fun pieces piece_size init_fraction seeds ->
           { pieces; piece_size; init_fraction; seeds })
      |+ req "pieces" int (fun p -> p.pieces)
      |+ req "piece_size" float (fun p -> p.piece_size)
      |+ opt "init_fraction" float ~default:0. (fun p -> p.init_fraction)
      |+ opt "seeds" int ~default:1 (fun p -> p.seeds))

  let swarm =
    obj
      (record (fun sid size d loss partitions piece ->
           { sid; size; d; loss; partitions; piece })
      |+ req "sid" string (fun sw -> sw.sid)
      |+ req "size" int (fun sw -> sw.size)
      |+ opt "d" float ~default:20. (fun (sw : swarm_spec) -> sw.d)
      |+ opt "loss" float ~default:0. (fun sw -> sw.loss)
      |+ omit "partitions" (list partition) ~default:[] (fun sw -> sw.partitions)
      |+ omit "pieces" (nullable piece) ~default:None (fun sw -> sw.piece))

  let world =
    obj
      (record (fun n d b churn_rate bands swarms -> { n; d; b; churn_rate; bands; swarms })
      |+ req "n" int (fun w -> w.n)
      |+ opt "d" float ~default:8. (fun w -> w.d)
      |+ opt "b" int ~default:2 (fun w -> w.b)
      |+ opt "churn_rate" float ~default:0. (fun w -> w.churn_rate)
      |+ opt "bands" int ~default:1 (fun w -> w.bands)
      |+ req "swarms" (list swarm) (fun w -> w.swarms))

  let peer_swarm =
    record (fun peer swarm -> (peer, swarm)) |+ req "peer" int fst |+ req "swarm" string snd

  let kind =
    union "kind"
      [
        case "join" peer_swarm
          (fun (peer, swarm) -> Join { peer; swarm })
          (function Join { peer; swarm } -> Some (peer, swarm) | _ -> None);
        case "leave" peer_swarm
          (fun (peer, swarm) -> Leave { peer; swarm })
          (function Leave { peer; swarm } -> Some (peer, swarm) | _ -> None);
        case "announce"
          (record (fun peer swarm want -> (peer, swarm, want))
          |+ req "peer" int (fun (p, _, _) -> p)
          |+ req "swarm" string (fun (_, s, _) -> s)
          |+ opt "want" int ~default:0 (fun (_, _, w) -> w))
          (fun (peer, swarm, want) -> Announce { peer; swarm; want })
          (function Announce { peer; swarm; want } -> Some (peer, swarm, want) | _ -> None);
        case "scrape"
          (record Fun.id |+ req "swarm" string Fun.id)
          (fun swarm -> Scrape { swarm })
          (function Scrape { swarm } -> Some swarm | _ -> None);
        case0 "stats" Stats;
      ]

  let request =
    obj
      (record (fun at kind -> { at; kind })
      |+ req "at" float (fun r -> r.at)
      |+ kind (fun r -> r.kind))

  let script =
    conv ~dec:validate ~enc:Fun.id
      (obj
         (record (fun name seed world requests horizon ->
              { name; seed; world; requests; horizon })
         |+ req "name" string (fun s -> s.name)
         |+ opt "seed" int ~default:42 (fun s -> s.seed)
         |+ req "world" world (fun s -> s.world)
         |+ opt "requests" (array request) ~default:[||] (fun s -> s.requests)
         |+ req "horizon" float (fun s -> s.horizon)))
end

let codec = script
let of_json = Stratify_obs.Codec.decode ~what:"serve script" codec
let to_json = codec.enc
let load path = of_json (Jsonx.of_string (In_channel.with_open_bin path In_channel.input_all))

(* ---- line protocol -------------------------------------------------- *)

(* Plain decimal digits only, as a script's JSON integers are:
   [int_of_string] alone would also take "0x5", "1_0" and "-3". *)
let decimal cmd field what s =
  match int_of_string_opt s with
  | Some x when String.for_all (fun c -> c >= '0' && c <= '9') s -> x
  | _ -> invalid "serve: %s: %s must be a decimal %s >= 0, got %S" cmd field what s

let of_line line =
  let words =
    String.split_on_char ' ' (String.trim line) |> List.filter (fun w -> w <> "")
  in
  let peer cmd s = decimal cmd "peer" "id" s in
  match words with
  | [ "announce"; p; sid ] -> Announce { peer = peer "announce" p; swarm = sid; want = 0 }
  | [ "announce"; p; sid; w ] ->
      Announce { peer = peer "announce" p; swarm = sid; want = decimal "announce" "want" "count" w }
  | [ "join"; p; sid ] -> Join { peer = peer "join" p; swarm = sid }
  | [ "leave"; p; sid ] -> Leave { peer = peer "leave" p; swarm = sid }
  | [ "scrape"; sid ] -> Scrape { swarm = sid }
  | [ "stats" ] -> Stats
  | [] -> invalid "serve: empty command line"
  | cmd :: _ ->
      invalid
        "serve: unknown command %S (want announce <peer> <swarm> [want] | join <peer> <swarm> | \
         leave <peer> <swarm> | scrape <swarm> | stats)"
        cmd
