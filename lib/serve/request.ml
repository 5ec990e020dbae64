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

let parse_fail fmt = Printf.ksprintf (fun s -> raise (Jsonx.Parse_error s)) fmt

let req name j =
  match Jsonx.member name j with
  | Jsonx.Null -> parse_fail "serve script: missing field %S" name
  | v -> v

let opt_float name ~default j =
  match Jsonx.member name j with Jsonx.Null -> default | v -> Jsonx.get_float v

let opt_int name ~default j =
  match Jsonx.member name j with Jsonx.Null -> default | v -> Jsonx.get_int v

(* Unknown keys are rejected at every level: a typo'd field would
   otherwise silently drop a request or fault and "pass" vacuously —
   the same discipline as [Plan.of_json]. *)
let check_fields what known j =
  match j with
  | Jsonx.Obj members ->
      List.iter
        (fun (key, _) ->
          if not (List.mem key known) then
            parse_fail "serve script: unknown %s field %S (expected one of %s)" what key
              (String.concat "/" known))
        members
  | _ -> parse_fail "serve script: %s must be a JSON object" what

let groups_of_json = function
  | Jsonx.String "halves" -> Halves
  | Jsonx.String "heal" -> Heal
  | Jsonx.List l -> Groups (Array.of_list (List.map Jsonx.get_int l))
  | Jsonx.String s -> parse_fail "serve script: unknown groups %S (want \"halves\", \"heal\" or a list)" s
  | _ -> parse_fail "serve script: groups must be \"halves\", \"heal\" or a list of ints"

let partition_of_json j =
  check_fields "partition" [ "at_tick"; "groups" ] j;
  { at_tick = Jsonx.get_int (req "at_tick" j); groups = groups_of_json (req "groups" j) }

let piece_of_json j =
  check_fields "pieces" [ "pieces"; "piece_size"; "init_fraction"; "seeds" ] j;
  {
    pieces = Jsonx.get_int (req "pieces" j);
    piece_size = Jsonx.get_float (req "piece_size" j);
    init_fraction = opt_float "init_fraction" ~default:0. j;
    seeds = opt_int "seeds" ~default:1 j;
  }

let swarm_of_json j =
  check_fields "swarm" [ "sid"; "size"; "d"; "loss"; "partitions"; "pieces" ] j;
  {
    sid = Jsonx.get_string (req "sid" j);
    size = Jsonx.get_int (req "size" j);
    d = opt_float "d" ~default:20. j;
    loss = opt_float "loss" ~default:0. j;
    partitions =
      (match Jsonx.member "partitions" j with
      | Jsonx.Null -> []
      | l -> List.map partition_of_json (Jsonx.get_list l));
    piece =
      (match Jsonx.member "pieces" j with Jsonx.Null -> None | p -> Some (piece_of_json p));
  }

let world_of_json j =
  check_fields "world" [ "n"; "d"; "b"; "churn_rate"; "bands"; "swarms" ] j;
  {
    n = Jsonx.get_int (req "n" j);
    d = opt_float "d" ~default:8. j;
    b = opt_int "b" ~default:2 j;
    churn_rate = opt_float "churn_rate" ~default:0. j;
    bands = opt_int "bands" ~default:1 j;
    swarms = List.map swarm_of_json (Jsonx.get_list (req "swarms" j));
  }

let request_of_json i j =
  check_fields "request" [ "at"; "kind"; "peer"; "swarm"; "want" ] j;
  let at = Jsonx.get_float (req "at" j) in
  let peer () = Jsonx.get_int (req "peer" j) in
  let swarm () = Jsonx.get_string (req "swarm" j) in
  let kind =
    match Jsonx.get_string (req "kind" j) with
    | "join" -> Join { peer = peer (); swarm = swarm () }
    | "leave" -> Leave { peer = peer (); swarm = swarm () }
    | "announce" -> Announce { peer = peer (); swarm = swarm (); want = opt_int "want" ~default:0 j }
    | "scrape" -> Scrape { swarm = swarm () }
    | "stats" -> Stats
    | k -> parse_fail "serve script: request %d has unknown kind %S" i k
  in
  { at; kind }

let of_json j =
  check_fields "top-level" [ "name"; "seed"; "world"; "requests"; "horizon" ] j;
  validate
    {
      name = Jsonx.get_string (req "name" j);
      seed = opt_int "seed" ~default:42 j;
      world = world_of_json (req "world" j);
      requests =
        (match Jsonx.member "requests" j with
        | Jsonx.Null -> [||]
        | l -> Array.of_list (List.mapi request_of_json (Jsonx.get_list l)));
      horizon = Jsonx.get_float (req "horizon" j);
    }

let groups_to_json = function
  | Halves -> Jsonx.String "halves"
  | Heal -> Jsonx.String "heal"
  | Groups g -> Jsonx.List (Array.to_list (Array.map (fun x -> Jsonx.Int x) g))

let partition_to_json p =
  Jsonx.Obj [ ("at_tick", Jsonx.Int p.at_tick); ("groups", groups_to_json p.groups) ]

let piece_to_json pp =
  Jsonx.Obj
    [
      ("pieces", Jsonx.Int pp.pieces);
      ("piece_size", Jsonx.Float pp.piece_size);
      ("init_fraction", Jsonx.Float pp.init_fraction);
      ("seeds", Jsonx.Int pp.seeds);
    ]

let swarm_to_json sw =
  Jsonx.Obj
    ([
       ("sid", Jsonx.String sw.sid);
       ("size", Jsonx.Int sw.size);
       ("d", Jsonx.Float sw.d);
       ("loss", Jsonx.Float sw.loss);
     ]
    @ (match sw.partitions with
      | [] -> []
      | ps -> [ ("partitions", Jsonx.List (List.map partition_to_json ps)) ])
    @ match sw.piece with None -> [] | Some pp -> [ ("pieces", piece_to_json pp) ])

let world_to_json w =
  Jsonx.Obj
    [
      ("n", Jsonx.Int w.n);
      ("d", Jsonx.Float w.d);
      ("b", Jsonx.Int w.b);
      ("churn_rate", Jsonx.Float w.churn_rate);
      ("bands", Jsonx.Int w.bands);
      ("swarms", Jsonx.List (List.map swarm_to_json w.swarms));
    ]

let request_to_json r =
  let fields =
    match r.kind with
    | Join { peer; swarm } ->
        [ ("kind", Jsonx.String "join"); ("peer", Jsonx.Int peer); ("swarm", Jsonx.String swarm) ]
    | Leave { peer; swarm } ->
        [ ("kind", Jsonx.String "leave"); ("peer", Jsonx.Int peer); ("swarm", Jsonx.String swarm) ]
    | Announce { peer; swarm; want } ->
        [
          ("kind", Jsonx.String "announce");
          ("peer", Jsonx.Int peer);
          ("swarm", Jsonx.String swarm);
          ("want", Jsonx.Int want);
        ]
    | Scrape { swarm } -> [ ("kind", Jsonx.String "scrape"); ("swarm", Jsonx.String swarm) ]
    | Stats -> [ ("kind", Jsonx.String "stats") ]
  in
  Jsonx.Obj (("at", Jsonx.Float r.at) :: fields)

let to_json s =
  Jsonx.Obj
    [
      ("name", Jsonx.String s.name);
      ("seed", Jsonx.Int s.seed);
      ("world", world_to_json s.world);
      ("requests", Jsonx.List (Array.to_list (Array.map request_to_json s.requests)));
      ("horizon", Jsonx.Float s.horizon);
    ]

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  of_json (Jsonx.of_string body)

(* ---- line protocol -------------------------------------------------- *)

let of_line line =
  let words =
    String.split_on_char ' ' (String.trim line) |> List.filter (fun w -> w <> "")
  in
  let peer what s =
    match int_of_string_opt s with
    | Some p -> p
    | None -> invalid "serve: %s wants an integer peer id, got %S" what s
  in
  match words with
  | [ "announce"; p; sid ] -> Announce { peer = peer "announce" p; swarm = sid; want = 0 }
  | [ "announce"; p; sid; w ] ->
      Announce { peer = peer "announce" p; swarm = sid; want = peer "announce want" w }
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
