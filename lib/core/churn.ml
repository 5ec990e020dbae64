module Rng = Stratify_prng.Rng
module Gen = Stratify_graph.Gen
module Undirected = Stratify_graph.Undirected
module Series = Stratify_stats.Series

type params = {
  n : int;
  d : float;
  b : int;
  rate : float;
  units : int;
  samples_per_unit : int;
  strategy : Initiative.strategy;
  scheduler : Scheduler.policy;
}

(* Rebuild a configuration on a fresh instance, keeping the collaborations
   whose two endpoints are still present and acceptable.  The event loop
   no longer uses this (events patch the live [Config] in place: a
   departure touches only the departed peer's pairs, an arrival touches
   none) — it remains the reference semantics, pinned by tests. *)
let reconfigure old_config instance present =
  let fresh = Config.empty instance in
  Config.iter_pairs
    (fun p q ->
      if present.(p) && present.(q) && Instance.accepts instance p q then
        Config.connect fresh p q)
    old_config;
  fresh

(* The world keeps one [`Dynamic] instance alive for the whole run; peer
   events patch its acceptance rows in place, so [config] and [stable]
   (both allocated over it once, with full-budget segment capacity)
   survive every event.  [stable] is maintained incrementally: each
   event seeds [repair] with the perturbed neighbourhood and drains it
   with the best-mate strategy — per-event cost O(cascade), and by
   Theorem 1's uniqueness the result is bit-identical to a from-scratch
   [Greedy.stable_config] of the patched instance. *)
type world = {
  present : bool array;
  budgets : int array;
  instance : Instance.t;
  mutable config : Config.t;
  mutable stable : Config.t;
  state : Initiative.state;
  policy : Scheduler.policy;
  sched : Scheduler.t;  (* dirty queue driving [config] under Worklist *)
  repair : Scheduler.t;  (* dirty queue re-stabilizing [stable] *)
  repair_rng : Rng.t;  (* never drawn from: best-mate repair is RNG-free *)
}

let make_world ?(scheduler = Scheduler.Random_poll) ?(bands = 1) rng ~n ~d ~b =
  let graph = Gen.gnd rng ~n ~d in
  let instance = Instance.dynamic ~graph ~b:(Array.make n b) () in
  let sched = Scheduler.create ~n in
  (* From the empty configuration any peer may block: seed them all.
     Random_poll leaves the queue untouched (paper-faithful sampling). *)
  (match scheduler with
  | Scheduler.Worklist -> Scheduler.seed_all sched
  | Scheduler.Random_poll -> ());
  {
    present = Array.make n true;
    budgets = Array.make n b;
    instance;
    config = Config.empty instance;
    (* [bands] is validated but decomposes nothing: a sparse instance
       has no rank cuts, so Shard solves it unsharded (DESIGN.md §11). *)
    stable = Shard.stable_config ~bands instance;
    state = Initiative.create_state instance;
    policy = scheduler;
    sched;
    repair = Scheduler.create ~n;
    repair_rng = Rng.create 0;
  }

(* Rebuild a world from serialized state (lib/serve snapshots): the
   acceptance rows, the present mask and the stable configuration fully
   determine future behaviour — the schedulers are empty between events
   (every event drains [repair] before returning), [state] only feeds
   the decremental strategy (never used by best-mate repair), and
   [repair_rng] is never drawn from.  The evolving configuration starts
   empty: a served world never runs an initiative. *)
let restore_world ~n ~b ~present ~adjacency ~stable_pairs =
  if n < 1 then invalid_arg (Printf.sprintf "Churn.restore_world: n must be >= 1 (got %d)" n);
  if Array.length present <> n then
    invalid_arg
      (Printf.sprintf "Churn.restore_world: |present| = %d, expected %d"
         (Array.length present) n);
  if Array.length adjacency <> n then
    invalid_arg
      (Printf.sprintf "Churn.restore_world: |adjacency| = %d, expected %d"
         (Array.length adjacency) n);
  Array.iteri
    (fun p row ->
      if (not present.(p)) && Array.length row > 0 then
        invalid_arg
          (Printf.sprintf "Churn.restore_world: absent peer %d has %d acceptance edges" p
             (Array.length row)))
    adjacency;
  let graph = Undirected.of_adjacency_arrays adjacency in
  let instance = Instance.dynamic ~graph ~b:(Array.make n b) () in
  let stable = Config.of_pairs instance stable_pairs in
  (* Theorem 1: the stable configuration is a function of the instance,
     whose rows isolate the absent peers (checked above), so a greedy
     rebuild must reproduce the stored one exactly. *)
  let rebuilt = Greedy.stable_config instance in
  let p = ref 0 in
  while !p < n && Config.same_mates stable rebuilt !p do
    incr p
  done;
  if !p < n then begin
    let show c = String.concat ", " (List.map string_of_int (Config.mates c !p)) in
    invalid_arg
      (Printf.sprintf
         "Churn.restore_world: stable configuration is not the instance's (Theorem 1): peer %d \
          has stored mates [%s], the greedy rebuild [%s]"
         !p (show stable) (show rebuilt))
  end;
  {
    present = Array.copy present;
    budgets = Array.make n b;
    instance;
    config = Config.empty instance;
    stable;
    state = Initiative.create_state instance;
    policy = Scheduler.Random_poll;
    sched = Scheduler.create ~n;
    repair = Scheduler.create ~n;
    repair_rng = Rng.create 0;
  }

let world_instance w = w.instance
let world_config w = w.config
let world_stable w = w.stable
let world_present w = w.present

let restabilize w =
  ignore (Scheduler.drain w.repair w.stable w.state Initiative.Best_mate w.repair_rng)

(* Disconnect every collaboration of [v] in [config], reporting each
   ex-mate to [note]: a dropped pair frees a slot on the surviving side,
   and those are exactly the peers whose pairs may newly block. *)
let drop_pairs config v ~note =
  List.iter
    (fun m ->
      Config.disconnect config v m;
      note m)
    (Config.mates config v)

let config_note w =
  match w.policy with
  | Scheduler.Worklist -> Scheduler.push w.sched
  | Scheduler.Random_poll -> ignore

let remove_peer w v =
  w.present.(v) <- false;
  Instance.dyn_isolate w.instance v;
  drop_pairs w.stable v ~note:(Scheduler.push w.repair);
  restabilize w;
  drop_pairs w.config v ~note:(config_note w)

let insert_peer rng w v ~p =
  w.present.(v) <- true;
  (* Same candidate stream as [Gen.attach_fresh_vertex] on a graph, but
     the edges land directly in the live instance. *)
  Gen.iter_fresh_edges rng
    ~n:(Array.length w.present)
    ~v ~p
    ~present:(fun x -> w.present.(x))
    (fun x -> Instance.dyn_add_edge w.instance v x);
  (* Every new acceptance edge has [v] as an endpoint, so seeding the
     arrival alone preserves the activation invariant. *)
  Scheduler.push w.repair v;
  restabilize w;
  config_note w v

(* Typed [bool] so each test is an integer compare, not [caml_equal]:
   random-poll initiatives call this on every step. *)
let random_member rng (mask : bool array) (value : bool) =
  let count = ref 0 in
  for i = 0 to Array.length mask - 1 do
    if mask.(i) = value then incr count
  done;
  if !count = 0 then None
  else begin
    (* stop at the match with [left] = 0 matches still to skip *)
    let left = ref (Rng.int rng !count) and i = ref 0 in
    while !left > 0 || mask.(!i) <> value do
      if mask.(!i) = value then decr left;
      incr i
    done;
    Some !i
  end

let churn_event rng w ~p =
  let remove_first = Rng.bool rng in
  let try_remove () =
    (* Keep at least two present peers so initiatives stay meaningful. *)
    let present_count = Array.fold_left (fun acc x -> if x then acc + 1 else acc) 0 w.present in
    if present_count <= 2 then false
    else
      match random_member rng w.present true with
      | Some v ->
          remove_peer w v;
          true
      | None -> false
  in
  let try_insert () =
    match random_member rng w.present false with
    | Some v ->
        insert_peer rng w v ~p;
        true
    | None -> false
  in
  if remove_first then (if not (try_remove ()) then ignore (try_insert ()))
  else if not (try_insert ()) then ignore (try_remove ())

let initiative_step rng w strategy =
  match w.policy with
  | Scheduler.Random_poll -> (
      match random_member rng w.present true with
      | None -> ()
      | Some peer -> ignore (Initiative.attempt w.config w.state strategy rng peer))
  | Scheduler.Worklist -> (
      match Scheduler.pop w.sched with
      | None -> ()
      | Some peer ->
          let note q = Scheduler.push w.sched q in
          if Initiative.attempt ~on_rewire:note w.config w.state strategy rng peer then
            Scheduler.note_hit ())

let run rng params =
  let { n; d; b; rate; units; samples_per_unit; strategy; scheduler } = params in
  let er_p = if n > 1 then d /. float_of_int (n - 1) else 0. in
  let w = make_world ~scheduler rng ~n ~d ~b in
  let stride = Int.max 1 (n / samples_per_unit) in
  let total_steps = units * n in
  let sample () = Disorder.distance_on ~present:w.present w.config w.stable in
  let points = ref [ (0., sample ()) ] in
  let steps = ref 0 in
  while !steps < total_steps do
    let burst = Int.min stride (total_steps - !steps) in
    for _ = 1 to burst do
      if Rng.bernoulli rng rate then churn_event rng w ~p:er_p;
      initiative_step rng w strategy
    done;
    steps := !steps + burst;
    points := (float_of_int !steps /. float_of_int n, sample ()) :: !points
  done;
  Series.make (Printf.sprintf "churn=%g" rate) (Array.of_list (List.rev !points))

let removal_trajectory ?(scheduler = Scheduler.Random_poll) rng ~n ~d ~b ~remove ~units
    ~samples_per_unit =
  let w = make_world ~scheduler rng ~n ~d ~b in
  (* Start at the stable configuration, then lose one peer.  The copy is
     stable, so the worklist restarts empty; the removal re-seeds it. *)
  w.config <- Config.copy w.stable;
  Scheduler.clear w.sched;
  remove_peer w remove;
  let stride = Int.max 1 (n / samples_per_unit) in
  let total_steps = units * n in
  let sample () = Disorder.distance_on ~present:w.present w.config w.stable in
  let points = ref [ (0., sample ()) ] in
  let steps = ref 0 in
  while !steps < total_steps do
    let burst = Int.min stride (total_steps - !steps) in
    for _ = 1 to burst do
      initiative_step rng w Initiative.Best_mate
    done;
    steps := !steps + burst;
    points := (float_of_int !steps /. float_of_int n, sample ()) :: !points
  done;
  Series.make (Printf.sprintf "removed=%d" remove) (Array.of_list (List.rev !points))

let mean_disorder_tail series ~skip_units =
  let total = ref 0. and count = ref 0 in
  Array.iter
    (fun (x, y) ->
      if x >= skip_units then begin
        total := !total +. y;
        incr count
      end)
    series.Series.points;
  if !count = 0 then 0. else !total /. float_of_int !count
