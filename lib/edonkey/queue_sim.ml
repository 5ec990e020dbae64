module Rng = Stratify_prng.Rng
module Gen = Stratify_graph.Gen
module Undirected = Stratify_graph.Undirected
module Correlation = Stratify_stats.Correlation
module Net = Stratify_net.Net

type params = {
  uploads : float array;
  slots : int;
  d : float;
  faults : Net.Tick.t option;
}

let default_params ~uploads = { uploads; slots = 4; d = 20.; faults = None }

type t = {
  params : params;
  neighbors : int array array;
  credit : Credit.t;
  waiting : float array array;  (* waiting.(server) aligned with neighbors.(server) *)
  serving : int array array;
      (* serving.(server): the row indices served this tick, best first;
         min(slots, degree) long, meaningful once a tick has run *)
  scores : float array;  (* scratch: the current server's queue scores *)
  uploaded : float array;
  downloaded : float array;
  mutable tick : int;
}

let create rng params =
  let n = Array.length params.uploads in
  if n < 2 then invalid_arg "Queue_sim.create: need at least two peers";
  if params.slots < 1 then invalid_arg "Queue_sim.create: need at least one slot";
  let neighbors = Undirected.adjacency_arrays (Gen.gnd rng ~n ~d:params.d) in
  let max_degree = Array.fold_left (fun m row -> max m (Array.length row)) 0 neighbors in
  {
    params;
    neighbors;
    credit = Credit.create neighbors;
    waiting = Array.map (fun row -> Array.make (Array.length row) 0.) neighbors;
    serving = Array.map (fun row -> Array.make (min params.slots (Array.length row)) 0) neighbors;
    scores = Array.make max_degree 0.;
    uploaded = Array.make n 0.;
    downloaded = Array.make n 0.;
    tick = 0;
  }

let size t = Array.length t.params.uploads

let step t =
  let n = size t in
  (match t.params.faults with
  | Some f -> Net.Tick.advance f ~tick:t.tick
  | None -> ());
  (* A server splits capacity over its chosen slots before the network
     has its say: a dropped or partitioned link wastes that share for the
     tick (the served client still rejoins the back of the queue — the
     service attempt happened, the bytes did not arrive). *)
  let link_up server client =
    match t.params.faults with
    | None -> true
    | Some f -> Net.Tick.passes f ~tick:t.tick ~src:server ~dst:client
  in
  let scores = t.scores in
  (* Each server picks its top-scoring waiting clients. *)
  for server = 0 to n - 1 do
    let row = t.neighbors.(server) in
    let count = Array.length row in
    let waiting = t.waiting.(server) in
    let top = t.serving.(server) in
    let slots = Array.length top in
    (* Insertion into the [slots]-long [top], ordered by score descending
       then index ascending: a later index displaces only a strictly
       lower score, so [top] is exactly the prefix of a full sort. *)
    let filled = ref 0 in
    for k = 0 to count - 1 do
      let score = (1. +. waiting.(k)) *. Credit.modifier t.credit ~judge:server ~k in
      scores.(k) <- score;
      if !filled < slots || score > scores.(top.(slots - 1)) then begin
        let j = ref (if !filled < slots then !filled else slots - 1) in
        while !j > 0 && scores.(top.(!j - 1)) < score do
          top.(!j) <- top.(!j - 1);
          decr j
        done;
        top.(!j) <- k;
        if !filled < slots then incr filled
      end
    done;
    if slots > 0 then begin
      let share = t.params.uploads.(server) /. float_of_int slots in
      for j = 0 to slots - 1 do
        let k = top.(j) in
        let client = row.(k) in
        if link_up server client then begin
          t.uploaded.(server) <- t.uploaded.(server) +. share;
          t.downloaded.(client) <- t.downloaded.(client) +. share;
          Credit.record_transfer t.credit ~from_:server ~k share
        end
      done;
      (* Everyone ages; served clients drop to the back of the queue. *)
      for k = 0 to count - 1 do
        waiting.(k) <- waiting.(k) +. 1.
      done;
      for j = 0 to slots - 1 do
        waiting.(top.(j)) <- 0.
      done
    end
  done;
  t.tick <- t.tick + 1

let run t ~ticks =
  for _ = 1 to ticks do
    step t
  done

let reset_counters t =
  Array.fill t.uploaded 0 (size t) 0.;
  Array.fill t.downloaded 0 (size t) 0.

let uploaded t p = t.uploaded.(p)
let downloaded t p = t.downloaded.(p)

let link_drops t =
  match t.params.faults with None -> 0 | Some f -> Net.Tick.drops f

let share_ratios t =
  Array.init (size t) (fun p ->
      if t.uploaded.(p) <= 0. then 0. else t.downloaded.(p) /. t.uploaded.(p))

let served_now t server =
  if t.tick = 0 then []
  else Array.to_list (Array.map (fun k -> t.neighbors.(server).(k)) t.serving.(server))

let stratification_correlation t =
  let pairs = ref [] in
  for server = 0 to size t - 1 do
    match served_now t server with
    | [] -> ()
    | clients ->
        let mean_cap =
          List.fold_left (fun acc c -> acc +. log t.params.uploads.(c)) 0. clients
          /. float_of_int (List.length clients)
        in
        pairs := (log t.params.uploads.(server), mean_cap) :: !pairs
  done;
  Correlation.pearson (Array.of_list !pairs)

let mean_wait t =
  let total = ref 0. and count = ref 0 in
  Array.iter
    (fun row ->
      Array.iter
        (fun w ->
          total := !total +. w;
          incr count)
        row)
    t.waiting;
  if !count = 0 then 0. else !total /. float_of_int !count
