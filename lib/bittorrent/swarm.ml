module Rng = Stratify_prng.Rng
module Gen = Stratify_graph.Gen
module Undirected = Stratify_graph.Undirected
module Net = Stratify_net.Net

type piece_params = {
  pieces : int;
  piece_size : float;
  init_fraction : float;
  seeds : int;
}

type params = {
  uploads : float array;
  downloads : float array option;
  slots : int array;
  d : float;
  rechoke_period : int;
  optimistic_period : int;
  rate_window : int;
  piece : piece_params option;
  faults : Net.Tick.t option;
}

let default_params ~uploads =
  {
    uploads;
    downloads = None;
    slots = Array.make (Array.length uploads) 3;
    d = 20.;
    rechoke_period = 10;
    optimistic_period = 30;
    rate_window = 10;
    piece = None;
    faults = None;
  }

type t = {
  params : params;
  peers : Peer.t array;
  rng : Rng.t;
  availability : Piece.Availability.counts option;
  link_progress : (int * int, float ref) Hashtbl.t;  (* (sender, receiver) *)
  mutable tick : int;
}

let create rng params =
  let n = Array.length params.uploads in
  if Array.length params.slots <> n then invalid_arg "Swarm.create: |slots| <> |uploads|";
  (match params.downloads with
  | Some caps when Array.length caps <> n ->
      invalid_arg "Swarm.create: |downloads| <> |uploads|"
  | _ -> ());
  if n < 2 then invalid_arg "Swarm.create: need at least two peers";
  let graph = Gen.gnd rng ~n ~d:params.d in
  let fields =
    match params.piece with
    | None -> Array.make n None
    | Some pp ->
        Array.init n (fun i ->
            let field = Piece.create ~pieces:pp.pieces in
            if i < pp.seeds then Piece.fill_all field
            else Piece.random_fill field rng ~fraction:pp.init_fraction;
            Some field)
  in
  let peers =
    Array.init n (fun i ->
        Peer.create ~id:i ~upload_capacity:params.uploads.(i) ~slots:params.slots.(i)
          ~neighbors:(Array.of_list (Undirected.sorted_neighbors graph i))
          ~rate_window:params.rate_window ~field:fields.(i))
  in
  let availability =
    match params.piece with
    | None -> None
    | Some pp ->
        Some
          (Piece.Availability.of_swarm ~pieces:pp.pieces
             (Array.map (fun f -> Option.get f) fields))
  in
  {
    params;
    peers;
    rng;
    availability;
    link_progress = Hashtbl.create 1024;
    tick = 0;
  }

let size t = Array.length t.peers
let tick_count t = t.tick
let peer t i = t.peers.(i)
let rng t = t.rng

(* Snapshot/restore hooks (lib/serve).  A swarm is restored by replaying
   [create] from the creation-time RNG state (regenerating the knowledge
   graph and initial fields draw-for-draw), then overwriting the mutable
   state through these narrow setters — the availability counts stay
   consistent because [set_held_pieces] goes through the same
   on_remove/on_add bookkeeping as the simulation itself. *)

let set_tick t tick =
  if tick < 0 then invalid_arg (Printf.sprintf "Swarm.set_tick: negative tick %d" tick);
  t.tick <- tick

let set_held_pieces t i pieces =
  match (t.peers.(i).Peer.field, t.availability) with
  | Some field, Some counts ->
      Piece.iter_held field (fun piece -> Piece.Availability.on_remove counts piece);
      Piece.clear field;
      List.iter
        (fun piece -> if Piece.add field piece then Piece.Availability.on_add counts piece)
        pieces
  | _ ->
      if pieces <> [] then
        invalid_arg "Swarm.set_held_pieces: swarm runs in bandwidth-only mode"

let iter_link_progress t f =
  Hashtbl.iter (fun (s, r) v -> f s r !v) t.link_progress

let set_link_progress t ~sender ~receiver amount =
  if amount < 0. then
    invalid_arg (Printf.sprintf "Swarm.set_link_progress: negative progress %g" amount);
  match Hashtbl.find_opt t.link_progress (sender, receiver) with
  | Some r -> r := amount
  | None -> Hashtbl.replace t.link_progress (sender, receiver) (ref amount)

let clear_link_progress t = Hashtbl.reset t.link_progress

let interested t q p =
  match (t.peers.(q).Peer.field, t.peers.(p).Peer.field, t.availability) with
  | Some have, Some from_, Some counts ->
      Piece.Availability.rarest_wanted counts ~have ~from_ <> None
  | _ -> true

let rechoke t =
  Array.iter
    (fun p ->
      let rates =
        Array.to_list p.Peer.neighbors
        |> List.filter (fun q -> interested t q p.Peer.id)
        |> List.map (fun q -> (q, Peer.observed_rate p ~from_:q ~tick:t.tick))
      in
      let decision =
        Choker.rechoke ~rng:t.rng ~rates ~slots:p.Peer.slots
          ~current_optimistic:p.Peer.optimistic ()
      in
      p.Peer.unchoked <- decision.Choker.unchoked;
      p.Peer.optimistic <- decision.Choker.optimistic)
    t.peers

let rotate_optimistic t =
  Array.iter
    (fun p ->
      let candidates =
        Array.to_list p.Peer.neighbors |> List.filter (fun q -> interested t q p.Peer.id)
      in
      p.Peer.optimistic <-
        Choker.rotate_optimistic t.rng ~candidates ~exclude:p.Peer.unchoked)
    t.peers

let deliver_piece t ~sender ~receiver =
  match (t.peers.(receiver).Peer.field, t.peers.(sender).Peer.field, t.availability) with
  | Some have, Some from_, Some counts -> (
      match Piece.Availability.rarest_wanted counts ~have ~from_ with
      | Some piece ->
          if Piece.add have piece then Piece.Availability.on_add counts piece
      | None -> ())
  | _ -> ()

let transfer t ~sender ~receiver ~tft amount =
  let p = t.peers.(sender) and q = t.peers.(receiver) in
  p.Peer.uploaded <- p.Peer.uploaded +. amount;
  Peer.record_download q ~from_:sender ~tick:t.tick amount;
  if tft then begin
    p.Peer.uploaded_tft <- p.Peer.uploaded_tft +. amount;
    q.Peer.downloaded_tft <- q.Peer.downloaded_tft +. amount
  end;
  match t.params.piece with
  | None -> ()
  | Some pp ->
      let key = (sender, receiver) in
      let progress =
        match Hashtbl.find_opt t.link_progress key with
        | Some r -> r
        | None ->
            let r = ref 0. in
            Hashtbl.replace t.link_progress key r;
            r
      in
      progress := !progress +. amount;
      while !progress >= pp.piece_size do
        progress := !progress -. pp.piece_size;
        deliver_piece t ~sender ~receiver
      done

let step t =
  (match t.params.faults with
  | Some f -> Net.Tick.advance f ~tick:t.tick
  | None -> ());
  if t.tick mod t.params.rechoke_period = 0 then rechoke t;
  if t.tick mod t.params.optimistic_period = 0 then rotate_optimistic t;
  (* Collect intended transfers first so that receiver-side (download)
     capacity can throttle proportionally, then apply. *)
  let intents = ref [] in
  (* A sender splits capacity over its unchoked-and-interested set before
     the network has its say: a dropped or partitioned link wastes that
     share for the tick (the sender cannot re-aim mid-tick), exactly like
     the download-cap surplus below. *)
  let link_up sender receiver =
    match t.params.faults with
    | None -> true
    | Some f -> Net.Tick.passes f ~tick:t.tick ~src:sender ~dst:receiver
  in
  Array.iter
    (fun p ->
      let targets =
        List.filter (fun q -> interested t q p.Peer.id) (Peer.active_targets p)
      in
      match targets with
      | [] -> ()
      | _ ->
          let share = p.Peer.upload_capacity /. float_of_int (List.length targets) in
          List.iter
            (fun q ->
              if link_up p.Peer.id q then begin
                let tft = List.mem q p.Peer.unchoked in
                intents := (p.Peer.id, q, tft, share) :: !intents
              end)
            targets)
    t.peers;
  (match t.params.downloads with
  | None ->
      List.iter (fun (sender, receiver, tft, share) -> transfer t ~sender ~receiver ~tft share)
        !intents
  | Some caps ->
      (* Asymmetric links: a receiver over its download capacity scales
         every inbound stream down proportionally (the sender's surplus is
         simply lost - it cannot be re-aimed within the tick). *)
      let inbound = Array.make (size t) 0. in
      List.iter (fun (_, receiver, _, share) -> inbound.(receiver) <- inbound.(receiver) +. share)
        !intents;
      List.iter
        (fun (sender, receiver, tft, share) ->
          let scale =
            if inbound.(receiver) <= caps.(receiver) || inbound.(receiver) <= 0. then 1.
            else caps.(receiver) /. inbound.(receiver)
          in
          transfer t ~sender ~receiver ~tft (share *. scale))
        !intents);
  t.tick <- t.tick + 1

let run t ~ticks =
  for _ = 1 to ticks do
    step t
  done

let reset_counters t = Array.iter Peer.reset_counters t.peers

let recycle_peer t i =
  let p = t.peers.(i) in
  (match (p.Peer.field, t.availability) with
  | Some field, Some counts ->
      Piece.iter_held field (fun piece -> Piece.Availability.on_remove counts piece);
      Piece.clear field
  | _ -> ());
  p.Peer.unchoked <- [];
  p.Peer.optimistic <- None;
  Peer.reset_counters p;
  Hashtbl.reset p.Peer.link_rates;
  Array.iter
    (fun q -> Hashtbl.replace p.Peer.link_rates q (Rate.create ~window:t.params.rate_window))
    p.Peer.neighbors;
  (* Other peers' links towards the newcomer are stale history: drop
     in-flight piece progress both ways and every choke reference to it.
     Only knowledge-graph neighbours can hold either — the choker picks
     from [neighbors], and progress is keyed by active targets — and the
     graph is undirected, so [i]'s own neighbours are all to visit. *)
  Array.iter
    (fun q ->
      Hashtbl.remove t.link_progress (i, q);
      Hashtbl.remove t.link_progress (q, i);
      let other = t.peers.(q) in
      if List.mem i other.Peer.unchoked then
        other.Peer.unchoked <- List.filter (fun x -> x <> i) other.Peer.unchoked;
      if other.Peer.optimistic = Some i then other.Peer.optimistic <- None)
    p.Peer.neighbors

let link_drops t =
  match t.params.faults with None -> 0 | Some f -> Net.Tick.drops f

let completed t =
  Array.fold_left
    (fun acc p ->
      match p.Peer.field with
      | None -> acc + 1
      | Some f -> if Piece.is_complete f then acc + 1 else acc)
    0 t.peers
