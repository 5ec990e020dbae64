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

type pieces = {
  piece_size : float;
  fields : Piece.t array;
  counts : Piece.Availability.counts;
}

(* Edge-indexed state (DESIGN.md §13).  The knowledge graph is CSR:
   peer [p]'s neighbours are [nbr.(off.(p)) .. nbr.(off.(p+1) - 1)],
   ascending, and [rev.(e)] is the same link's edge in the neighbour's
   row.  Edge [e] of row [p] owns [p]'s rate window for what it
   downloaded from [nbr.(e)] and the partial-piece progress of
   [p -> nbr.(e)].  Unchokes are edge ids in rank order, in the
   [useg.(p) ..] segment [slots.(p)] wide; the optimistic unchoke is an
   edge id or -1.  The intent arrays hold one tick's transfers: a peer
   has at most [slots + 1] targets, so they never grow. *)
type t = {
  params : params;
  rng : Rng.t;
  capacity : float array;
  slots : int array;
  off : int array;
  nbr : int array;
  rev : int array;
  rates : Rate.t;
  progress : float array;  (* < 0: no entry *)
  uploaded : float array;
  downloaded : float array;
  uploaded_tft : float array;
  downloaded_tft : float array;
  useg : int array;
  unchoke : int array;
  unchoke_len : int array;
  optimistic : int array;
  pieces : pieces option;
  choker : Choker.t;
  eligible : int array;
  intent_src : int array;
  intent_edge : int array;
  intent_tft : bool array;
  intent_share : float array;
  inbound : float array;
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
  let pieces =
    match params.piece with
    | None -> None
    | Some pp ->
        let fields =
          Array.init n (fun i ->
              let field = Piece.create ~pieces:pp.pieces in
              if i < pp.seeds then Piece.fill_all field
              else Piece.random_fill field rng ~fraction:pp.init_fraction;
              field)
        in
        Some
          {
            piece_size = pp.piece_size;
            fields;
            counts = Piece.Availability.of_swarm ~pieces:pp.pieces fields;
          }
  in
  let off, nbr = Undirected.adjacency_csr graph in
  let edges = Array.length nbr in
  (* Rows are ascending and symmetric, so visiting rows in ascending
     order reaches each neighbour's row entries in its own order: a
     per-row cursor gives the reverse edge. *)
  let rev = Array.make edges 0 and cursor = Array.make n 0 and degree = ref 0 in
  for p = 0 to n - 1 do
    degree := Int.max !degree (off.(p + 1) - off.(p));
    for e = off.(p) to off.(p + 1) - 1 do
      let q = nbr.(e) in
      rev.(e) <- off.(q) + cursor.(q);
      cursor.(q) <- cursor.(q) + 1
    done
  done;
  let slots = Array.map (Int.max 0) params.slots in
  let useg = Array.make (n + 1) 0 in
  for p = 0 to n - 1 do
    useg.(p + 1) <- useg.(p) + slots.(p)
  done;
  let intents = useg.(n) + n in
  {
    params;
    rng;
    capacity = Array.copy params.uploads;
    slots;
    off;
    nbr;
    rev;
    rates = Rate.create ~window:params.rate_window edges;
    progress = Array.make edges (-1.);
    uploaded = Array.make n 0.;
    downloaded = Array.make n 0.;
    uploaded_tft = Array.make n 0.;
    downloaded_tft = Array.make n 0.;
    useg;
    unchoke = Array.make useg.(n) 0;
    unchoke_len = Array.make n 0;
    optimistic = Array.make n (-1);
    pieces;
    choker = Choker.create ~slots:(Array.fold_left Int.max 0 slots);
    eligible = Array.make !degree 0;
    intent_src = Array.make intents 0;
    intent_edge = Array.make intents 0;
    intent_tft = Array.make intents false;
    intent_share = Array.make intents 0.;
    inbound = Array.make n 0.;
    tick = 0;
  }

let size t = Array.length t.capacity
let tick_count t = t.tick
let rng t = t.rng

let interested t q p =
  match t.pieces with
  | None -> true
  | Some s -> Piece.wants ~have:s.fields.(q) ~from_:s.fields.(p)

(* The rank of edge [e] among [p]'s TFT unchokes, -1 when it is none. *)
let unchoke_rank t p e =
  let seg = t.useg.(p) and len = t.unchoke_len.(p) in
  let j = ref 0 in
  while !j < len && t.unchoke.(seg + !j) <> e do
    incr j
  done;
  if !j < len then !j else -1

let unchokes t p e = unchoke_rank t p e >= 0

let rechoke t =
  let c = t.choker in
  for p = 0 to size t - 1 do
    Choker.start c ~slots:t.slots.(p) ~optimistic:t.optimistic.(p);
    for e = t.off.(p) to t.off.(p + 1) - 1 do
      if interested t t.nbr.(e) p then begin
        let tag = Rng.bits30 t.rng in
        Choker.offer c (Rate.rate t.rates e ~tick:t.tick) tag e
      end
    done;
    let seg = t.useg.(p) in
    for j = 0 to Choker.count c - 1 do
      t.unchoke.(seg + j) <- Choker.nth c j
    done;
    t.unchoke_len.(p) <- Choker.count c;
    t.optimistic.(p) <- Choker.optimistic c
  done

let rotate_optimistic t =
  for p = 0 to size t - 1 do
    let k = ref 0 in
    for e = t.off.(p) to t.off.(p + 1) - 1 do
      if interested t t.nbr.(e) p && not (unchokes t p e) then begin
        t.eligible.(!k) <- e;
        incr k
      end
    done;
    t.optimistic.(p) <- Choker.rotate t.rng t.eligible !k
  done

(* A sender splits capacity over its unchoked-and-interested targets
   before the network has its say: a dropped or partitioned link wastes
   that share for the tick (the sender cannot re-aim mid-tick), exactly
   like the download-cap surplus in [apply]. *)
let link_up t p q =
  match t.params.faults with
  | None -> true
  | Some f -> Net.Tick.passes f ~tick:t.tick ~src:p ~dst:q

let push_target t k e ~tft =
  t.intent_edge.(k) <- e;
  t.intent_tft.(k) <- tft

(* Fill the intent arrays with this tick's transfers and return their
   count.  A peer's targets are its optimistic unchoke (unless it is
   also a TFT unchoke), then its unchokes in rank order, each kept if
   interested; the targets whose link passes become intents. *)
let collect t =
  let k = ref 0 in
  for p = 0 to size t - 1 do
    let first = !k in
    let o = t.optimistic.(p) in
    if o >= 0 && (not (unchokes t p o)) && interested t t.nbr.(o) p then begin
      push_target t !k o ~tft:false;
      incr k
    end;
    let seg = t.useg.(p) in
    for j = 0 to t.unchoke_len.(p) - 1 do
      let e = t.unchoke.(seg + j) in
      if interested t t.nbr.(e) p then begin
        push_target t !k e ~tft:true;
        incr k
      end
    done;
    let targets = !k - first in
    if targets > 0 then begin
      let share = t.capacity.(p) /. float_of_int targets in
      k := first;
      for i = first to first + targets - 1 do
        let e = t.intent_edge.(i) in
        if link_up t p t.nbr.(e) then begin
          push_target t !k e ~tft:t.intent_tft.(i);
          t.intent_src.(!k) <- p;
          t.intent_share.(!k) <- share;
          incr k
        end
      done
    end
  done;
  !k

(* One rarest-first piece from [sender] to [receiver]; false when the
   sender has nothing the receiver lacks. *)
let deliver_piece s ~sender ~receiver =
  let have = s.fields.(receiver) in
  let piece = Piece.Availability.rarest_wanted s.counts ~have ~from_:s.fields.(sender) in
  if piece >= 0 && Piece.add have piece then Piece.Availability.on_add s.counts piece;
  piece >= 0

let[@inline] transfer t p e ~tft amount =
  let q = t.nbr.(e) in
  t.uploaded.(p) <- t.uploaded.(p) +. amount;
  t.downloaded.(q) <- t.downloaded.(q) +. amount;
  Rate.record t.rates t.rev.(e) ~tick:t.tick amount;
  if tft then begin
    t.uploaded_tft.(p) <- t.uploaded_tft.(p) +. amount;
    t.downloaded_tft.(q) <- t.downloaded_tft.(q) +. amount
  end;
  match t.pieces with
  | None -> ()
  | Some s ->
      let progress = ref ((if t.progress.(e) < 0. then 0. else t.progress.(e)) +. amount) in
      (* Once the sender has nothing left to give, later pieces of this
         tick's volume would miss too: keep the arithmetic, skip the
         scans. *)
      let useful = ref true in
      while !progress >= s.piece_size do
        progress := !progress -. s.piece_size;
        if !useful then useful := deliver_piece s ~sender:p ~receiver:q
      done;
      t.progress.(e) <- !progress

(* Intents apply last to first, and download caps sum [inbound] in that
   order, so every float sum adds in the order it always has. *)
let apply t k =
  (match t.params.downloads with
  | None -> ()
  | Some _ ->
      Array.fill t.inbound 0 (size t) 0.;
      for i = k - 1 downto 0 do
        let q = t.nbr.(t.intent_edge.(i)) in
        t.inbound.(q) <- t.inbound.(q) +. t.intent_share.(i)
      done);
  for i = k - 1 downto 0 do
    let e = t.intent_edge.(i) in
    match t.params.downloads with
    | None -> transfer t t.intent_src.(i) e ~tft:t.intent_tft.(i) t.intent_share.(i)
    | Some caps ->
        (* Asymmetric links: a receiver over its download capacity scales
           every inbound stream down proportionally (the sender's surplus
           is simply lost - it cannot be re-aimed within the tick). *)
        let q = t.nbr.(e) in
        let inbound = t.inbound.(q) in
        let scale = if inbound <= caps.(q) || inbound <= 0. then 1. else caps.(q) /. inbound in
        transfer t t.intent_src.(i) e ~tft:t.intent_tft.(i) (t.intent_share.(i) *. scale)
  done

let step t =
  (match t.params.faults with
  | Some f -> Net.Tick.advance f ~tick:t.tick
  | None -> ());
  if t.tick mod t.params.rechoke_period = 0 then rechoke t;
  if t.tick mod t.params.optimistic_period = 0 then rotate_optimistic t;
  apply t (collect t);
  t.tick <- t.tick + 1

let run t ~ticks =
  for _ = 1 to ticks do
    step t
  done

let reset_counters t =
  List.iter
    (fun a -> Array.fill a 0 (size t) 0.)
    [ t.uploaded; t.downloaded; t.uploaded_tft; t.downloaded_tft ]

(* Drop edge [e] from [p]'s unchokes, keeping the rank order. *)
let drop_unchoke t p e =
  let j = unchoke_rank t p e and seg = t.useg.(p) and len = t.unchoke_len.(p) in
  if j >= 0 then begin
    Array.blit t.unchoke (seg + j + 1) t.unchoke (seg + j) (len - j - 1);
    t.unchoke_len.(p) <- len - 1
  end

let recycle_peer t i =
  (match t.pieces with
  | Some s ->
      let field = s.fields.(i) in
      Piece.iter_held field (fun piece -> Piece.Availability.on_remove s.counts piece);
      Piece.clear field
  | None -> ());
  t.unchoke_len.(i) <- 0;
  t.optimistic.(i) <- -1;
  t.uploaded.(i) <- 0.;
  t.downloaded.(i) <- 0.;
  t.uploaded_tft.(i) <- 0.;
  t.downloaded_tft.(i) <- 0.;
  (* Other peers' links towards the newcomer are stale history: drop
     in-flight piece progress both ways and every choke reference to it.
     Only knowledge-graph neighbours can hold either — the choker picks
     from the row, and progress is kept per edge — and the graph is
     undirected, so [i]'s own row is all to visit. *)
  for e = t.off.(i) to t.off.(i + 1) - 1 do
    let q = t.nbr.(e) and r = t.rev.(e) in
    Rate.clear t.rates e;
    t.progress.(e) <- -1.;
    t.progress.(r) <- -1.;
    drop_unchoke t q r;
    if t.optimistic.(q) = r then t.optimistic.(q) <- -1
  done

let link_drops t =
  match t.params.faults with None -> 0 | Some f -> Net.Tick.drops f

let completed t =
  match t.pieces with
  | None -> size t
  | Some s ->
      Array.fold_left (fun acc f -> if Piece.is_complete f then acc + 1 else acc) 0 s.fields

(* ---- per-peer state ------------------------------------------------ *)

let upload_capacity t i = t.capacity.(i)
let uploaded t i = t.uploaded.(i)
let downloaded t i = t.downloaded.(i)
let uploaded_tft t i = t.uploaded_tft.(i)
let downloaded_tft t i = t.downloaded_tft.(i)
let unchoked t i = List.init t.unchoke_len.(i) (fun j -> t.nbr.(t.unchoke.(t.useg.(i) + j)))
let optimistic t i = if t.optimistic.(i) < 0 then -1 else t.nbr.(t.optimistic.(i))
let field t i = Option.map (fun s -> s.fields.(i)) t.pieces

(* The edge of [q] in [p]'s row, -1 when [q] is not a neighbour. *)
let edge_to t p q =
  let lo = ref t.off.(p) and hi = ref t.off.(p + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.nbr.(mid) < q then lo := mid + 1 else hi := mid
  done;
  if !lo < t.off.(p + 1) && t.nbr.(!lo) = q then !lo else -1

let is_neighbor t p q = p >= 0 && p < size t && edge_to t p q >= 0

(* ---- snapshot/restore ------------------------------------------------ *)

(* A swarm is restored by replaying [create] from the creation-time RNG
   state (regenerating the knowledge graph and initial fields
   draw-for-draw), then overwriting the mutable state through these
   setters — the availability counts stay consistent because
   [set_held_pieces] goes through the same on_remove/on_add bookkeeping
   as the simulation itself. *)

let invalid fn fmt = Printf.ksprintf (fun msg -> invalid_arg ("Swarm." ^ fn ^ ": " ^ msg)) fmt

let check_peer fn t i =
  if i < 0 || i >= size t then invalid fn "peer %d outside the swarm [0, %d)" i (size t)

let neighbour_edge fn t i role q =
  let e = edge_to t i q in
  if e < 0 then invalid fn "%s %d is not a knowledge-graph neighbour" role q;
  e

let set_tick t tick =
  if tick < 0 then invalid_arg (Printf.sprintf "Swarm.set_tick: negative tick %d" tick);
  t.tick <- tick

let set_counters t i ~uploaded ~downloaded ~uploaded_tft ~downloaded_tft =
  check_peer "set_counters" t i;
  t.uploaded.(i) <- uploaded;
  t.downloaded.(i) <- downloaded;
  t.uploaded_tft.(i) <- uploaded_tft;
  t.downloaded_tft.(i) <- downloaded_tft

let set_unchoked t i qs =
  let fn = "set_unchoked" in
  check_peer fn t i;
  let edges = List.map (neighbour_edge fn t i "unchoked peer") qs in
  let rec distinct = function
    | [] -> ()
    | e :: rest ->
        if List.mem e rest then invalid fn "peer %d unchoked twice" t.nbr.(e);
        distinct rest
  in
  distinct edges;
  let len = List.length edges in
  if len > t.slots.(i) then invalid fn "%d unchokes for %d slots" len t.slots.(i);
  List.iteri (fun j e -> t.unchoke.(t.useg.(i) + j) <- e) edges;
  t.unchoke_len.(i) <- len

let set_optimistic t i q =
  let fn = "set_optimistic" in
  check_peer fn t i;
  t.optimistic.(i) <- (if q = -1 then -1 else neighbour_edge fn t i "optimistic unchoke" q)

type rate = {
  from_ : int;
  window : int;
  buckets : float array;
  stamps : int array;
  total : float;
}

let rates t i =
  List.init
    (t.off.(i + 1) - t.off.(i))
    (fun j ->
      let e = t.off.(i) + j in
      let buckets, stamps, total = Rate.dump t.rates e in
      { from_ = t.nbr.(e); window = Rate.window t.rates; buckets; stamps; total })

let set_rates t i rs =
  let fn = "set_rates" in
  check_peer fn t i;
  let degree = t.off.(i + 1) - t.off.(i) and window = Rate.window t.rates in
  if List.length rs <> degree then
    invalid fn "%d rate windows for %d knowledge-graph neighbours" (List.length rs) degree;
  List.iteri
    (fun j r ->
      let expected = t.nbr.(t.off.(i) + j) in
      if r.from_ <> expected then
        invalid fn "rate window %d is from %d, expected neighbour %d (ascending order)" j
          r.from_ expected;
      if r.window <> window then
        invalid fn "rate window from %d has window %d, the swarm's is %d" r.from_ r.window
          window;
      if Array.length r.buckets <> window || Array.length r.stamps <> window then
        invalid fn "rate window from %d has %d buckets and %d stamps, need %d" r.from_
          (Array.length r.buckets) (Array.length r.stamps) window)
    rs;
  List.iteri
    (fun j r ->
      Rate.restore t.rates (t.off.(i) + j) ~buckets:r.buckets ~stamps:r.stamps ~total:r.total)
    rs

let set_held_pieces t i pieces =
  match t.pieces with
  | Some s ->
      let field = s.fields.(i) in
      Piece.iter_held field (fun piece -> Piece.Availability.on_remove s.counts piece);
      Piece.clear field;
      List.iter
        (fun piece -> if Piece.add field piece then Piece.Availability.on_add s.counts piece)
        pieces
  | None ->
      if pieces <> [] then
        invalid_arg "Swarm.set_held_pieces: swarm runs in bandwidth-only mode"

let iter_link_progress t f =
  for p = 0 to size t - 1 do
    for e = t.off.(p) to t.off.(p + 1) - 1 do
      if not (t.progress.(e) < 0.) then f p t.nbr.(e) t.progress.(e)
    done
  done

let set_link_progress t ~sender ~receiver amount =
  let fn = "set_link_progress" in
  if amount < 0. then invalid fn "negative progress %g" amount;
  let e = if sender < 0 || sender >= size t then -1 else edge_to t sender receiver in
  if e < 0 then invalid fn "[%d, %d] is not a knowledge-graph neighbour pair" sender receiver;
  t.progress.(e) <- amount

let clear_link_progress t = Array.fill t.progress 0 (Array.length t.progress) (-1.)
