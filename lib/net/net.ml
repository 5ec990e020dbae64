module Rng = Stratify_prng.Rng
module Dist = Stratify_prng.Dist
module Splitmix64 = Stratify_prng.Splitmix64
module Engine = Stratify_des.Engine
module Counter = Stratify_obs.Counter

type latency =
  | Constant of float
  | Jitter of { base : float; spread : float }
  | Log_normal of { mu : float; sigma : float }

type loss =
  | No_loss
  | Iid of float
  | Burst of { p_gb : float; p_bg : float; loss_good : float; loss_bad : float }

type faults = {
  latency : latency;
  loss : loss;
  duplicate : float;
  reorder : float;
  reorder_spread : float;
}

let ideal ?(latency = 0.05) () =
  { latency = Constant latency; loss = No_loss; duplicate = 0.; reorder = 0.; reorder_spread = 0. }

let stationary_loss = function
  | No_loss -> 0.
  | Iid p -> Float.max 0. p
  | Burst { p_gb; p_bg; loss_good; loss_bad } ->
      if p_gb +. p_bg <= 0. then loss_good
      else ((p_gb *. loss_bad) +. (p_bg *. loss_good)) /. (p_gb +. p_bg)

type partition_event = { at : float; groups : int array option }

module Packed = struct
  let kind_bits = 6
  let id_bits = 28
  let max_kind = (1 lsl kind_bits) - 1
  let max_id = (1 lsl id_bits) - 1

  (* kind in the low bits so handler dispatch is one [land] *)
  let[@inline] pack ~kind ~src ~dst =
    (((dst lsl id_bits) lor src) lsl kind_bits) lor kind

  let pack_checked ~kind ~src ~dst =
    if kind < 0 || kind > max_kind then
      invalid_arg (Printf.sprintf "Net.Packed.pack: kind %d outside [0, %d]" kind max_kind);
    if src < 0 || src > max_id then
      invalid_arg (Printf.sprintf "Net.Packed.pack: src %d outside [0, %d]" src max_id);
    if dst < 0 || dst > max_id then
      invalid_arg (Printf.sprintf "Net.Packed.pack: dst %d outside [0, %d]" dst max_id);
    pack ~kind ~src ~dst

  let[@inline] kind code = code land max_kind
  let[@inline] src code = (code lsr kind_bits) land max_id
  let[@inline] dst code = code lsr (kind_bits + id_bits)

  (* The kind of the network's own split/heal events: [src] indexes the
     groups table.  No protocol handler ever sees it. *)
  let partition_kind = max_kind
end

(* Gilbert–Elliott link states: open addressing from the link key
   [(src lsl Packed.id_bits) lor dst] to one byte of chain state
   (0 Good, 1 Bad).  A link starts Good the first time it carries a
   message.  Keys are non-negative, so -1 marks an empty cell; the
   table doubles past half load and never deletes.  A lookup allocates
   nothing and hashes no polymorphic value: it runs on every lossy send. *)
module Links = struct
  type t = {
    mutable keys : int array; (* capacity a power of two *)
    mutable bad : Bytes.t; (* cell -> '\001' when the link is Bad *)
    mutable shift : int; (* Sys.int_size - log2 capacity *)
    mutable count : int;
  }

  let create () =
    { keys = Array.make 64 (-1); bad = Bytes.make 64 '\000'; shift = Sys.int_size - 6; count = 0 }

  (* Multiplicative hashing: the product's top bits pick the home cell. *)
  let[@inline] home t key = (key * 0x2545F4914F6CDD1D) lsr t.shift

  let rec probe keys key i =
    let k = keys.(i) in
    if k = key || k = -1 then i else probe keys key ((i + 1) land (Array.length keys - 1))

  let grow t =
    let keys = t.keys and bad = t.bad in
    let cap = 2 * Array.length keys in
    t.keys <- Array.make cap (-1);
    t.bad <- Bytes.make cap '\000';
    t.shift <- t.shift - 1;
    Array.iteri
      (fun i key ->
        if key >= 0 then begin
          let j = probe t.keys key (home t key) in
          t.keys.(j) <- key;
          Bytes.set t.bad j (Bytes.get bad i)
        end)
      keys

  (* The cell holding [key], claimed (Good) on first sight. *)
  let rec cell t key =
    let i = probe t.keys key (home t key) in
    if t.keys.(i) = key then i
    else if 2 * (t.count + 1) > Array.length t.keys then begin
      grow t;
      cell t key
    end
    else begin
      t.keys.(i) <- key;
      t.count <- t.count + 1;
      i
    end
end

(* Counters are global (per-process) like every other stratify.obs probe;
   scenario runs reset them per plan. *)
let c_sent = Counter.make "net.sent"
let c_delivered = Counter.make "net.delivered"
let c_lost = Counter.make "net.lost"
let c_partitioned = Counter.make "net.partitioned"
let c_duplicated = Counter.make "net.duplicated"
let c_reordered = Counter.make "net.reordered"

type t = {
  engine : Engine.t;
  rng : Rng.t;
  faults : faults;
  (* Fault-free configurations take a precomputed branch in [send] that
     skips the whole pipeline (no RNG draws either way, so the two paths
     are trace-identical), keeping Net.send within the bench.net
     dispatch-overhead budget. *)
  fast : bool;
  fast_latency : float;
  links : Links.t;  (* Gilbert–Elliott link states *)
  mutable groups : int array option;
  mutable splits : int array option array;
      (* the groups of every scheduled split/heal event, indexed by the
         event code's [src] *)
  mutable handler : Engine.t -> int -> unit;  (* the protocol's, from [set_handler] *)
  mutable sent : int;
  mutable delivered : int;
  mutable lost : int;
  mutable partitioned : int;
  mutable duplicated : int;
  mutable reordered : int;
}

(* [nan] and [inf] pass every [x < 0.] test, so each field is checked
   finite first: a non-finite delay would reorder the engine. *)
let check_finite what x =
  if not (Float.is_finite x) then
    invalid_arg (Printf.sprintf "Net.create: %s must be finite, got %g" what x)

let check_prob what p =
  if not (p >= 0. && p < 1.) then
    invalid_arg (Printf.sprintf "Net.create: %s must be in [0, 1), got %g" what p)

let validate f =
  (match f.latency with
  | Constant l ->
      check_finite "latency" l;
      if l < 0. then invalid_arg (Printf.sprintf "Net.create: negative latency %g" l)
  | Jitter { base; spread } ->
      check_finite "latency base" base;
      check_finite "jitter spread" spread;
      if base < 0. then invalid_arg (Printf.sprintf "Net.create: negative latency base %g" base);
      if spread < 0. then invalid_arg (Printf.sprintf "Net.create: negative jitter spread %g" spread)
  | Log_normal { mu; sigma } ->
      check_finite "log-normal mu" mu;
      check_finite "log-normal sigma" sigma;
      if sigma < 0. then invalid_arg (Printf.sprintf "Net.create: negative sigma %g" sigma));
  (match f.loss with
  | No_loss -> ()
  | Iid p -> check_prob "loss" p
  | Burst { p_gb; p_bg; loss_good; loss_bad } ->
      check_prob "p_gb" p_gb;
      check_prob "p_bg" p_bg;
      check_prob "loss_good" loss_good;
      check_prob "loss_bad" loss_bad);
  check_prob "duplicate" f.duplicate;
  check_prob "reorder" f.reorder;
  check_finite "reorder_spread" f.reorder_spread;
  if f.reorder_spread < 0. then
    invalid_arg (Printf.sprintf "Net.create: negative reorder_spread %g" f.reorder_spread)

let no_handler (_ : Engine.t) (_ : int) =
  invalid_arg "Net: message delivered but no handler is installed (see Net.set_handler)"

let create ?engine rng faults =
  validate faults;
  let engine = match engine with Some e -> e | None -> Engine.create () in
  let fast, fast_latency =
    match faults with
    | { latency = Constant l; loss = No_loss | Iid 0.; duplicate = 0.; reorder = 0.; _ } ->
        (true, l)
    | _ -> (false, 0.)
  in
  {
    engine;
    rng;
    faults;
    fast;
    fast_latency;
    links = Links.create ();
    groups = None;
    splits = [||];
    handler = no_handler;
    sent = 0;
    delivered = 0;
    lost = 0;
    partitioned = 0;
    duplicated = 0;
    reordered = 0;
  }

let engine t = t.engine
let faults t = t.faults

(* Install the engine's handler: the protocol's own until a split/heal
   event is scheduled, then a wrapper that applies split/heal events and
   passes every other code on — so a network without a partition
   schedule pays no per-event kind test. *)
let install t =
  let f = t.handler in
  Engine.set_packed_handler t.engine
    (if Array.length t.splits = 0 then f
     else fun e code ->
       if Packed.kind code = Packed.partition_kind then t.groups <- t.splits.(Packed.src code)
       else f e code)

let set_handler t f =
  t.handler <- f;
  install t

let set_partition_schedule t events =
  (* Validate the whole schedule before touching the engine, with an
     error naming the partition script rather than the engine internals
     — a request script that schedules a split into the past should be
     told so in its own vocabulary. *)
  let now = Engine.now t.engine in
  List.iter
    (fun ev ->
      if not (Float.is_finite ev.at) then
        invalid_arg
          (Printf.sprintf "Net.set_partition_schedule: partition event at %g is not finite"
             ev.at);
      if ev.at < now then
        invalid_arg
          (Printf.sprintf
             "Net.set_partition_schedule: partition event at %g is in the past (engine now %g)"
             ev.at now))
    events;
  let first = Array.length t.splits in
  let groups = List.map (fun (ev : partition_event) -> ev.groups) events in
  t.splits <- Array.append t.splits (Array.of_list groups);
  List.iteri
    (fun i ev ->
      Engine.schedule_packed_at t.engine ~time:ev.at
        (Packed.pack_checked ~kind:Packed.partition_kind ~src:(first + i) ~dst:0))
    events;
  if events <> [] then install t

let reachable t ~src ~dst =
  match t.groups with None -> true | Some g -> g.(src) = g.(dst)

let drop_by_loss t ~src ~dst =
  match t.faults.loss with
  | No_loss -> false
  | Iid p -> p > 0. && Rng.bernoulli t.rng p
  | Burst { p_gb; p_bg; loss_good; loss_bad } ->
      if (src lor dst) land lnot Packed.max_id <> 0 then
        invalid_arg
          (Printf.sprintf "Net.send: burst loss needs ids in [0, %d], got src %d dst %d"
             Packed.max_id src dst);
      let cell = Links.cell t.links ((src lsl Packed.id_bits) lor dst) in
      (* [cell] indexes the table, so the byte accesses are in range *)
      let bad =
        if Bytes.unsafe_get t.links.bad cell <> '\000' then not (Rng.bernoulli t.rng p_bg)
        else Rng.bernoulli t.rng p_gb
      in
      Bytes.unsafe_set t.links.bad cell (if bad then '\001' else '\000');
      let p = if bad then loss_bad else loss_good in
      p > 0. && Rng.bernoulli t.rng p

let draw_latency t =
  match t.faults.latency with
  | Constant l -> l
  | Jitter { base; spread } -> if spread <= 0. then base else Dist.uniform t.rng ~lo:base ~hi:(base +. spread)
  | Log_normal { mu; sigma } -> Dist.lognormal t.rng ~mu ~sigma

(* One delivery attempt: latency draw, optional reordering delay, schedule.
   A scheduled message always runs, so [delivered] is counted here rather
   than at fire time — the hot fault-free path then hands the code to the
   engine untouched, keeping Net.send within its dispatch-overhead budget
   (see bench.net). *)
let deliver t code =
  let delay = draw_latency t in
  let delay =
    if t.faults.reorder > 0. && Rng.bernoulli t.rng t.faults.reorder then begin
      t.reordered <- t.reordered + 1;
      Counter.incr c_reordered;
      delay +. Rng.float t.rng t.faults.reorder_spread
    end
    else delay
  in
  t.delivered <- t.delivered + 1;
  Counter.incr c_delivered;
  Engine.schedule_packed t.engine ~delay code

let[@inline never] send_slow t ~src ~dst code =
  if not (reachable t ~src ~dst) then begin
    t.partitioned <- t.partitioned + 1;
    Counter.incr c_partitioned
  end
  else if drop_by_loss t ~src ~dst then begin
    t.lost <- t.lost + 1;
    Counter.incr c_lost
  end
  else begin
    deliver t code;
    if t.faults.duplicate > 0. && Rng.bernoulli t.rng t.faults.duplicate then begin
      t.duplicated <- t.duplicated + 1;
      Counter.incr c_duplicated;
      deliver t code
    end
  end

let[@inline always] send t ~src ~dst code =
  t.sent <- t.sent + 1;
  Counter.incr c_sent;
  if t.fast && t.groups == None then begin
    t.delivered <- t.delivered + 1;
    Counter.incr c_delivered;
    Engine.schedule_packed t.engine ~delay:t.fast_latency code
  end
  else send_slow t ~src ~dst code

let sent t = t.sent
let delivered t = t.delivered
let lost t = t.lost
let partitioned t = t.partitioned
let dropped t = t.lost + t.partitioned
let duplicated t = t.duplicated
let reordered t = t.reordered

(* ------------------------------------------------------------------ *)

module Tick = struct
  type event = { at_tick : int; groups : int array option }

  type t = {
    base : int64;
    loss : float;
    mutable pending : event list;  (* sorted by at_tick *)
    mutable groups : int array option;
    mutable drops : int;
  }

  let c_tick_drops = Counter.make "net.tick_drops"

  let create ~seed ~loss ?(schedule = []) () =
    if loss < 0. || loss >= 1. then
      invalid_arg (Printf.sprintf "Net.Tick.create: loss must be in [0, 1), got %g" loss);
    List.iter
      (fun ev ->
        if ev.at_tick < 0 then
          invalid_arg
            (Printf.sprintf "Net.Tick.create: partition event at negative tick %d" ev.at_tick))
      schedule;
    let pending = List.sort (fun a b -> compare a.at_tick b.at_tick) schedule in
    { base = Splitmix64.mix (Int64.of_int seed); loss; pending; groups = None; drops = 0 }

  let advance t ~tick =
    let rec go = function
      | ev :: rest when ev.at_tick <= tick ->
          t.groups <- ev.groups;
          go rest
      | rest -> t.pending <- rest
    in
    go t.pending

  let connected t ~src ~dst =
    match t.groups with None -> true | Some g -> g.(src) = g.(dst)

  (* Counter-mode draw: hash (seed, tick, src, dst) to a u53 uniform.
     No state advances, so the verdict for a link does not depend on how
     many other links were asked first.  Inlined into [passes], so the
     float never boxes on the swarm's per-link path. *)
  let[@inline] unit_float t ~tick ~src ~dst =
    let key = Int64.of_int ((((tick * 1_000_003) + src) * 1_000_003) + dst) in
    let h = Splitmix64.mix (Int64.logxor t.base (Splitmix64.mix key)) in
    Int64.to_float (Int64.shift_right_logical h 11) *. 0x1p-53

  let passes t ~tick ~src ~dst =
    let ok =
      connected t ~src ~dst && (t.loss <= 0. || unit_float t ~tick ~src ~dst >= t.loss)
    in
    if not ok then begin
      t.drops <- t.drops + 1;
      Counter.incr c_tick_drops
    end;
    ok

  let drops t = t.drops

  (* Snapshot/restore (lib/serve): the whole fault state is already pure
     data — the mixed seed base, the not-yet-applied partition events,
     the currently installed groups and the drop tally. *)
  type snapshot = {
    snap_base : int64;
    snap_loss : float;
    snap_pending : event list;
    snap_groups : int array option;
    snap_drops : int;
  }

  let snapshot t =
    {
      snap_base = t.base;
      snap_loss = t.loss;
      snap_pending = t.pending;
      snap_groups = Option.map Array.copy t.groups;
      snap_drops = t.drops;
    }

  let restore s =
    if s.snap_loss < 0. || s.snap_loss >= 1. then
      invalid_arg
        (Printf.sprintf "Net.Tick.restore: loss must be in [0, 1), got %g" s.snap_loss);
    {
      base = s.snap_base;
      loss = s.snap_loss;
      pending = List.sort (fun a b -> compare a.at_tick b.at_tick) s.snap_pending;
      groups = Option.map Array.copy s.snap_groups;
      drops = s.snap_drops;
    }
end
