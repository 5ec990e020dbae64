module Rng = Stratify_prng.Rng
module Dist = Stratify_prng.Dist
module Engine = Stratify_des.Engine
module Net = Stratify_net.Net
module Series = Stratify_stats.Series

type params = { latency : float; initiative_rate : float; loss : float }

let default_params = { latency = 0.05; initiative_rate = 1.; loss = 0. }

type outcome = Drained | Budget_exhausted

type t = {
  instance : Instance.t;
  params : params;
  rng : Rng.t;
  net : Net.t;
  mates : int list array;  (* each peer's local belief, sorted by rank *)
  mutable live : bool;  (* initiative clocks active *)
}

(* ---- local mate-list operations (always keep |mates| <= b) ---------- *)

(* Module-level and int-typed: a nested [let rec] would allocate its
   closure on every call, and an unannotated one would compare through
   the polymorphic primitives (DESIGN.md §13). *)
let rec mem (q : int) = function [] -> false | x :: rest -> x = q || mem q rest

let rec insert_sorted (q : int) = function
  | [] -> [ q ]
  | x :: rest as all -> if q < x then q :: all else x :: insert_sorted q rest

(* Lists never hold a peer twice (every insert is guarded by [listed]),
   so dropping the first match is dropping every match. *)
let rec without (q : int) = function
  | [] -> []
  | x :: rest -> if x = q then rest else x :: without q rest

let rec last = function [] -> -1 | [ x ] -> x | _ :: rest -> last rest

let degree t p = List.length t.mates.(p)
let listed t p q = mem q t.mates.(p)
let remove t p q = t.mates.(p) <- without q t.mates.(p)

(* p's worst (last-ranked) mate, or -1 when p has none. *)
let worst t p = last t.mates.(p)

(* Would p welcome q right now, according to p's local state? *)
let wants t p q =
  (not (listed t p q))
  &&
  if degree t p < Instance.slots t.instance p then Instance.slots t.instance p > 0
  else
    let w = worst t p in
    w >= 0 && q < w

(* ---- protocol ------------------------------------------------------ *)

(* Every message is a [Net.Packed] code (kind, src, dst), handled at dst
   by [dispatch].  Kinds:
     0 clock           src = dst = p: p's initiative clock fires
     1 propose         src offers to mate with dst
     2 accept          dst's proposal is welcome at src
     3 commit          src took dst; dst finalises or retracts
     4 drop            dst forgets src (eviction or retraction)
     5 probe           keepalive: does dst still list src?
     6 reply_listed    probe answer: src lists dst
     7 reply_unlisted  probe answer: src does not list dst
   Messages cross the network layer, which applies partition, loss,
   latency, reordering and duplication faults; the keepalive audits are
   what make the protocol safe under all of them. *)
let clock = 0
let propose = 1
let accept = 2
let commit = 3
let drop = 4
let probe = 5
let reply_listed = 6
let reply_unlisted = 7

let send t ~src ~dst kind = Net.send_code t.net ~src ~dst ~kind

(* p makes room for a new mate, notifying the evicted peer. *)
let make_room t p =
  if degree t p >= Instance.slots t.instance p then begin
    let w = worst t p in
    if w >= 0 then begin
      remove t p w;
      send t ~src:p ~dst:w drop
    end
  end

let initiative t p =
  let len = Instance.degree t.instance p in
  if len > 0 then begin
    let q = Instance.acceptable_at t.instance p (Rng.int t.rng len) in
    (* Random strategy: propose if q looks attractive on local state. *)
    if wants t p q then send t ~src:p ~dst:q propose
  end;
  (* Keepalive audit: probe one current mate; stale one-sided listings
     (races between crossing retracts and re-adds) get repaired instead of
     squatting a slot forever. *)
  match t.mates.(p) with
  | [] -> ()
  | l -> send t ~src:p ~dst:(List.nth l (Rng.int t.rng (List.length l))) probe

let arm_clock t p =
  let delay = Dist.exponential t.rng ~rate:t.params.initiative_rate in
  Engine.schedule_packed (Net.engine t.net) ~delay (Net.Packed.pack ~kind:clock ~src:p ~dst:p)

let dispatch t code =
  let src = Net.Packed.src code and dst = Net.Packed.dst code in
  match Net.Packed.kind code with
  | 0 (* clock *) ->
      if t.live then begin
        initiative t dst;
        arm_clock t dst
      end
  | 1 (* propose *) -> if wants t dst src then send t ~src:dst ~dst:src accept
  | 2 (* accept *) ->
      (* dst re-validates on current state before committing. *)
      if listed t dst src then ()
      else if wants t dst src then begin
        make_room t dst;
        t.mates.(dst) <- insert_sorted src t.mates.(dst);
        send t ~src:dst ~dst:src commit
      end
  | 3 (* commit *) ->
      (* dst finalises: idempotent if already mutual; retract if dst
         changed its mind while the commit was in flight. *)
      if listed t dst src then ()
      else if wants t dst src then begin
        make_room t dst;
        t.mates.(dst) <- insert_sorted src t.mates.(dst)
      end
      else send t ~src:dst ~dst:src drop
  | 4 (* drop *) -> remove t dst src
  | 5 (* probe *) ->
      (* dst answers with its state at probe time... *)
      send t ~src:dst ~dst:src (if listed t dst src then reply_listed else reply_unlisted)
  | 6 (* reply_listed *) -> ()
  | 7 (* reply_unlisted *) ->
      (* ...and the prober acts on the reply (src may have re-added
         since; its own audits repair the inverse ghost if so). *)
      if listed t dst src then remove t dst src
  | k -> invalid_arg (Printf.sprintf "Async_dynamics: unknown message kind %d" k)

let create ?backend ?net instance rng params =
  if params.latency < 0. then invalid_arg "Async_dynamics: negative latency";
  if params.initiative_rate <= 0. then invalid_arg "Async_dynamics: rate must be positive";
  if params.loss < 0. || params.loss >= 1. then
    invalid_arg "Async_dynamics: loss must be in [0,1)";
  let n = Instance.n instance in
  if n > Net.Packed.max_id + 1 then
    invalid_arg
      (Printf.sprintf "Async_dynamics: %d peers exceed the packed message id space (%d)" n
         (Net.Packed.max_id + 1));
  (match (backend, net) with
  | Some _, Some _ ->
      invalid_arg "Async_dynamics: ?backend applies to the internally built net; pass one or the other"
  | _ -> ());
  let net =
    match net with
    | Some net -> net
    | None ->
        (* Legacy fault model: constant latency, optional i.i.d. loss.
           [Iid 0.] and [Constant] draw nothing, so this network is
           draw-for-draw identical to the old direct-[Engine.schedule]
           path and preserves goldens bit-for-bit.  The queue backend
           changes pop mechanics only, never pop order, so it too is
           draw-for-draw invisible (`--queue` invariance). *)
        Net.create ~engine:(Engine.create ?backend ()) rng
          {
            latency = Net.Constant params.latency;
            loss = (if params.loss > 0. then Net.Iid params.loss else Net.No_loss);
            duplicate = 0.;
            reorder = 0.;
            reorder_spread = 0.;
          }
  in
  let t = { instance; params; rng; net; mates = Array.make n []; live = true } in
  Engine.set_packed_handler (Net.engine net) (fun _ code -> dispatch t code);
  for p = 0 to n - 1 do
    arm_clock t p
  done;
  t

let net t = t.net

let time t = Engine.now (Net.engine t.net)

let run t ~horizon =
  let engine = Net.engine t.net in
  Engine.run_until engine ~time:(Engine.now engine +. horizon)

let quiesce ?max_events t =
  t.live <- false;
  if Engine.drain ?max_events (Net.engine t.net) then Drained else Budget_exhausted

let mutual_config t =
  let config = Config.empty t.instance in
  Array.iteri
    (fun p l ->
      List.iter (fun q -> if p < q && listed t q p && not (Config.mated config p q) then Config.connect config p q) l)
    t.mates;
  config

let inconsistency_count t =
  let count = ref 0 in
  Array.iteri
    (fun p l -> List.iter (fun q -> if not (listed t q p) then incr count) l)
    t.mates;
  !count

let messages_sent t = Net.sent t.net
let messages_lost t = Net.dropped t.net

let disorder_trajectory t ~stable ~horizon ~samples =
  if samples < 1 then invalid_arg "Async_dynamics.disorder_trajectory: need samples >= 1";
  let start = time t in
  let points = ref [ (0., Disorder.disorder (mutual_config t) ~stable) ] in
  for k = 1 to samples do
    let target = start +. (horizon *. float_of_int k /. float_of_int samples) in
    Engine.run_until (Net.engine t.net) ~time:target;
    points := (target -. start, Disorder.disorder (mutual_config t) ~stable) :: !points
  done;
  Series.make
    (Printf.sprintf "latency=%g" t.params.latency)
    (Array.of_list (List.rev !points))
