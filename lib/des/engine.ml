(* Discrete-event engine over pluggable queue backends.

   Events live in a structure-of-arrays slot store threaded by a free
   list: a float time, an int payload code, and (only for legacy
   closure events) a callback.  The queue backends (Binq / Calq / Ladq)
   order plain int slots by the total key (time, seq), so every backend
   pops the identical sequence and `--queue` never changes results —
   the same invariance discipline as `--jobs` and `--bands`.

   The hot path is allocation-free in steady state: scheduling a packed
   event writes scalars into recycled slot arrays and backend pools;
   firing one reads them back and dispatches on the int code through
   the installed handler.  Three non-flambda boxing traps shape the
   code: freshly computed floats must not cross function boundaries
   (backends read the event time from the shared [st] array instead of
   a float argument), the clock lives in an all-float record (a mutable
   float field in the main mixed record would box on every store), and
   float comparisons stay on locally loaded values.

   In front of the backend sits an in-order lane: a FIFO ring of slots
   for relative schedules that share one constant delay.  With the clock
   monotone and [seq] increasing, events scheduled at [now + L] arrive
   already sorted by (time, seq), so they need no heap insert and no
   sift.  A relative schedule joins the lane when its delay equals the
   lane's delay and its time is not before the lane tail's; an empty
   lane adopts a delay once two consecutive relative schedules share it
   (a lone random delay, such as a re-armed clock's, never claims it).
   Everything else — random delays, absolute schedules, restored queues
   — goes to the backend.  [pop_due] takes the lesser of the lane head
   and the backend minimum under (time, seq), through the backend's
   bounded pop, so the pop order is exactly the backend-only order
   (DESIGN.md §14).

   Closure events still allocate their closure (by nature) but release
   it eagerly: the slot's [sf] cell is reset to a shared null function
   the moment the event fires, so fired callbacks never linger in the
   pool. *)

type backend = Heap | Calendar | Ladder

let backends = [ Heap; Calendar; Ladder ]
let backend_name = function Heap -> "heap" | Calendar -> "calendar" | Ladder -> "ladder"

let backend_of_string = function
  | "heap" -> Some Heap
  | "calendar" -> Some Calendar
  | "ladder" -> Some Ladder
  | _ -> None

(* The process-wide default, set once from `--queue` by the CLI drivers
   so every engine created behind Net / Async_dynamics / Plan picks it
   up without threading a parameter through each constructor. *)
let default = Atomic.make Heap
let set_default_backend b = Atomic.set default b
let default_backend () = Atomic.get default

type queue = Qh of Binq.t | Qc of Calq.t | Ql of Ladq.t

(* All-float record: unboxed mutable cells for the simulated clock and
   the lane's claim state. *)
type clock = {
  mutable now_ : float;
  mutable lane_delay : float;  (* the delay lane entries share; nan until claimed *)
  mutable last_delay : float;  (* the previous relative schedule's delay *)
}

type t = {
  mutable queue : queue;
      (* replaced wholesale by [dump_packed]: a drained backend queue's
         pop cursor sits past every pending time, so rebuilding must
         start from a fresh queue *)
  clock : clock;
  (* slot store (structure of arrays) *)
  mutable st : float array; (* slot -> event time *)
  mutable sc : int array; (* slot -> packed code, -1 for closure events *)
  mutable sf : (t -> unit) array; (* slot -> callback (null_fn when unused) *)
  mutable sn : int array; (* free-list links *)
  mutable free : int;
  mutable next_seq : int;
  mutable npending : int;
  (* the in-order lane: a ring of (slot, seq), capacity a power of two *)
  mutable lslot : int array;
  mutable lseq : int array;
  mutable lhead : int;
  mutable llen : int;
  mutable packed : t -> int -> unit;
  (* profile row names, precomputed so instrumentation never builds strings *)
  drain_kernel : string;
  run_kernel : string;
}

let null_fn : t -> unit = fun _ -> ()

let no_packed_handler (_ : t) (_ : int) =
  invalid_arg "Engine: packed event fired but no packed handler is installed"

(* Bumped when a [drain] call gives up because its event budget ran out —
   the signal that an event loop fed itself forever.  Callers (e.g.
   [Async_dynamics.quiesce]) surface it as an explicit non-convergence
   outcome; the counter makes it visible in run manifests too. *)
let drain_budget_exhausted = Stratify_obs.Counter.make "des.drain_budget_exhausted"

let create ?backend () =
  let backend = match backend with Some b -> b | None -> Atomic.get default in
  let queue =
    match backend with
    | Heap -> Qh (Binq.create ())
    | Calendar -> Qc (Calq.create ())
    | Ladder -> Ql (Ladq.create ())
  in
  let name = backend_name backend in
  {
    queue;
    clock = { now_ = 0.; lane_delay = nan; last_delay = nan };
    st = [||];
    sc = [||];
    sf = [||];
    sn = [||];
    free = -1;
    next_seq = 0;
    npending = 0;
    lslot = Array.make 16 0;
    lseq = Array.make 16 0;
    lhead = 0;
    llen = 0;
    packed = no_packed_handler;
    drain_kernel = "des.drain." ^ name;
    run_kernel = "des.run_until." ^ name;
  }

let backend t = match t.queue with Qh _ -> Heap | Qc _ -> Calendar | Ql _ -> Ladder
let now t = t.clock.now_
let pending t = t.npending
let set_packed_handler t f = t.packed <- f

let grow_slots t =
  let cap = Array.length t.sn in
  let cap' = max 16 (2 * cap) in
  let st = Array.make cap' 0.
  and sc = Array.make cap' (-1)
  and sf = Array.make cap' null_fn
  and sn = Array.make cap' (-1) in
  Array.blit t.st 0 st 0 cap;
  Array.blit t.sc 0 sc 0 cap;
  Array.blit t.sf 0 sf 0 cap;
  Array.blit t.sn 0 sn 0 cap;
  for i = cap to cap' - 2 do
    sn.(i) <- i + 1
  done;
  sn.(cap' - 1) <- t.free;
  t.free <- cap;
  t.st <- st;
  t.sc <- sc;
  t.sf <- sf;
  t.sn <- sn

let[@inline] alloc_slot t =
  if t.free = -1 then grow_slots t;
  let s = t.free in
  t.free <- t.sn.(s);
  s

let[@inline] next_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.npending <- t.npending + 1;
  seq

let[@inline] backend_add t s seq =
  match t.queue with
  | Qh q -> Binq.add q t.st ~seq ~slot:s
  | Qc q -> Calq.add q t.st ~seq ~slot:s
  | Ql q -> Ladq.add q t.st ~seq ~slot:s

(* An absolute schedule: always the backend. *)
let[@inline] enqueue t s = backend_add t s (next_seq t)

let grow_lane t =
  let cap = Array.length t.lslot in
  let lslot = Array.make (2 * cap) 0 and lseq = Array.make (2 * cap) 0 in
  for i = 0 to t.llen - 1 do
    let j = (t.lhead + i) land (cap - 1) in
    lslot.(i) <- t.lslot.(j);
    lseq.(i) <- t.lseq.(j)
  done;
  t.lslot <- lslot;
  t.lseq <- lseq;
  t.lhead <- 0

let lane_push t s seq =
  if t.llen = Array.length t.lslot then grow_lane t;
  let i = (t.lhead + t.llen) land (Array.length t.lslot - 1) in
  t.lslot.(i) <- s;
  t.lseq.(i) <- seq;
  t.llen <- t.llen + 1

(* A relative schedule of slot [s], its time already in [st]: the lane
   if [delay] is the lane's (or, on an empty lane, repeats the previous
   relative delay) and the time keeps the lane sorted, else the
   backend.  [delay] is the caller's own argument, already boxed, so
   passing it on allocates nothing. *)
let enqueue_after t s delay =
  let seq = next_seq t in
  let c = t.clock in
  let lane =
    if t.llen > 0 then
      delay = c.lane_delay
      && t.st.(s) >= t.st.(t.lslot.((t.lhead + t.llen - 1) land (Array.length t.lslot - 1)))
    else if delay = c.lane_delay then true
    else if delay = c.last_delay then begin
      c.lane_delay <- delay;
      true
    end
    else false
  in
  c.last_delay <- delay;
  if lane then lane_push t s seq else backend_add t s seq

let schedule_at t ~time f =
  if time < t.clock.now_ then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is in the past (now %g)" time
         t.clock.now_);
  let s = alloc_slot t in
  t.st.(s) <- time;
  t.sc.(s) <- -1;
  t.sf.(s) <- f;
  enqueue t s

let schedule t ~delay f =
  if delay < 0. then
    invalid_arg (Printf.sprintf "Engine.schedule: negative delay %g" delay);
  let s = alloc_slot t in
  t.st.(s) <- t.clock.now_ +. delay;
  t.sc.(s) <- -1;
  t.sf.(s) <- f;
  enqueue_after t s delay

let schedule_packed_at t ~time code =
  if code < 0 then invalid_arg "Engine.schedule_packed_at: negative event code";
  if time < t.clock.now_ then
    invalid_arg
      (Printf.sprintf "Engine.schedule_packed_at: time %g is in the past (now %g)" time
         t.clock.now_);
  let s = alloc_slot t in
  t.st.(s) <- time;
  t.sc.(s) <- code;
  enqueue t s

let schedule_packed t ~delay code =
  if code < 0 then invalid_arg "Engine.schedule_packed: negative event code";
  if delay < 0. then
    invalid_arg (Printf.sprintf "Engine.schedule_packed: negative delay %g" delay);
  let s = alloc_slot t in
  t.st.(s) <- t.clock.now_ +. delay;
  t.sc.(s) <- code;
  enqueue_after t s delay

let[@inline] backend_pop t max_time =
  match t.queue with
  | Qh q -> Binq.pop_min q ~max_time
  | Qc q -> Calq.pop_min q ~max_time
  | Ql q -> Ladq.pop_min q ~max_time

(* The least pending slot with time [<= max_time], or -1.  When the lane
   head is due, the backend gives up its minimum only if that orders
   before the head — one search per pop — and otherwise the head goes. *)
let[@inline] pop_due t max_time =
  if t.llen = 0 then backend_pop t max_time
  else begin
    let h = t.lslot.(t.lhead) in
    if t.st.(h) > max_time then backend_pop t max_time
    else begin
      let seq = t.lseq.(t.lhead) in
      let s =
        match t.queue with
        | Qh q -> Binq.pop_before q t.st ~slot:h ~seq
        | Qc q -> Calq.pop_before q t.st ~slot:h ~seq
        | Ql q -> Ladq.pop_before q t.st ~slot:h ~seq
      in
      if s >= 0 then s
      else begin
        t.lhead <- (t.lhead + 1) land (Array.length t.lslot - 1);
        t.llen <- t.llen - 1;
        h
      end
    end
  end

(* Fire slot [s]: advance the clock, release the slot (the callback cell
   is nulled so the pool never pins a fired closure), then dispatch. *)
let fire t s =
  let time = t.st.(s) in
  if time > t.clock.now_ then t.clock.now_ <- time;
  let code = t.sc.(s) in
  let f = t.sf.(s) in
  t.sf.(s) <- null_fn;
  t.sn.(s) <- t.free;
  t.free <- s;
  t.npending <- t.npending - 1;
  if code >= 0 then t.packed t code else f t

let step t =
  let s = pop_due t infinity in
  if s < 0 then false
  else begin
    fire t s;
    true
  end

let run_until t ~time =
  if time < t.clock.now_ then
    invalid_arg
      (Printf.sprintf "Engine.run_until: time %g is in the past (now %g)" time
         t.clock.now_);
  let snap = Stratify_obs.Profile.start () in
  let fired = ref 0 in
  let continue = ref true in
  while !continue do
    let s = pop_due t time in
    if s < 0 then continue := false
    else begin
      fire t s;
      incr fired
    end
  done;
  t.clock.now_ <- time;
  Stratify_obs.Profile.stop t.run_kernel ~ops:!fired snap

(* Snapshot support (lib/serve): the pending queue as pure data.

   Popping every slot yields the canonical total (time, seq) order — the
   one order every backend agrees on — so re-adding the entries in that
   order (with fresh, increasing seqs) reconstructs an equivalent queue:
   relative order among the dumped events is preserved, and events
   scheduled later always get larger seqs in both the original and the
   restored engine.  The dump is therefore non-destructive, and its
   output is backend-independent.  The rebuilt queue is all backend:
   draining empties the lane, and absolute schedules never join it. *)
let dump_packed t =
  let n = t.npending in
  let times = Array.make n 0.
  and codes = Array.make n (-1)
  and fns = Array.make n null_fn in
  for i = 0 to n - 1 do
    let s = pop_due t infinity in
    times.(i) <- t.st.(s);
    codes.(i) <- t.sc.(s);
    fns.(i) <- t.sf.(s);
    t.sf.(s) <- null_fn;
    t.sn.(s) <- t.free;
    t.free <- s;
    t.npending <- t.npending - 1
  done;
  (* Rebuild the queue before deciding whether to raise, so a failed dump
     leaves the engine exactly as it found it.  The drained backend queue
     is replaced with a fresh one first: draining moved its pop cursor
     (calendar [g.last], ladder rung state) past the maximum pending
     time, and re-inserting earlier events behind a committed cursor
     breaks the backends' "inserts never predate the last removal"
     invariant — events would sit unreachable until the clock caught up
     with the cursor, silently reordering pops. *)
  (match t.queue with
  | Qh _ -> t.queue <- Qh (Binq.create ())
  | Qc _ -> t.queue <- Qc (Calq.create ())
  | Ql _ -> t.queue <- Ql (Ladq.create ()));
  let closures = ref 0 in
  for i = 0 to n - 1 do
    if codes.(i) >= 0 then schedule_packed_at t ~time:times.(i) codes.(i)
    else begin
      incr closures;
      schedule_at t ~time:times.(i) fns.(i)
    end
  done;
  if !closures > 0 then
    invalid_arg
      (Printf.sprintf
         "Engine.dump_packed: queue holds %d closure event(s) — only packed (defunctionalized) \
          events are serializable"
         !closures);
  Array.init n (fun i -> (times.(i), codes.(i)))

let restore_packed ?backend ~now entries =
  if now < 0. then
    invalid_arg (Printf.sprintf "Engine.restore_packed: negative clock %g" now);
  let t = create ?backend () in
  t.clock.now_ <- now;
  Array.iter (fun (time, code) -> schedule_packed_at t ~time code) entries;
  t

let drain ?(max_events = 10_000_000) t =
  let snap = Stratify_obs.Profile.start () in
  let budget = ref max_events in
  while !budget > 0 && step t do
    decr budget
  done;
  let drained = t.npending = 0 in
  if not drained then Stratify_obs.Counter.incr drain_budget_exhausted;
  Stratify_obs.Profile.stop t.drain_kernel ~ops:(max_events - !budget) snap;
  drained
