(* Discrete-event engine over packed int events.

   Events live in a structure-of-arrays slot store threaded by a free
   list: a float time and a non-negative int payload code, dispatched
   through the installed handler.  A binary heap ([Binq]) orders plain
   int slots by the total key (time, seq), so the pop order is a
   function of the schedule calls alone.

   The hot path is allocation-free in steady state: scheduling an event
   writes scalars into recycled slot arrays and the heap's arrays;
   firing one reads them back and calls the handler on the int code.
   Three non-flambda boxing traps shape the code: freshly computed
   floats must not cross function boundaries (the heap reads the event
   time from the shared [st] array instead of a float argument), the
   clock lives in an all-float record (a mutable float field in the
   main mixed record would box on every store), and float comparisons
   stay on locally loaded values.

   In front of the heap sits an in-order lane: a FIFO ring of slots
   for relative schedules that share one constant delay.  With the clock
   monotone and [seq] increasing, events scheduled at [now + L] arrive
   already sorted by (time, seq), so they need no heap insert and no
   sift.  A relative schedule joins the lane when its delay equals the
   lane's delay and its time is not before the lane tail's; an empty
   lane adopts a delay once two consecutive relative schedules share it
   (a lone random delay, such as a re-armed clock's, never claims it).
   Everything else — random delays, absolute schedules, restored queues
   — goes to the heap.  [pop_due] takes the lesser of the lane head
   and the heap minimum under (time, seq), through the heap's bounded
   pop, so the pop order is exactly the heap-only order (DESIGN.md §14).

   Every time and delay is checked finite on entry: [nan] and [inf]
   pass the [x < 0.] tests, and a non-finite key would silently
   reorder the heap. *)

(* All-float record: unboxed mutable cells for the simulated clock and
   the lane's claim state. *)
type clock = {
  mutable now_ : float;
  mutable lane_delay : float;  (* the delay lane entries share; nan until claimed *)
  mutable last_delay : float;  (* the previous relative schedule's delay *)
}

type t = {
  queue : Binq.t;
  clock : clock;
  (* slot store (structure of arrays) *)
  mutable st : float array; (* slot -> event time *)
  mutable sc : int array; (* slot -> packed code *)
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
}

let no_packed_handler (_ : t) (_ : int) =
  invalid_arg "Engine: packed event fired but no packed handler is installed"

(* Bumped when a [drain] call gives up because its event budget ran out —
   the signal that an event loop fed itself forever.  Callers (e.g.
   [Async_dynamics.quiesce]) surface it as an explicit non-convergence
   outcome; the counter makes it visible in run manifests too. *)
let drain_budget_exhausted = Stratify_obs.Counter.make "des.drain_budget_exhausted"

let create () =
  {
    queue = Binq.create ();
    clock = { now_ = 0.; lane_delay = nan; last_delay = nan };
    st = [||];
    sc = [||];
    sn = [||];
    free = -1;
    next_seq = 0;
    npending = 0;
    lslot = Array.make 16 0;
    lseq = Array.make 16 0;
    lhead = 0;
    llen = 0;
    packed = no_packed_handler;
  }

let now t = t.clock.now_
let pending t = t.npending
let set_packed_handler t f = t.packed <- f

(* [x -. x] is 0 for a finite [x], nan for nan and ±inf. *)
let[@inline] finite x = x -. x = 0.

let grow_slots t =
  let cap = Array.length t.sn in
  let cap' = max 16 (2 * cap) in
  let st = Array.make cap' 0. and sc = Array.make cap' (-1) and sn = Array.make cap' (-1) in
  Array.blit t.st 0 st 0 cap;
  Array.blit t.sc 0 sc 0 cap;
  Array.blit t.sn 0 sn 0 cap;
  for i = cap to cap' - 2 do
    sn.(i) <- i + 1
  done;
  sn.(cap' - 1) <- t.free;
  t.free <- cap;
  t.st <- st;
  t.sc <- sc;
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
   heap.  [delay] is the caller's own argument, already boxed, so
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
  if lane then lane_push t s seq else Binq.add t.queue t.st ~seq ~slot:s

let schedule_packed_at t ~time code =
  if code < 0 then invalid_arg "Engine.schedule_packed_at: negative event code";
  if not (finite time) then
    invalid_arg (Printf.sprintf "Engine.schedule_packed_at: time %g is not finite" time);
  if time < t.clock.now_ then
    invalid_arg
      (Printf.sprintf "Engine.schedule_packed_at: time %g is in the past (now %g)" time
         t.clock.now_);
  let s = alloc_slot t in
  t.st.(s) <- time;
  t.sc.(s) <- code;
  Binq.add t.queue t.st ~seq:(next_seq t) ~slot:s

let schedule_packed t ~delay code =
  if code < 0 then invalid_arg "Engine.schedule_packed: negative event code";
  if delay < 0. then
    invalid_arg (Printf.sprintf "Engine.schedule_packed: negative delay %g" delay);
  let time = t.clock.now_ +. delay in
  if not (finite time) then
    invalid_arg
      (Printf.sprintf "Engine.schedule_packed: delay %g gives a non-finite time (now %g)" delay
         t.clock.now_);
  let s = alloc_slot t in
  t.st.(s) <- time;
  t.sc.(s) <- code;
  enqueue_after t s delay

(* The least pending slot with time [<= max_time], or -1.  When the lane
   head is due, the heap gives up its minimum only if that orders
   before the head — one search per pop — and otherwise the head goes. *)
let[@inline] pop_due t max_time =
  if t.llen = 0 then Binq.pop_min t.queue ~max_time
  else begin
    let h = t.lslot.(t.lhead) in
    if t.st.(h) > max_time then Binq.pop_min t.queue ~max_time
    else begin
      let s = Binq.pop_before t.queue t.st ~slot:h ~seq:t.lseq.(t.lhead) in
      if s >= 0 then s
      else begin
        t.lhead <- (t.lhead + 1) land (Array.length t.lslot - 1);
        t.llen <- t.llen - 1;
        h
      end
    end
  end

(* Release slot [s] to the free list and return its code. *)
let[@inline] release t s =
  t.sn.(s) <- t.free;
  t.free <- s;
  t.npending <- t.npending - 1;
  t.sc.(s)

(* Fire slot [s]: advance the clock, release the slot, then dispatch. *)
let fire t s =
  let time = t.st.(s) in
  if time > t.clock.now_ then t.clock.now_ <- time;
  t.packed t (release t s)

let step t =
  let s = pop_due t infinity in
  if s < 0 then false
  else begin
    fire t s;
    true
  end

let run_until t ~time =
  if not (finite time) then
    invalid_arg (Printf.sprintf "Engine.run_until: time %g is not finite" time);
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
  Stratify_obs.Profile.stop "des.run_until" ~ops:!fired snap

(* Snapshot support (lib/serve): the pending queue as pure data.

   Popping every slot yields the canonical total (time, seq) order, so
   re-adding the entries in that order (with fresh, increasing seqs)
   reconstructs an equivalent queue: relative order among the dumped
   events is preserved, and events scheduled later always get larger
   seqs in both the original and the restored engine.  The dump is
   therefore non-destructive.  The rebuilt queue is all heap: draining
   empties the lane, and absolute schedules never join it. *)
let dump_packed t =
  let n = t.npending in
  let times = Array.make n 0. and codes = Array.make n 0 in
  for i = 0 to n - 1 do
    let s = pop_due t infinity in
    times.(i) <- t.st.(s);
    codes.(i) <- release t s
  done;
  for i = 0 to n - 1 do
    schedule_packed_at t ~time:times.(i) codes.(i)
  done;
  Array.init n (fun i -> (times.(i), codes.(i)))

let restore_packed ~now entries =
  if not (finite now) then
    invalid_arg (Printf.sprintf "Engine.restore_packed: clock %g is not finite" now);
  if now < 0. then
    invalid_arg (Printf.sprintf "Engine.restore_packed: negative clock %g" now);
  let t = create () in
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
  Stratify_obs.Profile.stop "des.drain" ~ops:(max_events - !budget) snap;
  drained
