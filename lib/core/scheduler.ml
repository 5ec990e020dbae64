module Rng = Stratify_prng.Rng
module Obs = Stratify_obs

(* Worklist accounting (no-ops unless [Obs.Control.enabled]):
   "sched.pushes" counts peers entering the dirty set (deduplicated),
   "sched.pops" peers leaving it to attempt an initiative, "sched.hits"
   the pops whose initiative was active.  Together with "sim.steps" /
   "greedy.stable_config" these are what run manifests use to prove a
   churn run repaired incrementally instead of rebuilding. *)
let c_pushes = Obs.Counter.make "sched.pushes"
let c_pops = Obs.Counter.make "sched.pops"
let c_hits = Obs.Counter.make "sched.hits"

type policy = Random_poll | Worklist

let policy_name = function Random_poll -> "random" | Worklist -> "worklist"

let policy_of_string = function
  | "random" -> Some Random_poll
  | "worklist" -> Some Worklist
  | _ -> None

(* Rank-ordered dirty set: a word-packed bitset of queued peers plus a
   cursor below which no peer is queued.  [pop] returns the
   lowest-labelled dirty peer — under the identity ranking that is the
   best-ranked one, which makes the drain replay Theorem 1's
   constructive schedule (Algorithm 1's connection order): strata fill
   top-down, so almost no initiative is later undone, and the active
   count stays near the B/2 bound.  A FIFO drain converges too (any
   active order does) but measurably thrashes — on complete graphs its
   breadth-first cascade re-displaces every stratum O(n/b) times,
   ~n²/3 active initiatives at n=10⁴ against rank order's ~n·b/2.

   Membership test and dedup are one bit probe; push is O(1); pop scans
   forward from the cursor, 62 peers per word, and the cursor only
   rewinds on a push below it — drains dominated by cascade-local
   pushes stay effectively O(1) per operation. *)

let bits_per_word = 62

type t = {
  words : int array;  (* bit [p mod 62] of word [p / 62]: peer queued *)
  n : int;
  mutable count : int;
  mutable cursor : int;  (* no queued peer has label < cursor *)
}

let create ~n =
  if n < 0 then invalid_arg "Scheduler.create: negative size";
  let nw = (max 1 n + bits_per_word - 1) / bits_per_word in
  { words = Array.make nw 0; n; count = 0; cursor = 0 }

let length t = t.count
let is_empty t = t.count = 0

let mem t p = (t.words.(p / bits_per_word) lsr (p mod bits_per_word)) land 1 = 1

let push t p =
  if p < 0 || p >= t.n then invalid_arg "Scheduler.push: peer out of range";
  let w = p / bits_per_word and m = 1 lsl (p mod bits_per_word) in
  if t.words.(w) land m = 0 then begin
    t.words.(w) <- t.words.(w) lor m;
    t.count <- t.count + 1;
    if p < t.cursor then t.cursor <- p;
    Obs.Counter.incr c_pushes
  end

(* Index of the lowest set bit of a non-zero word, by binary descent on
   the isolated bit. *)
let lowest_bit_index w =
  let w = ref (w land -w) and i = ref 0 in
  if !w land 0xFFFFFFFF = 0 then begin i := !i + 32; w := !w lsr 32 end;
  if !w land 0xFFFF = 0 then begin i := !i + 16; w := !w lsr 16 end;
  if !w land 0xFF = 0 then begin i := !i + 8; w := !w lsr 8 end;
  if !w land 0xF = 0 then begin i := !i + 4; w := !w lsr 4 end;
  if !w land 0x3 = 0 then begin i := !i + 2; w := !w lsr 2 end;
  if !w land 0x1 = 0 then incr i;
  !i

(* Option-free pop: [-1] when the set is empty.  [pop] boxes the result
   for option-shaped callers; the drain below and [Sim]'s worklist step
   use this directly so a steady-state pop allocates nothing. *)
let pop_int t =
  if t.count = 0 then -1
  else begin
    (* count > 0 and the cursor invariant imply a set bit at >= cursor,
       so the scan stays in bounds. *)
    let w = ref (t.cursor / bits_per_word) in
    let masked = t.words.(!w) land (-1 lsl (t.cursor mod bits_per_word)) in
    let word = ref masked in
    while !word = 0 do
      incr w;
      word := t.words.(!w)
    done;
    let b = lowest_bit_index !word in
    let p = (!w * bits_per_word) + b in
    t.words.(!w) <- t.words.(!w) land lnot (1 lsl b);
    t.count <- t.count - 1;
    t.cursor <- p + 1;
    Obs.Counter.incr c_pops;
    p
  end

let pop t =
  let p = pop_int t in
  if p < 0 then None else Some p

let clear t =
  Array.fill t.words 0 (Array.length t.words) 0;
  t.count <- 0;
  t.cursor <- 0

let seed_all t =
  clear t;
  for p = 0 to t.n - 1 do
    let w = p / bits_per_word in
    t.words.(w) <- t.words.(w) lor (1 lsl (p mod bits_per_word))
  done;
  t.count <- t.n;
  Obs.Counter.add c_pushes t.n

(* Drain to quiescence.  The activation invariant (DESIGN.md §9): every
   blocking pair keeps at least one endpoint in the dirty set, because a
   pair's blocking status depends only on its endpoints' mate lists and
   [Initiative.perform] reports every peer whose list changed through
   [on_rewire] — so each state change re-queues exactly the peers whose
   pairs it may newly activate.  A popped peer leaves only after
   [find_mate_int] returned [-1], i.e. no pair involving it blocks, so an
   empty set certifies stability.  Termination is Theorem 1: every
   performed initiative is active, and active sequences are finite. *)
let drain ?on_rewire t config state strategy rng =
  (* One closure per drain call, shared by every pop — the per-initiative
     path below is option-free and allocates nothing. *)
  let note =
    match on_rewire with
    | None -> fun p -> push t p
    | Some f ->
        fun p ->
          push t p;
          f p
  in
  let actives = ref 0 and pops = ref 0 in
  let rec go () =
    let p = pop_int t in
    if p >= 0 then begin
      incr pops;
      if Initiative.attempt_hook config state strategy rng p ~note then begin
        incr actives;
        Obs.Counter.incr c_hits
      end;
      go ()
    end
  in
  go ();
  (!actives, !pops)

let note_hit () = Obs.Counter.incr c_hits
