module Rng = Stratify_prng.Rng
module Obs = Stratify_obs

(* Observability (no-ops unless [Obs.Control.enabled]): every performed
   initiative is by definition active, so "initiative.performed" is the
   counted-initiative total that Theorem 1's B/2 bound talks about. *)
let c_performed = Obs.Counter.make "initiative.performed"
let c_rewires = Obs.Counter.make "initiative.rewires"

type strategy = Best_mate | Decremental | Random

let strategy_name = function
  | Best_mate -> "best-mate"
  | Decremental -> "decremental"
  | Random -> "random"

type state = { cursor : int array }

let create_state inst = { cursor = Array.make (Instance.n inst) 0 }

(* Shared do-nothing rewire hook: callers without an [on_rewire] pass
   this instead of wrapping a closure in [Some] per attempt — the
   steady-state loop performs millions of attempts and must not box an
   option (or a fresh closure) on each. *)
let no_note (_ : int) = ()

(* The blocking mate's rank, or [-1].  The three strategies' scans are
   already sentinel-based in [Blocking]. *)
let find_mate_int config state strategy rng p =
  match strategy with
  | Best_mate -> Blocking.best_blocking_mate_int config p
  | Decremental -> Blocking.blocking_mate_cursor config p state.cursor
  | Random ->
      let inst = Config.instance config in
      let len = Instance.degree inst p in
      if len = 0 then -1
      else begin
        let q = Instance.acceptable_at inst p (Rng.int rng len) in
        if Blocking.is_blocking config p q then q else -1
      end

(* Non-optional-hook form of [perform]: drops are sentinel ints, the
   hook is always a function ([no_note] when absent), so an active
   initiative rewires without allocating.  Counter values are identical
   to the historical option-based form: rewires = 2 principals + one per
   actually-dropped mate. *)
let perform_hook config ~note p q =
  if not (Blocking.is_blocking config p q) then
    invalid_arg "Initiative.perform: pair does not block";
  let dropped_p =
    if Config.free_slots config p <= 0 then Config.drop_worst_rank config p else -1
  in
  let dropped_q =
    if Config.free_slots config q <= 0 then Config.drop_worst_rank config q else -1
  in
  Config.connect config p q;
  Obs.Counter.incr c_performed;
  Obs.Counter.add c_rewires
    (2 + (if dropped_p >= 0 then 1 else 0) + if dropped_q >= 0 then 1 else 0);
  if dropped_p >= 0 then note dropped_p;
  if dropped_q >= 0 then note dropped_q;
  note p;
  note q

let perform ?on_rewire config p q =
  let note = match on_rewire with None -> no_note | Some f -> f in
  perform_hook config ~note p q

let attempt_hook config state strategy rng p ~note =
  let q = find_mate_int config state strategy rng p in
  q >= 0
  && begin
       perform_hook config ~note p q;
       true
     end

let attempt ?on_rewire config state strategy rng p =
  let note = match on_rewire with None -> no_note | Some f -> f in
  attempt_hook config state strategy rng p ~note
