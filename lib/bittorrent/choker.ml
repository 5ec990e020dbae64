module Rng = Stratify_prng.Rng

(* [rates], [tags] and [ids] hold the ranked offers [0 .. count-1]. *)
type t = {
  rates : float array;
  tags : int array;
  ids : int array;
  mutable slots : int;
  mutable count : int;
  mutable optimistic : int;
  mutable optimistic_offered : bool;
}

let create ~slots =
  let cap = Int.max 0 slots in
  {
    rates = Array.make cap 0.;
    tags = Array.make cap 0;
    ids = Array.make cap 0;
    slots = 0;
    count = 0;
    optimistic = -1;
    optimistic_offered = false;
  }

let start t ~slots ~optimistic =
  if slots > Array.length t.ids then
    invalid_arg
      (Printf.sprintf "Choker.start: %d slots, buffer holds %d" slots (Array.length t.ids));
  t.slots <- Int.max 0 slots;
  t.count <- 0;
  t.optimistic <- optimistic;
  t.optimistic_offered <- false

(* The ranked offers are sorted, so the entries a new offer goes in front
   of (strictly lower rate, or equal rate and a greater tag) form a
   suffix: walk back over it and insert there, after every equal key. *)
let[@inline] offer t rate tag id =
  if id = t.optimistic then t.optimistic_offered <- true;
  let j = ref t.count in
  while
    !j > 0
    &&
    let c = Float.compare rate t.rates.(!j - 1) in
    c > 0 || (c = 0 && tag < t.tags.(!j - 1))
  do
    decr j
  done;
  if !j < t.slots then begin
    let last = if t.count < t.slots then t.count else t.slots - 1 in
    for k = last downto !j + 1 do
      t.rates.(k) <- t.rates.(k - 1);
      t.tags.(k) <- t.tags.(k - 1);
      t.ids.(k) <- t.ids.(k - 1)
    done;
    t.rates.(!j) <- rate;
    t.tags.(!j) <- tag;
    t.ids.(!j) <- id;
    if t.count < t.slots then t.count <- t.count + 1
  end

let count t = t.count
let nth t k = t.ids.(k)

let optimistic t =
  if not t.optimistic_offered then -1
  else begin
    let k = ref 0 in
    while !k < t.count && t.ids.(!k) <> t.optimistic do
      incr k
    done;
    if !k < t.count then -1 else t.optimistic
  end

let rotate rng eligible k = if k = 0 then -1 else eligible.(Rng.int rng k)
