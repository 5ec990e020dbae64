type t = Xoshiro256.t

let create seed = Xoshiro256.create (Splitmix64.mix (Int64.of_int seed))

let split t =
  let child = Xoshiro256.copy t in
  Xoshiro256.jump child;
  (* Advance the parent past the child's substream origin as well, so a
     second split does not reuse it. *)
  Xoshiro256.jump t;
  Xoshiro256.jump t;
  child

let copy = Xoshiro256.copy
let state = Xoshiro256.state
let of_state = Xoshiro256.of_state
let set_state = Xoshiro256.set_state

(* Every draw below calls [Xoshiro256.next] itself rather than [int64]:
   inlined, the 64-bit word never leaves registers, so only the result
   (and for floats, its box) costs anything. *)
let int64 t = Xoshiro256.next t

let[@inline] bits30 t = Int64.to_int (Int64.shift_right_logical (Xoshiro256.next t) 34)

let rec int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive"
  else if bound <= 1 lsl 30 then begin
    (* Rejection sampling on 30 bits to avoid modulo bias. *)
    let mask_bits = bits30 t in
    let r = mask_bits mod bound in
    if mask_bits - r + (bound - 1) < 1 lsl 30 then r else int t bound
  end
  else begin
    (* Large bound: use 62 bits. *)
    let r = Int64.to_int (Int64.shift_right_logical (Xoshiro256.next t) 2) in
    let v = r mod bound in
    if r - v + (bound - 1) >= 0 then v else int t bound
  end

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let[@inline] unit_float t =
  (* 53 high bits of the 64-bit output, scaled to [0,1). *)
  Int64.to_float (Int64.shift_right_logical (Xoshiro256.next t) 11) *. 0x1.0p-53

let float t bound = unit_float t *. bound

let bool t = Int64.compare (Xoshiro256.next t) 0L < 0

let bernoulli t p = unit_float t < p
