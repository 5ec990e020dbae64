type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* Inlined so that a caller's [Int64] intermediates stay unboxed: Net.Tick's
   per-link loss draw hashes two [mix]es per link and tick. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = seed }

let next t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let copy t = { state = t.state }
