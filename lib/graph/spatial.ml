module Rng = Stratify_prng.Rng

type positions = (float * float) array

let random_positions rng ~n =
  Array.init n (fun _ ->
      let x = Rng.unit_float rng in
      let y = Rng.unit_float rng in
      (x, y))

let distance pos i j =
  let xi, yi = pos.(i) and xj, yj = pos.(j) in
  let dx = xi -. xj and dy = yi -. yj in
  sqrt ((dx *. dx) +. (dy *. dy))
