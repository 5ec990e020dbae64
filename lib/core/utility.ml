type t = Fn of (int -> int -> float)

let global_ranking ranking = Fn (fun _ q -> Ranking.score ranking q)
let of_function f = Fn f
let symmetric_distance dist = Fn (fun p q -> -.dist p q)

let blend (Fn a) (Fn b) ~alpha =
  if alpha < 0. || alpha > 1. then invalid_arg "Utility.blend: alpha must be in [0,1]";
  Fn (fun p q -> (alpha *. a p q) +. ((1. -. alpha) *. b p q))

let value (Fn f) p q = f p q

let is_symmetric (Fn f) ~n =
  let ok = ref true in
  for p = 0 to n - 1 do
    for q = p + 1 to n - 1 do
      if f p q <> f q p then ok := false
    done
  done;
  !ok

let preference_lists (Fn f) ~acceptance =
  Array.mapi
    (fun p row ->
      let sorted = Array.copy row in
      Array.sort
        (fun q1 q2 ->
          let c = Float.compare (f p q2) (f p q1) in
          if c <> 0 then c else Int.compare q1 q2)
        sorted;
      sorted)
    acceptance
