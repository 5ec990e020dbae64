(* The identity ranking is the default of every instance constructor,
   so it stores nothing: its size alone answers every accessor.  A
   scored permutation keeps the original scores and both directions of
   the permutation. *)
type t =
  | Identity of int
  | Scored of {
      score : float array;
      rank_of : int array;  (* peer id -> rank, 0 = best *)
      peer_at : int array;  (* rank -> peer id *)
      identity : bool;
    }

exception Ties of int * int

let of_scores score =
  let n = Array.length score in
  (* [nan = nan] is false, so a NaN would slip past the tie check below
     and land at an arbitrary rank. *)
  Array.iteri
    (fun p s ->
      if Float.is_nan s then
        invalid_arg (Printf.sprintf "Ranking.of_scores: peer %d has a NaN score" p))
    score;
  let peer_at = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = Float.compare score.(b) score.(a) in
      if c <> 0 then c else Int.compare a b)
    peer_at;
  (* Detect ties between rank-adjacent peers (sorting makes adjacency
     sufficient). *)
  for r = 0 to n - 2 do
    if score.(peer_at.(r)) = score.(peer_at.(r + 1)) then
      raise (Ties (peer_at.(r), peer_at.(r + 1)))
  done;
  let rank_of = Array.make n 0 in
  Array.iteri (fun r p -> rank_of.(p) <- r) peer_at;
  let identity = Array.for_all (fun p -> rank_of.(p) = p) (Array.init n (fun i -> i)) in
  Scored { score = Array.copy score; rank_of; peer_at; identity }

let identity n =
  if n < 0 then invalid_arg (Printf.sprintf "Ranking.identity: negative size %d" n);
  Identity n

let size = function Identity n -> n | Scored s -> Array.length s.rank_of

(* The identity checks its index itself, so both forms raise
   [Invalid_argument] outside the population, as array reads do. *)
let in_range n what i =
  if i < 0 || i >= n then invalid_arg (Printf.sprintf "Ranking.%s: %d outside [0, %d)" what i n);
  i

let rank t p = match t with Identity n -> in_range n "rank" p | Scored s -> s.rank_of.(p)
let peer_at t r = match t with Identity n -> in_range n "peer_at" r | Scored s -> s.peer_at.(r)

let score t p =
  match t with Identity n -> float_of_int (-in_range n "score" p) | Scored s -> s.score.(p)

let prefers t p q = rank t p < rank t q
let compare_peers t p q = Int.compare (rank t p) (rank t q)
let is_identity = function Identity _ -> true | Scored s -> s.identity
