(* Edge-indexed ledgers: [sent.(s).(k)] is the volume [s] sent to its
   [k]-th neighbour [c = rows.(s).(k)], and [back.(s).(k)] is the
   position of [s] in [c]'s row, so the reverse volume is
   [sent.(c).(back.(s).(k))] — two array reads, no lookup. *)
type t = { rows : int array array; sent : float array array; back : int array array }

let create rows =
  let n = Array.length rows in
  let bad () =
    invalid_arg "Credit.create: neighbour rows must be sorted, in range and symmetric"
  in
  (* With sorted, symmetric rows, visiting peers [s] in ascending order
     reaches each neighbour [c] in [c]'s own row order, so a per-row
     cursor yields the reverse index.  Every entry is checked, so any
     other input is rejected rather than mis-indexed. *)
  let cursor = Array.make n 0 in
  let back =
    Array.mapi
      (fun s row ->
        Array.map
          (fun c ->
            if c < 0 || c >= n || cursor.(c) >= Array.length rows.(c) then bad ();
            let k = cursor.(c) in
            if rows.(c).(k) <> s then bad ();
            cursor.(c) <- k + 1;
            k)
          row)
      rows
  in
  Array.iteri (fun c row -> if cursor.(c) <> Array.length row then bad ()) rows;
  { rows; sent = Array.map (fun row -> Array.make (Array.length row) 0.) rows; back }

let record_transfer t ~from_ ~k amount =
  if amount < 0. then invalid_arg "Credit.record_transfer: negative volume";
  let row = t.sent.(from_) in
  row.(k) <- row.(k) +. amount

let uploaded_to t ~judge ~k = t.sent.(t.rows.(judge).(k)).(t.back.(judge).(k))
let downloaded_from t ~judge ~k = t.sent.(judge).(k)

let[@inline] modifier t ~judge ~k =
  let u = uploaded_to t ~judge ~k in
  let d = downloaded_from t ~judge ~k in
  (* eMule: ratio rule only once real volume has flowed both ways; the
     sqrt rule caps newcomers' boost. *)
  let by_ratio = if d < 1. then infinity else 2. *. u /. d in
  let by_volume = sqrt (u +. 2.) in
  Float.max 1. (Float.min 10. (Float.min by_ratio by_volume))
