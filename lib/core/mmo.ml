let of_adjacency adj =
  let n = Array.length adj in
  if n = 0 then 0.
  else begin
    let total = ref 0 in
    for peer = 0 to n - 1 do
      let mates = adj.(peer) and worst = ref 0 in
      for i = 0 to Array.length mates - 1 do
        worst := Int.max !worst (abs (mates.(i) - peer))
      done;
      total := !total + !worst
    done;
    float_of_int !total /. float_of_int n
  end

(* A segment is sorted, so a peer's furthest mate is its first or its
   last: two loads per peer instead of a walk of the row. *)
let of_config c =
  let off = Config.raw_off c and deg = Config.raw_deg c and data = Config.raw_data c in
  let n = Array.length deg in
  if n = 0 then 0.
  else begin
    let total = ref 0 in
    for peer = 0 to n - 1 do
      let d = deg.(peer) in
      if d > 0 then begin
        let base = off.(peer) in
        total :=
          !total + Int.max (abs (data.(base) - peer)) (abs (data.(base + d - 1) - peer))
      end
    done;
    float_of_int !total /. float_of_int n
  end

let closed_form b0 =
  if b0 <= 0 then 0.
  else begin
    let k = b0 + 1 in
    let total = ref 0 in
    for i = 1 to k do
      total := !total + Int.max (i - 1) (k - i)
    done;
    float_of_int !total /. float_of_int k
  end

let asymptote b0 = 0.75 *. float_of_int b0
