let share_ratios swarm =
  Array.init (Swarm.size swarm) (fun i ->
      let up = Swarm.uploaded swarm i in
      if up <= 0. then 0. else Swarm.downloaded swarm i /. up)

let mean_partner_capacity swarm =
  Array.init (Swarm.size swarm) (fun i ->
      match Swarm.unchoked swarm i with
      | [] -> 0.
      | partners ->
          let total =
            List.fold_left (fun acc q -> acc +. Swarm.upload_capacity swarm q) 0. partners
          in
          total /. float_of_int (List.length partners))

let pearson pairs =
  match pairs with
  | [] | [ _ ] -> 0.
  | _ ->
      let n = float_of_int (List.length pairs) in
      let sx = List.fold_left (fun a (x, _) -> a +. x) 0. pairs /. n in
      let sy = List.fold_left (fun a (_, y) -> a +. y) 0. pairs /. n in
      let cov, vx, vy =
        List.fold_left
          (fun (c, vx, vy) (x, y) ->
            let dx = x -. sx and dy = y -. sy in
            (c +. (dx *. dy), vx +. (dx *. dx), vy +. (dy *. dy)))
          (0., 0., 0.) pairs
      in
      if vx <= 0. || vy <= 0. then 0. else cov /. sqrt (vx *. vy)

let stratification_correlation swarm =
  let partner_caps = mean_partner_capacity swarm in
  let pairs = ref [] in
  for i = 0 to Swarm.size swarm - 1 do
    if Swarm.unchoked swarm i <> [] then
      pairs := (log (Swarm.upload_capacity swarm i), log partner_caps.(i)) :: !pairs
  done;
  pearson !pairs

let reciprocity swarm =
  let edges = ref 0 and mutual = ref 0 in
  for i = 0 to Swarm.size swarm - 1 do
    List.iter
      (fun q ->
        incr edges;
        if List.mem i (Swarm.unchoked swarm q) then incr mutual)
      (Swarm.unchoked swarm i)
  done;
  if !edges = 0 then 0. else float_of_int !mutual /. float_of_int !edges

let mean_partner_rank_offset swarm ~ranks =
  if Array.length ranks <> Swarm.size swarm then
    invalid_arg "Metrics.mean_partner_rank_offset: rank array size mismatch";
  let total = ref 0 and edges = ref 0 in
  for i = 0 to Swarm.size swarm - 1 do
    List.iter
      (fun q ->
        incr edges;
        total := !total + abs (ranks.(i) - ranks.(q)))
      (Swarm.unchoked swarm i)
  done;
  if !edges = 0 then 0. else float_of_int !total /. float_of_int !edges

let tft_share_ratios swarm =
  Array.init (Swarm.size swarm) (fun i ->
      let up = Swarm.uploaded_tft swarm i in
      if up <= 0. then 0. else Swarm.downloaded_tft swarm i /. up)
