module Rng = Stratify_prng.Rng

type point = {
  sigma : float;
  mean_cluster_size : float;
  largest_cluster : float;
  mmo : float;
}

let measure ?(jobs = 1) ?(bands = 1) rng ~n ~mean_b ~sigma ~replicates =
  if replicates <= 0 then invalid_arg "Phase.measure: need replicates > 0";
  let size_acc = ref 0. and largest_acc = ref 0. and mmo_acc = ref 0. in
  for _ = 1 to replicates do
    let b =
      if sigma <= 0. then Normal_b.constant ~n ~b0:(int_of_float (Float.round mean_b))
      else Normal_b.rounded_normal rng ~n ~mean:mean_b ~sigma
    in
    let config = Cluster.stable_config ~jobs ~bands ~b () in
    let analysis = Cluster.analyze_config config in
    size_acc := !size_acc +. analysis.Cluster.mean_size;
    largest_acc := !largest_acc +. float_of_int analysis.Cluster.largest;
    mmo_acc := !mmo_acc +. Mmo.of_config config
  done;
  let r = float_of_int replicates in
  {
    sigma;
    mean_cluster_size = !size_acc /. r;
    largest_cluster = !largest_acc /. r;
    mmo = !mmo_acc /. r;
  }

let sweep ?(jobs = 1) ?(bands = 1) rng ~n ~mean_b ~sigmas ~replicates =
  Array.map (fun sigma -> measure ~jobs ~bands rng ~n ~mean_b ~sigma ~replicates) sigmas

let transition_sigma points ~threshold =
  match Array.to_list points with
  | [] -> None
  | base :: _ ->
      let limit = threshold *. base.mean_cluster_size in
      Array.fold_left
        (fun acc p ->
          match acc with
          | Some _ -> acc
          | None -> if p.mean_cluster_size > limit then Some p.sigma else None)
        None points
