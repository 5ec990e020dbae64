module Profile = Stratify_bandwidth.Profile

type analysis = {
  population_b0 : int;
  deviations : (float * int * float * float) array;
  is_equilibrium : bool;
}

let symmetric_profile_analysis ~n ~d ~profile ~population_b0 ~candidates
    ?(probes = [| 0.1; 0.25; 0.5; 0.75; 0.9 |]) ?(tolerance = 0.05) () =
  if not (Array.exists (fun s -> s = population_b0) candidates) then
    invalid_arg "Nash.symmetric_profile_analysis: candidates must include population_b0";
  let deviations =
    Array.map
      (fun quantile ->
        let my_upload = Profile.quantile profile quantile in
        let sweep =
          Share_ratio.sweep_slots ~population_b0 ~n ~d ~profile ~my_upload ~slots:candidates ()
        in
        let status_quo =
          snd (Array.get sweep (Option.get (Array.find_index (fun (s, _) -> s = population_b0) sweep)))
        in
        let best_s, best_ratio =
          Array.fold_left
            (fun ((_, br) as best) (s, r) -> if r > br then (s, r) else best)
            (population_b0, status_quo) sweep
        in
        (my_upload, best_s, status_quo, best_ratio))
      probes
  in
  let is_equilibrium =
    Array.for_all
      (fun (_, _, status_quo, best_ratio) ->
        best_ratio <= status_quo *. (1. +. tolerance) +. 1e-12)
      deviations
  in
  { population_b0; deviations; is_equilibrium }
