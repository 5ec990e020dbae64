module Series = Stratify_stats.Series
module Correlation = Stratify_stats.Correlation

type flash_result = {
  completion_ticks : int option array;
  completed_curve : Series.t;
  swarm : Swarm.t;
}

let flash_crowd rng ~uploads ~pieces ~piece_size ~d ~max_ticks =
  let n = Array.length uploads in
  let params =
    {
      (Swarm.default_params ~uploads) with
      Swarm.d;
      piece = Some { Swarm.pieces; piece_size; init_fraction = 0.; seeds = 1 };
    }
  in
  let swarm = Swarm.create rng params in
  let completion_ticks = Array.make n None in
  completion_ticks.(0) <- Some 0;
  let curve = ref [ (0., 1.) ] in
  let tick = ref 0 in
  let finished () = Swarm.completed swarm = n in
  while (not (finished ())) && !tick < max_ticks do
    Swarm.step swarm;
    incr tick;
    for i = 0 to n - 1 do
      if completion_ticks.(i) = None then
        match Swarm.field swarm i with
        | Some f when Piece.is_complete f -> completion_ticks.(i) <- Some !tick
        | _ -> ()
    done;
    curve := (float_of_int !tick, float_of_int (Swarm.completed swarm)) :: !curve
  done;
  {
    completion_ticks;
    completed_curve = Series.make "completed peers" (Array.of_list (List.rev !curve));
    swarm;
  }

let completion_capacity_correlation result ~uploads =
  let pairs = ref [] in
  Array.iteri
    (fun i completion ->
      match completion with
      | Some t when i > 0 -> pairs := (uploads.(i), float_of_int t) :: !pairs
      | _ -> ())
    result.completion_ticks;
  Correlation.spearman (Array.of_list !pairs)

type churn_report = {
  departures : int;
  mean_time_in_system : float;
  swarm_throughput : float;
}

let steady_churn rng ~uploads ~pieces ~piece_size ~d ~warmup ~measure =
  let n = Array.length uploads in
  let params =
    {
      (Swarm.default_params ~uploads) with
      Swarm.d;
      piece = Some { Swarm.pieces; piece_size; init_fraction = 0.3; seeds = 1 };
    }
  in
  let swarm = Swarm.create rng params in
  let arrival = Array.make n 0 in
  let departures = ref 0 in
  let time_total = ref 0 in
  let recycle_completed ~record tick =
    for i = 1 to n - 1 do
      match Swarm.field swarm i with
      | Some f when Piece.is_complete f ->
          if record then begin
            incr departures;
            time_total := !time_total + (tick - arrival.(i))
          end;
          Swarm.recycle_peer swarm i;
          arrival.(i) <- tick
      | _ -> ()
    done
  in
  for tick = 1 to warmup do
    Swarm.step swarm;
    recycle_completed ~record:false tick
  done;
  Swarm.reset_counters swarm;
  for tick = warmup + 1 to warmup + measure do
    Swarm.step swarm;
    recycle_completed ~record:true tick
  done;
  let moved = ref 0. in
  for i = 0 to n - 1 do
    moved := !moved +. Swarm.downloaded swarm i
  done;
  {
    departures = !departures;
    mean_time_in_system =
      (if !departures = 0 then 0. else float_of_int !time_total /. float_of_int !departures);
    swarm_throughput = !moved /. float_of_int measure;
  }
