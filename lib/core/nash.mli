(** The slot-count game of §6.

    "Suppressing one connexion can improve the probability of
    collaborating with higher peers.  However, this leads to a Nash
    equilibrium where all peers have just one TFT slot."  This module
    formalises that claim over the analytic share-ratio model: given a
    common population slot count, does any peer gain by unilaterally
    deviating? *)

type analysis = {
  population_b0 : int;  (** common slot count everyone else plays *)
  deviations : (float * int * float * float) array;
      (** per probe peer: (upload, best response, ratio at status quo,
          ratio at best response) *)
  is_equilibrium : bool;
      (** no probe peer improves by more than the tolerance *)
}

val symmetric_profile_analysis :
  n:int ->
  d:float ->
  profile:Stratify_bandwidth.Profile.t ->
  population_b0:int ->
  candidates:int array ->
  ?probes:float array ->
  ?tolerance:float ->
  unit ->
  analysis
(** Check the symmetric profile "everyone plays [population_b0]" against
    unilateral deviations within [candidates], for peers at the [probes]
    bandwidth quantiles (default: 10 %, 25 %, 50 %, 75 %, 90 %).
    [tolerance] is the minimum relative gain counted as an improvement
    (default 5 %, absorbing model noise). *)
