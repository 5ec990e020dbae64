(** Deterministic multicore replication engine.

    Monte-Carlo experiments in this repository are embarrassingly parallel:
    [replicas] independent runs of a kernel, each driven by its own random
    substream.  This module fans those runs out over a fixed pool of
    [Domain.spawn] workers while keeping the results {e bit-identical for
    any} [jobs] {e value, including 1}.

    Determinism model: substreams are derived from the base [rng] by
    {!Stratify_prng.Rng.split}, one per {e replica} (never per worker), in
    replica-index order on the calling domain before any worker starts.
    Which domain happens to execute a replica therefore cannot influence
    its random stream; scheduling only changes wall-clock time, never
    output.  Reductions over replicas are likewise combined in a fixed
    order ([chunk]-index order), so floating-point merges are reproducible
    too.

    Workers pull chunks of replica indices from an atomic counter
    (work-stealing over chunks), which keeps the pool busy when kernel
    running times are uneven.

    Observability: when {!Stratify_obs.Control.enabled} is on, workers
    count claimed chunks ("exec.chunks") and replicas ("exec.tasks") and
    record per-chunk wall latency in the "exec.chunk_ns" log-scale
    histogram; the coordinator wraps the pool drain and the final
    reduction in the "exec.drain" / "exec.merge" spans.  None of this
    perturbs results — probes never touch the RNG streams or the merge
    order. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what [--jobs] defaults to. *)

val map_replicas :
  ?chunk:int ->
  jobs:int ->
  rng:Stratify_prng.Rng.t ->
  replicas:int ->
  (Stratify_prng.Rng.t -> int -> 'a) ->
  'a array
(** [map_replicas ~jobs ~rng ~replicas f] computes
    [[| f s_0 0; f s_1 1; … |]] where [s_i] is the [i]-th substream split
    off [rng].  [f] runs on up to [jobs] domains; the result array is
    identical for every [jobs ≥ 1].  [rng] is advanced ([replicas] splits)
    exactly as if the replicas had run sequentially.  [chunk] (default 1)
    is the number of consecutive replicas a worker claims at once — raise
    it for very cheap kernels.  [f] must not touch shared mutable state;
    everything the kernels in this repository need is reachable from their
    substream and replica index.

    Failure discipline: an exception raised by [f] is caught and
    recorded against its chunk index; the pool keeps draining the
    remaining chunks, and once every domain has joined, the recorded
    exception with the {e lowest} chunk index is re-raised (with its
    original backtrace) on the calling domain.  Which replica's failure
    surfaces is therefore a function of the replica indices alone —
    identical for every [jobs] value, like the results themselves. *)

val map_indexed : ?chunk:int -> jobs:int -> count:int -> (int -> 'a) -> 'a array
(** [map_indexed ~jobs ~count f] is [[| f 0; …; f (count-1) |]] computed
    on up to [jobs] domains — for kernels that derive their own seeds from
    the index (e.g. one fixed seed per parameter combination).  Kernels
    may write disjoint parts of shared arrays, as the sharded matcher's
    in-place bands do: every worker is joined before [map_indexed]
    returns, so all their writes are visible to the caller. *)

val map_array : ?chunk:int -> jobs:int -> 'a array -> ('a -> 'b) -> 'b array
(** [map_array ~jobs xs f] is [Array.map f xs] computed on up to [jobs]
    domains in work-stealing chunks — the cell-level parallel map used by
    the matrix runner.  Same failure discipline as {!map_replicas}; [f]
    must not touch shared mutable state. *)

val reduce_replicas :
  ?chunk:int ->
  jobs:int ->
  rng:Stratify_prng.Rng.t ->
  replicas:int ->
  merge:('a -> 'a -> 'a) ->
  (Stratify_prng.Rng.t -> int -> 'a) ->
  'a option
(** Chunked map-reduce without materialising all [replicas] results:
    each worker folds [merge] over its chunk left-to-right in replica
    order, and the per-chunk accumulators are merged in chunk order on the
    calling domain.  For a fixed [chunk] the merge tree — hence the result,
    even with non-associative floating-point [merge] — is independent of
    [jobs].  [None] iff [replicas = 0]. *)

val online_replicas :
  ?chunk:int ->
  jobs:int ->
  rng:Stratify_prng.Rng.t ->
  replicas:int ->
  (Stratify_prng.Rng.t -> int -> float) ->
  Stratify_stats.Online.t
(** Welford reduction of one float per replica: per-chunk
    {!Stratify_stats.Online.t} accumulators (samples added in replica
    order) merged in chunk order via {!Stratify_stats.Online.merge} — the
    jobs-independent way to aggregate a statistic over many runs. *)
