(* Algorithm 1 (§3): scan peers best-first; each peer claims the
   best-ranked acceptable peers after it that still have capacity.  The
   result is the unique stable configuration of an acyclic instance. *)

(* Reusable scratch buffers for the greedy scans.  A repeated solver
   (churn repair, sharded band solves, benchmark loops) passes the same
   arena to every call so the per-build [avail]/[next] arrays are
   allocated once and reused; the arrays grow monotonically and every
   build resets the entries it reads, so a call with an arena is
   bit-identical to one without.  An arena is single-threaded state:
   share one per domain, never across domains. *)
type arena = { mutable avail : int array; mutable next : int array }

let create_arena () = { avail = [||]; next = [||] }

let scratch ?arena n =
  match arena with
  | None -> (Array.make n 0, Array.make n 0)
  | Some a ->
      if Array.length a.avail < n then a.avail <- Array.make n 0;
      if Array.length a.next < n then a.next <- Array.make n 0;
      (a.avail, a.next)

(* Smallest j in [i, hi) with a free slot, or [hi]: the union-find
   style "next pointer" jump, compressing the pointers it walks.  It
   reads and writes [avail]/[next] only inside [i, hi) — never
   [next.(hi)], which belongs to the next window — so disjoint windows
   can run on different domains. *)
let rec find_next (avail : int array) (next : int array) hi i =
  if i >= hi then hi
  else if avail.(i) > 0 then i
  else begin
    let r = if i + 1 >= hi then hi else find_next avail next hi next.(i + 1) in
    next.(i) <- r;
    r
  end

(* Complete-backend fast path: every pair is acceptable, so instead of
   probing each q > i for capacity we jump between peers that still
   have capacity.  O(w·b̄) over a window of width w instead of O(w²)
   probes.  Pairs come out in exactly the order the generic scan would
   make them, so the configuration is identical. *)
let fill_complete config avail next ~lo ~hi =
  for i = lo to hi - 1 do
    if avail.(i) > 0 then begin
      let q = ref (find_next avail next hi (i + 1)) in
      while avail.(i) > 0 && !q < hi do
        Config.append config i !q;
        Config.append config !q i;
        avail.(i) <- avail.(i) - 1;
        avail.(!q) <- avail.(!q) - 1;
        q := find_next avail next hi (!q + 1)
      done
    end
  done

(* Generic path: works on any backend through the O(1) indexed row
   access.  [first_index_above] skips the row prefix of peers ranked
   before [i]: those were processed earlier and either connected to [i]
   already (accounted in [avail]) or spent their slots.  Rows are
   sorted, so the scan stops at the window's end. *)
let fill_generic inst config avail ~lo ~hi =
  for i = lo to hi - 1 do
    if avail.(i) > 0 then begin
      let len = Instance.degree inst i in
      let j = ref (Instance.first_index_above inst i ~rank:i) in
      while avail.(i) > 0 && !j < len do
        let q = Instance.acceptable_at inst i !j in
        if q >= hi then j := len
        else begin
          if avail.(q) > 0 then begin
            Config.append config i q;
            Config.append config q i;
            avail.(i) <- avail.(i) - 1;
            avail.(q) <- avail.(q) - 1
          end;
          incr j
        end
      done
    end
  done

(* Algorithm 1 on the rank window [lo, hi) as if it were the whole
   population: reset the window's scratch ([avail] = slot budgets, and
   [next] = identity for the jump), then append every pair in scan
   order.  Each peer's segment comes out ascending — the mates that
   claimed it (earlier peers, in scan order) before the ones it claims
   itself. *)
let fill config ~avail ~next ~lo ~hi =
  let inst = Config.instance config in
  for i = lo to hi - 1 do
    avail.(i) <- Instance.slots inst i
  done;
  match Instance.backend_kind inst with
  | `Complete ->
      for i = lo to hi - 1 do
        next.(i) <- i
      done;
      fill_complete config avail next ~lo ~hi
  | `Dense | `Complete_minus | `Dynamic -> fill_generic inst config avail ~lo ~hi

(* "greedy.stable_config" counts full from-scratch builds: churn runs
   use it (together with the "sched.*" counters) to prove they repaired
   incrementally instead of rebuilding per event.  A window solve is a
   build of its band. *)
let c_builds = Stratify_obs.Counter.make "greedy.stable_config"

let solve_window config ~avail ~next ~lo ~hi =
  Stratify_obs.Counter.incr c_builds;
  let snap = Stratify_obs.Profile.start () in
  fill config ~avail ~next ~lo ~hi;
  Stratify_obs.Profile.stop "greedy.build" ~ops:(hi - lo) snap

let stable_config ?arena inst =
  Stratify_obs.Counter.incr c_builds;
  let snap = Stratify_obs.Profile.start () in
  let n = Instance.n inst in
  let config = Config.unsealed inst in
  let avail, next = scratch ?arena n in
  fill config ~avail ~next ~lo:0 ~hi:n;
  Config.seal config;
  Stratify_obs.Profile.stop "greedy.build" ~ops:n snap;
  config

(* Algorithm 1 read off the edge stream itself.  Under the identity
   ranking the generic scan visits the pairs (i, q), q > i, of every row
   in increasing order, which is the stream's order, and connects a pair
   exactly when both ends still have a free slot.  [peer]'s mates are
   the pairs (u, peer) then (peer, v) that connect, best first; after
   row [peer] no edge names [peer], and once [peer] is full no later
   edge can connect to it, so either point ends the walk. *)
let mates_of_stream ~b ~peer iter =
  let n = Array.length b in
  if peer < 0 || peer >= n then
    invalid_arg (Printf.sprintf "Greedy.mates_of_stream: peer %d outside [0, %d)" peer n);
  Array.iteri
    (fun p k ->
      if k < 0 then
        invalid_arg (Printf.sprintf "Greedy.mates_of_stream: negative budget %d at peer %d" k p))
    b;
  Stratify_obs.Counter.incr c_builds;
  let snap = Stratify_obs.Profile.start () in
  let avail = Array.copy b in
  let mates = ref [] in
  let last_u = ref (-1) and last_v = ref (-1) in
  let exception Stop in
  (if avail.(peer) > 0 then
     try
       iter (fun u v ->
           if u < 0 || v <= u || v >= n then
             invalid_arg
               (Printf.sprintf "Greedy.mates_of_stream: edge (%d, %d) is not 0 <= u < v < %d" u v n);
           if u < !last_u || (u = !last_u && v <= !last_v) then
             invalid_arg
               (Printf.sprintf "Greedy.mates_of_stream: edge (%d, %d) does not follow (%d, %d)" u v
                  !last_u !last_v);
           if u > peer then raise_notrace Stop;
           last_u := u;
           last_v := v;
           if avail.(u) > 0 && avail.(v) > 0 then begin
             avail.(u) <- avail.(u) - 1;
             avail.(v) <- avail.(v) - 1;
             if u = peer || v = peer then begin
               mates := (if u = peer then v else u) :: !mates;
               if avail.(peer) = 0 then raise_notrace Stop
             end
           end)
     with Stop -> ());
  Stratify_obs.Profile.stop "greedy.build" ~ops:n snap;
  List.rev !mates

(* Standalone raw-array variant of the complete-graph case, kept as a
   reference implementation for tests and benchmarks. *)
let stable_complete ~b =
  let n = Array.length b in
  Array.iter (fun k -> if k < 0 then invalid_arg "Greedy.stable_complete: negative budget") b;
  let mates = Array.init n (fun i -> Array.make (min b.(i) (n - 1)) (-1)) in
  let filled = Array.make n 0 in
  let available = Array.copy b in
  let next = Array.init n (fun i -> i) in
  let connect i q =
    mates.(i).(filled.(i)) <- q;
    filled.(i) <- filled.(i) + 1;
    mates.(q).(filled.(q)) <- i;
    filled.(q) <- filled.(q) + 1;
    available.(i) <- available.(i) - 1;
    available.(q) <- available.(q) - 1
  in
  for i = 0 to n - 1 do
    let q = ref (find_next available next n (i + 1)) in
    while available.(i) > 0 && !q < n do
      connect i !q;
      q := find_next available next n (!q + 1)
    done
  done;
  Array.init n (fun i ->
      let row = Array.sub mates.(i) 0 filled.(i) in
      Array.sort Int.compare row;
      row)

let stable_partners_array inst =
  let n = Instance.n inst in
  for p = 0 to n - 1 do
    if Instance.slots inst p > 1 then
      invalid_arg "Greedy.stable_partners_array: 1-matching only"
  done;
  let config = stable_config inst in
  Array.init n (fun p -> match Config.best_mate config p with Some q -> q | None -> -1)
