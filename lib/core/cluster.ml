module Components = Stratify_graph.Components

type analysis = {
  component_sizes : int array;
  mean_size : float;
  largest : int;
  count : int;
}

(* Route through the implicit [Complete] backend: no n×n adjacency is
   ever materialized, so the fig4/table1/fig6 pipeline runs at 10⁵ peers
   in O(n·b̄) memory.  With [bands = 1] (the default)
   [Shard.stable_config] is exactly [Greedy.stable_config] and its
   complete-graph fast path; [bands > 1] solves rank bands on the
   domain pool and reconciles the boundaries — same unique result
   (Theorem 1), which is what pushes fig4 to 10⁶–10⁷ peers. *)
let collaboration_graph ?(jobs = 1) ?(bands = 1) ?overlap ~b () =
  let n = Array.length b in
  Array.iter (fun k -> if k < 0 then invalid_arg "Cluster.collaboration_graph: negative budget") b;
  let inst = Instance.complete ~n ~b () in
  Config.to_adjacency (Shard.stable_config ~jobs ~bands ?overlap inst)

(* Counting sort, largest first: sizes are at most n, and most of them
   are equal (Fig 4's blocks), so one pass over a histogram beats a
   comparison sort. *)
let sort_descending sizes =
  let hist = Array.make (Array.fold_left Int.max 0 sizes + 1) 0 in
  Array.iter (fun s -> hist.(s) <- hist.(s) + 1) sizes;
  let out = Array.make (Array.length sizes) 0 in
  let k = ref 0 in
  for s = Array.length hist - 1 downto 0 do
    Array.fill out !k hist.(s) s;
    k := !k + hist.(s)
  done;
  out

let analyze adj =
  let comps = Components.of_adjacency adj in
  {
    component_sizes = sort_descending comps.Components.sizes;
    mean_size = Components.mean_size comps;
    largest = Components.largest_size comps;
    count = comps.Components.count;
  }

let analyze_budgets ~b = analyze (collaboration_graph ~b ())

let predicted_block ~n ~b0 ~peer =
  if b0 <= 0 then [ peer ]
  else begin
    let block = peer / (b0 + 1) in
    let start = block * (b0 + 1) in
    let stop = Int.min n (start + b0 + 1) - 1 in
    List.init (stop - start + 1) (fun i -> start + i)
  end

(* Each row is compared in place with its predicted block minus the
   peer itself — [start, start + len] skipping [peer], increasing — with
   no allocation: at n = 10⁶ this runs once per fig4 pass. *)
let matches_block_structure ~n ~b0 adj =
  let ok = ref (Array.length adj = n) in
  let peer = ref 0 in
  while !ok && !peer < n do
    let p = !peer in
    let row = adj.(p) in
    let start = if b0 <= 0 then p else p / (b0 + 1) * (b0 + 1) in
    let len = if b0 <= 0 then 0 else Int.min n (start + b0 + 1) - 1 - start in
    if Array.length row <> len then ok := false
    else
      for i = 0 to len - 1 do
        let q = start + i in
        if row.(i) <> (if q < p then q else q + 1) then ok := false
      done;
    incr peer
  done;
  !ok
