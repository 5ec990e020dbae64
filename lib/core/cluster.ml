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
   complete-graph fast path; [bands > 1] solves snapped rank bands in
   place on the domain pool — same unique result (Theorem 1), which is
   what pushes fig4 to 10⁶–10⁷ peers. *)
let stable_config ?(jobs = 1) ?(bands = 1) ?overlap ~b () =
  let n = Array.length b in
  Array.iter (fun k -> if k < 0 then invalid_arg "Cluster.stable_config: negative budget") b;
  Shard.stable_config ~jobs ~bands ?overlap (Instance.complete ~n ~b ())

let collaboration_graph ?jobs ?bands ?overlap ~b () =
  Config.to_adjacency (stable_config ?jobs ?bands ?overlap ~b ())

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

let of_components comps =
  {
    component_sizes = sort_descending comps.Components.sizes;
    mean_size = Components.mean_size comps;
    largest = Components.largest_size comps;
    count = comps.Components.count;
  }

let analyze adj = of_components (Components.of_adjacency adj)

let analyze_config c =
  of_components
    (Components.of_segments ~off:(Config.raw_off c) ~deg:(Config.raw_deg c)
       ~data:(Config.raw_data c))

let analyze_budgets ~b = analyze_config (stable_config ~b ())

let predicted_block ~n ~b0 ~peer =
  if b0 <= 0 then [ peer ]
  else begin
    let block = peer / (b0 + 1) in
    let start = block * (b0 + 1) in
    let stop = Int.min n (start + b0 + 1) - 1 in
    List.init (stop - start + 1) (fun i -> start + i)
  end

(* Whether [row.(base) .. row.(base + len - 1)] is [p]'s predicted block
   minus [p] itself — [start, start + len] skipping [p], increasing —
   compared in place with no allocation: at n = 10⁶ this runs once per
   peer of every fig4 pass.  Both forms of the block check share it. *)
let row_is_block ~n ~b0 p (row : int array) base len =
  let start = if b0 <= 0 then p else p / (b0 + 1) * (b0 + 1) in
  let expected = if b0 <= 0 then 0 else Int.min n (start + b0 + 1) - 1 - start in
  len = expected
  &&
  let ok = ref true in
  for i = 0 to len - 1 do
    let q = start + i in
    if row.(base + i) <> (if q < p then q else q + 1) then ok := false
  done;
  !ok

let matches_block_structure ~n ~b0 adj =
  let ok = ref (Array.length adj = n) in
  let p = ref 0 in
  while !ok && !p < n do
    let row = adj.(!p) in
    ok := row_is_block ~n ~b0 !p row 0 (Array.length row);
    incr p
  done;
  !ok

let config_matches_block_structure ~b0 c =
  let off = Config.raw_off c and deg = Config.raw_deg c and data = Config.raw_data c in
  let n = Array.length deg in
  let ok = ref true in
  let p = ref 0 in
  while !ok && !p < n do
    ok := row_is_block ~n ~b0 !p data off.(!p) deg.(!p);
    incr p
  done;
  !ok
