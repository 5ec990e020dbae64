module Undirected = Stratify_graph.Undirected

(* Acceptance-graph storage.  [Dense] is a graph's CSR rows: the
   acceptable peers of rank [p] are [data.(off.(p)) .. data.(off.(p+1)-1)],
   increasing (= best-ranked first).  [Complete] stores nothing at all:
   every pair of distinct peers is acceptable, and the i-th best acceptable
   peer of [p] is [i] itself, shifted by one past [p].  [Complete_minus] is
   a complete graph restricted to a surviving peer set [alive] (sorted by
   rank); [pos.(p)] is [p]'s index in [alive], or [-1] if removed.
   [Dynamic] is a mutable row-per-peer store for churn: peer [p]'s
   acceptable peers are [rows.(p).(0 .. len.(p)-1)], increasing; rows
   grow by amortized doubling and shrink in place, so arrivals and
   departures patch the acceptance graph without reallocating the
   instance. *)
type backend =
  | Dense of { off : int array; data : int array }
  | Complete
  | Complete_minus of { alive : int array; pos : int array }
  | Dynamic of { rows : int array array; len : int array }

type t = {
  backend : backend;
  b : int array;  (* by rank label *)
  ranking : Ranking.t;
  slot_total : int;
  n : int;
}

let n t = t.n
let slots t p = t.b.(p)
let slot_total t = t.slot_total
let rank_to_id t r = Ranking.peer_at t.ranking r
let id_to_rank t id = Ranking.rank t.ranking id

let backend_kind t =
  match t.backend with
  | Dense _ -> `Dense
  | Complete -> `Complete
  | Complete_minus _ -> `Complete_minus
  | Dynamic _ -> `Dynamic

type raw_backend =
  | Raw_dense of { off : int array; data : int array }
  | Raw_complete
  | Raw_complete_minus of { alive : int array; pos : int array }
  | Raw_dynamic of { rows : int array array; len : int array }

let raw_backend t =
  match t.backend with
  | Dense { off; data } -> Raw_dense { off; data }
  | Complete -> Raw_complete
  | Complete_minus { alive; pos } -> Raw_complete_minus { alive; pos }
  | Dynamic { rows; len } -> Raw_dynamic { rows; len }

let raw_slots t = t.b

let degree t p =
  match t.backend with
  | Dense { off; _ } -> off.(p + 1) - off.(p)
  | Complete -> t.n - 1
  | Complete_minus { alive; pos } -> if pos.(p) < 0 then 0 else Array.length alive - 1
  | Dynamic { len; _ } -> len.(p)

let acceptable_at t p i =
  match t.backend with
  | Dense { off; data } -> data.(off.(p) + i)
  | Complete -> if i < p then i else i + 1
  | Complete_minus { alive; pos } ->
      let k = pos.(p) in
      alive.(if i < k then i else i + 1)
  | Dynamic { rows; _ } -> rows.(p).(i)

let accepts t p q =
  p <> q
  && p >= 0 && p < t.n && q >= 0 && q < t.n
  &&
  match t.backend with
  | Complete -> true
  | Complete_minus { pos; _ } -> pos.(p) >= 0 && pos.(q) >= 0
  | Dense { off; data } ->
      let lo = ref off.(p) and hi = ref (off.(p + 1) - 1) in
      let found = ref false in
      while (not !found) && !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        let x = data.(mid) in
        if x = q then found := true else if x < q then lo := mid + 1 else hi := mid - 1
      done;
      !found
  | Dynamic { rows; len } ->
      let row = rows.(p) in
      let lo = ref 0 and hi = ref (len.(p) - 1) in
      let found = ref false in
      while (not !found) && !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        let x = row.(mid) in
        if x = q then found := true else if x < q then lo := mid + 1 else hi := mid - 1
      done;
      !found

let iter_acceptable t p f =
  match t.backend with
  | Dense { off; data } ->
      for i = off.(p) to off.(p + 1) - 1 do
        f data.(i)
      done
  | Complete ->
      for q = 0 to p - 1 do
        f q
      done;
      for q = p + 1 to t.n - 1 do
        f q
      done
  | Complete_minus { alive; pos } ->
      if pos.(p) >= 0 then
        Array.iter (fun q -> if q <> p then f q) alive
  | Dynamic { rows; len } ->
      let row = rows.(p) in
      for i = 0 to len.(p) - 1 do
        f row.(i)
      done

let fold_acceptable t p f init =
  match t.backend with
  | Dense { off; data } ->
      let acc = ref init in
      for i = off.(p) to off.(p + 1) - 1 do
        acc := f !acc data.(i)
      done;
      !acc
  | _ ->
      let acc = ref init in
      iter_acceptable t p (fun q -> acc := f !acc q);
      !acc

(* Smallest row index whose acceptable peer outranks [rank] (i.e. has a
   strictly larger rank label), or [degree t p] if none does.  Rows are
   increasing, so this is where a "only peers ranked after me" scan
   starts — [Greedy.stable_config] uses it to skip the prefix that the
   legacy code walked and discarded. *)
let first_index_above t p ~rank =
  match t.backend with
  | Complete ->
      (* Smallest acceptable value > rank is rank+1, skipping p itself;
         its row index shifts down by one past p.  If it overflows the
         universe, return the degree (n-1). *)
      let v = rank + 1 in
      let v = if v = p then v + 1 else v in
      if v >= t.n then t.n - 1 else if v < p then v else v - 1
  | Dense { off; data } ->
      let base = off.(p) in
      let lo = ref base and hi = ref off.(p + 1) in
      (* invariant: data.(i) <= rank for i < lo; data.(i) > rank for i >= hi *)
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if data.(mid) <= rank then lo := mid + 1 else hi := mid
      done;
      !lo - base
  | Complete_minus { alive; pos } ->
      if pos.(p) < 0 then 0
      else begin
        let len = Array.length alive in
        let lo = ref 0 and hi = ref len in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if alive.(mid) <= rank then lo := mid + 1 else hi := mid
        done;
        (* alive index -> row index: entries before [p]'s own position
           shift down by one. *)
        if !lo <= pos.(p) then !lo else !lo - 1
      end
  | Dynamic { rows; len } ->
      let row = rows.(p) in
      let lo = ref 0 and hi = ref len.(p) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if row.(mid) <= rank then lo := mid + 1 else hi := mid
      done;
      !lo

let acceptable t p =
  match t.backend with
  | Dense { off; data } -> Array.sub data off.(p) (off.(p + 1) - off.(p))
  | Dynamic { rows; len } -> Array.sub rows.(p) 0 len.(p)
  | _ ->
      let len = degree t p in
      Array.init len (fun i -> acceptable_at t p i)

let check_b ~n b =
  if Array.length b <> n then invalid_arg "Instance: |b| must equal the number of peers";
  Array.iter (fun k -> if k < 0 then invalid_arg "Instance: negative slot budget") b

let finish ~backend ~ranking ~b ~n =
  if Ranking.size ranking <> n then invalid_arg "Instance: ranking size mismatch";
  let b_by_rank =
    if Ranking.is_identity ranking then Array.copy b
    else Array.init n (fun r -> b.(Ranking.peer_at ranking r))
  in
  { backend; b = b_by_rank; ranking; slot_total = Array.fold_left ( + ) 0 b; n }

(* The one [Dense] construction: the graph's rows, rank-labelled.  Under
   the identity ranking they are the graph's own arrays, uncopied; any
   other ranking relabels the edges once, through the builder, which
   sorts the rows the relabelling disorders. *)
let create ?ranking ~graph ~b () =
  let n = Undirected.vertex_count graph in
  check_b ~n b;
  let ranking = match ranking with Some r -> r | None -> Ranking.identity n in
  if Ranking.size ranking <> n then invalid_arg "Instance: ranking size mismatch";
  let graph =
    if Ranking.is_identity ranking then graph
    else
      Undirected.of_edges n (fun add ->
          Undirected.iter_edges
            (fun u v -> add (Ranking.rank ranking u) (Ranking.rank ranking v))
            graph)
  in
  let off, data = Undirected.adjacency_csr graph in
  finish ~backend:(Dense { off; data }) ~ranking ~b ~n

let of_adjacency ?ranking ~adj ~b () =
  create ?ranking ~graph:(Undirected.of_adjacency_arrays adj) ~b ()

let complete ?ranking ~n ~b () =
  if n < 0 then invalid_arg "Instance.complete: negative size";
  check_b ~n b;
  let ranking = match ranking with Some r -> r | None -> Ranking.identity n in
  finish ~backend:Complete ~ranking ~b ~n

let complete_minus ?ranking ~n ~b ~removed () =
  if n < 0 then invalid_arg "Instance.complete_minus: negative size";
  check_b ~n b;
  let ranking = match ranking with Some r -> r | None -> Ranking.identity n in
  let gone = Array.make n false in
  List.iter
    (fun id ->
      if id < 0 || id >= n then invalid_arg "Instance.complete_minus: peer out of range";
      gone.(Ranking.rank ranking id) <- true)
    removed;
  let survivors = ref 0 in
  for r = 0 to n - 1 do
    if not gone.(r) then incr survivors
  done;
  let alive = Array.make !survivors 0 in
  let pos = Array.make n (-1) in
  let k = ref 0 in
  for r = 0 to n - 1 do
    if not gone.(r) then begin
      alive.(!k) <- r;
      pos.(r) <- !k;
      incr k
    end
  done;
  finish ~backend:(Complete_minus { alive; pos }) ~ranking ~b ~n

(* Dynamic (churn) backend.  Identity ranking only: mutations are given
   in rank labels, and relabelling under a non-trivial ranking would
   make the in-place patches ambiguous. *)
let dynamic ~graph ~b () =
  let n = Undirected.vertex_count graph in
  check_b ~n b;
  let off, data = Undirected.adjacency_csr graph in
  let len = Array.init n (fun p -> off.(p + 1) - off.(p)) in
  let rows =
    Array.init n (fun p ->
        let d = len.(p) in
        let buf = Array.make (max 4 d) 0 in
        Array.blit data off.(p) buf 0 d;
        buf)
  in
  finish ~backend:(Dynamic { rows; len }) ~ranking:(Ranking.identity n) ~b ~n

let dyn_fields t =
  match t.backend with
  | Dynamic { rows; len } -> (rows, len)
  | _ -> invalid_arg "Instance: dynamic backend required"

(* Sorted insert into [p]'s row, growing the buffer by doubling.  No-op
   when the edge is already present. *)
let row_insert rows len p q =
  let buf = rows.(p) in
  let d = len.(p) in
  let lo = ref 0 and hi = ref d in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if buf.(mid) < q then lo := mid + 1 else hi := mid
  done;
  let i = !lo in
  if i < d && buf.(i) = q then false
  else begin
    let buf =
      if d < Array.length buf then buf
      else begin
        let grown = Array.make (max 4 (2 * d)) 0 in
        Array.blit buf 0 grown 0 d;
        rows.(p) <- grown;
        grown
      end
    in
    Array.blit buf i buf (i + 1) (d - i);
    buf.(i) <- q;
    len.(p) <- d + 1;
    true
  end

let row_remove rows len p q =
  let buf = rows.(p) in
  let d = len.(p) in
  let rec find i = if i >= d then -1 else if buf.(i) = q then i else find (i + 1) in
  let i = find 0 in
  if i >= 0 then begin
    Array.blit buf (i + 1) buf i (d - 1 - i);
    len.(p) <- d - 1
  end

let dyn_add_edge t p q =
  if p = q then invalid_arg "Instance.dyn_add_edge: self-loop";
  if p < 0 || p >= t.n || q < 0 || q >= t.n then
    invalid_arg "Instance.dyn_add_edge: peer out of range";
  let rows, len = dyn_fields t in
  if row_insert rows len p q then ignore (row_insert rows len q p)

let dyn_isolate t p =
  if p < 0 || p >= t.n then invalid_arg "Instance.dyn_isolate: peer out of range";
  let rows, len = dyn_fields t in
  let row = rows.(p) in
  for i = 0 to len.(p) - 1 do
    row_remove rows len row.(i) p
  done;
  len.(p) <- 0
