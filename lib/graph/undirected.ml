(* Compressed sparse rows: the neighbours of [v] are
   [nbr.(off.(v)) .. nbr.(off.(v+1) - 1)], strictly increasing; every
   edge is listed at both endpoints and no vertex lists itself. *)
type t = { off : int array; nbr : int array }

let of_edges ?(capacity = 0) n iter =
  if n < 0 then invalid_arg (Printf.sprintf "Undirected.of_edges: negative size %d" n);
  if capacity < 0 then
    invalid_arg (Printf.sprintf "Undirected.of_edges: negative capacity %d" capacity);
  (* The stream as (u, v) pairs in a flat array sized for [capacity]
     pairs and grown by doubling past it (from 64 ints when empty), and
     the degree of [v] counted at [off.(v + 1)].  The copies are loops:
     [Array.blit] into an old array would [caml_modify] every int. *)
  let stream = ref (Array.make (2 * capacity) 0) and len = ref 0 in
  let off = Array.make (n + 1) 0 in
  iter (fun u v ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg
          (Printf.sprintf "Undirected.of_edges: edge (%d, %d) has a vertex outside [0, %d)" u v n);
      if u = v then invalid_arg (Printf.sprintf "Undirected.of_edges: self-loop at vertex %d" u);
      if !len = Array.length !stream then begin
        let grown = Array.make (Int.max 64 (2 * !len)) 0 in
        for i = 0 to !len - 1 do
          grown.(i) <- !stream.(i)
        done;
        stream := grown
      end;
      let s = !stream in
      s.(!len) <- u;
      s.(!len + 1) <- v;
      len := !len + 2;
      off.(u + 1) <- off.(u + 1) + 1;
      off.(v + 1) <- off.(v + 1) + 1);
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  (* Each pair lands at both endpoints in stream order: a stream in
     increasing (u, v) order with u < v gives row [x] its smaller
     neighbours (from the edges (u, x)) before its larger ones, each in
     increasing order. *)
  let nbr = Array.make off.(n) 0 in
  let fill = Array.sub off 0 n in
  let s = !stream in
  let i = ref 0 in
  while !i < !len do
    let u = s.(!i) and v = s.(!i + 1) in
    nbr.(fill.(u)) <- v;
    fill.(u) <- fill.(u) + 1;
    nbr.(fill.(v)) <- u;
    fill.(v) <- fill.(v) + 1;
    i := !i + 2
  done;
  let ordered = ref true in
  for v = 0 to n - 1 do
    for i = off.(v) + 1 to off.(v + 1) - 1 do
      if nbr.(i - 1) >= nbr.(i) then ordered := false
    done
  done;
  if !ordered then { off; nbr }
  else begin
    (* One transposition orders every row: visiting the rows in
       increasing order appends each vertex to its neighbours' rows in
       increasing order, and a repeat lands right after its twin, where
       it is dropped.  Linear and comparison-free; a symmetric
       [of_adjacency_arrays] input leaves every row as three sorted
       runs, which [Array.sort] row by row took ten times longer to
       order. *)
    let sorted = Array.make (Array.length nbr) 0 and deg = Array.make n 0 in
    for x = 0 to n - 1 do
      for i = off.(x) to off.(x + 1) - 1 do
        let y = nbr.(i) in
        let k = deg.(y) in
        if k = 0 || sorted.(off.(y) + k - 1) <> x then begin
          sorted.(off.(y) + k) <- x;
          deg.(y) <- k + 1
        end
      done
    done;
    (* close the gaps the dropped repeats left *)
    let packed_off = Array.make (n + 1) 0 in
    for v = 0 to n - 1 do
      packed_off.(v + 1) <- packed_off.(v) + deg.(v)
    done;
    let packed = Array.make packed_off.(n) 0 in
    for v = 0 to n - 1 do
      for i = 0 to deg.(v) - 1 do
        packed.(packed_off.(v) + i) <- sorted.(off.(v) + i)
      done
    done;
    { off = packed_off; nbr = packed }
  end

let of_adjacency_arrays rows =
  let capacity = Array.fold_left (fun acc row -> acc + Array.length row) 0 rows in
  of_edges ~capacity (Array.length rows) (fun add ->
      Array.iteri (fun u row -> Array.iter (add u) row) rows)

let vertex_count t = Array.length t.off - 1
let edge_count t = Array.length t.nbr / 2

let check_vertex t v =
  if v < 0 || v >= vertex_count t then
    invalid_arg (Printf.sprintf "Undirected: vertex %d outside [0, %d)" v (vertex_count t))

let degree t v =
  check_vertex t v;
  t.off.(v + 1) - t.off.(v)

let row_mem t v x =
  let lo = ref t.off.(v) and hi = ref (t.off.(v + 1) - 1) and found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let y = t.nbr.(mid) in
    if y = x then found := true else if y < x then lo := mid + 1 else hi := mid - 1
  done;
  !found

let mem_edge t u v =
  if degree t u <= degree t v then row_mem t u v else row_mem t v u

let iter_edges f t =
  for u = 0 to vertex_count t - 1 do
    for i = t.off.(u) to t.off.(u + 1) - 1 do
      let v = t.nbr.(i) in
      if u < v then f u v
    done
  done

let adjacency_csr t = (t.off, t.nbr)

let adjacency_arrays t =
  Array.init (vertex_count t) (fun v -> Array.sub t.nbr t.off.(v) (t.off.(v + 1) - t.off.(v)))
