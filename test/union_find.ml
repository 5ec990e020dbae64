type t = {
  parent : int array;
  rank : int array;
  set_size : int array;
  mutable sets : int;
}

let create n =
  {
    parent = Array.init n (fun i -> i);
    rank = Array.make n 0;
    set_size = Array.make n 1;
    sets = n;
  }

let rec find t x =
  let p = t.parent.(x) in
  if p = x then x
  else begin
    let root = find t p in
    t.parent.(x) <- root;
    root
  end

let union t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then false
  else begin
    let ra, rb = if t.rank.(ra) < t.rank.(rb) then (rb, ra) else (ra, rb) in
    t.parent.(rb) <- ra;
    t.set_size.(ra) <- t.set_size.(ra) + t.set_size.(rb);
    if t.rank.(ra) = t.rank.(rb) then t.rank.(ra) <- t.rank.(ra) + 1;
    t.sets <- t.sets - 1;
    true
  end

let same t a b = find t a = find t b
let size t x = t.set_size.(find t x)
let count t = t.sets

let components g =
  let module U = Stratify_graph.Undirected in
  let n = U.vertex_count g in
  let uf = create n in
  U.iter_edges (fun u v -> ignore (union uf u v)) g;
  let id_of_root = Array.make n (-1) and next = ref 0 in
  let component =
    Array.init n (fun v ->
        let root = find uf v in
        if id_of_root.(root) < 0 then begin
          id_of_root.(root) <- !next;
          incr next
        end;
        id_of_root.(root))
  in
  let sizes = Array.make !next 0 in
  Array.iter (fun id -> sizes.(id) <- sizes.(id) + 1) component;
  { Stratify_graph.Components.component; sizes; count = !next }
