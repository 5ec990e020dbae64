type t = { component : int array; sizes : int array; count : int }

(* Component ids in first-seen vertex order; roots are vertices, so an
   [int array] indexed by root maps them. *)
let of_union_find n uf =
  let component = Array.make n (-1) in
  let id_of_root = Array.make n (-1) in
  let next = ref 0 in
  for v = 0 to n - 1 do
    let root = Union_find.find uf v in
    if id_of_root.(root) < 0 then begin
      id_of_root.(root) <- !next;
      incr next
    end;
    component.(v) <- id_of_root.(root)
  done;
  let sizes = Array.make !next 0 in
  for v = 0 to n - 1 do
    let id = component.(v) in
    sizes.(id) <- sizes.(id) + 1
  done;
  { component; sizes; count = !next }

let of_graph g =
  let n = Undirected.vertex_count g in
  let uf = Union_find.create n in
  Undirected.iter_edges (fun u v -> ignore (Union_find.union uf u v)) g;
  of_union_find n uf

let of_adjacency adj =
  let n = Array.length adj in
  let uf = Union_find.create n in
  for u = 0 to n - 1 do
    let ws = adj.(u) in
    for i = 0 to Array.length ws - 1 do
      ignore (Union_find.union uf u ws.(i))
    done
  done;
  of_union_find n uf

let largest_size t = Array.fold_left Int.max 0 t.sizes

let mean_size t =
  if t.count = 0 then 0.
  else float_of_int (Array.length t.component) /. float_of_int t.count

let is_connected t = t.count <= 1 && Array.length t.component = Array.fold_left ( + ) 0 t.sizes

let members t id =
  let out = ref [] in
  for v = Array.length t.component - 1 downto 0 do
    if t.component.(v) = id then out := v :: !out
  done;
  !out
