open Stratify_core

let acceptance_edges inst =
  let edges = ref [] in
  for p = Instance.n inst - 1 downto 0 do
    Instance.iter_acceptable inst p (fun q -> if p < q then edges := (p, q) :: !edges)
  done;
  !edges

(* Depth-first include/exclude over the edge list, pruning on slot
   budgets. *)
let fold_configs f init inst =
  let edges = Array.of_list (acceptance_edges inst) in
  let n_edges = Array.length edges in
  let used = Array.make (Instance.n inst) 0 in
  let chosen = ref [] in
  let acc = ref init in
  let rec go i =
    if i >= n_edges then acc := f !acc (List.rev !chosen)
    else begin
      let p, q = edges.(i) in
      (* exclude *)
      go (i + 1);
      (* include, if both endpoints have budget left *)
      if used.(p) < Instance.slots inst p && used.(q) < Instance.slots inst q then begin
        used.(p) <- used.(p) + 1;
        used.(q) <- used.(q) + 1;
        chosen := (p, q) :: !chosen;
        go (i + 1);
        chosen := List.tl !chosen;
        used.(p) <- used.(p) - 1;
        used.(q) <- used.(q) - 1
      end
    end
  in
  go 0;
  !acc

let all_configs inst =
  List.rev (fold_configs (fun acc pairs -> Config.of_pairs inst pairs :: acc) [] inst)

let all_stable_configs inst =
  List.rev
    (fold_configs
       (fun acc pairs ->
         let c = Config.of_pairs inst pairs in
         if Blocking.is_stable c then c :: acc else acc)
       [] inst)

let count_configs inst = fold_configs (fun acc _ -> acc + 1) 0 inst
