open Stratify_core

type t = { prefs : int array array; pos : int array array }

let build prefs =
  let n = Array.length prefs in
  let pos =
    Array.init n (fun p ->
        let row = Array.make n (-1) in
        Array.iteri
          (fun i q ->
            if q = p then invalid_arg "Tan.of_lists: peer prefers itself";
            if q < 0 || q >= n then invalid_arg "Tan.of_lists: peer out of range";
            if row.(q) >= 0 then invalid_arg "Tan.of_lists: duplicate in preference list";
            row.(q) <- i)
          prefs.(p);
        row)
  in
  { prefs; pos }

let of_lists raw =
  let probe = build raw in
  (* Symmetrise acceptability: keep q in p's list only if p is in q's. *)
  let prefs =
    Array.mapi
      (fun p row -> Array.of_list (List.filter (fun q -> probe.pos.(q).(p) >= 0) (Array.to_list row)))
      raw
  in
  build prefs

let of_global_ranking inst =
  (* [Instance.acceptable] returns a fresh array — safe to own. *)
  let prefs = Array.init (Instance.n inst) (fun p -> Instance.acceptable inst p) in
  build prefs

let size t = Array.length t.prefs
let preference_list t p = Array.copy t.prefs.(p)
let accepts t p q = t.pos.(p).(q) >= 0

let prefers t p a b =
  let ia = t.pos.(p).(a) and ib = t.pos.(p).(b) in
  if ia < 0 || ib < 0 then invalid_arg "Tan.prefers: unacceptable peer";
  ia < ib

let find_preference_cycle ?(parity = `Any) t =
  let n = size t in
  let parity_ok k =
    match parity with `Any -> true | `Odd -> k mod 2 = 1 | `Even -> k mod 2 = 0
  in
  let in_path = Array.make n false in
  let result = ref None in
  (* [prefers] restricted to mutually acceptable peers; false otherwise. *)
  let safe_prefers p a b = accepts t p a && accepts t p b && prefers t p a b in
  (* Extend path p1..pm (rev_path holds it reversed); close or grow. *)
  let rec extend start second rev_path prev cur len =
    if !result = None then begin
      (* Try to close: successor of cur is start. *)
      if len >= 3 && parity_ok len && safe_prefers cur start prev
         && safe_prefers start second cur then
        result := Some (List.rev rev_path)
      else ();
      if !result = None then
        Array.iter
          (fun next ->
            if !result = None && (not in_path.(next)) && safe_prefers cur next prev then begin
              in_path.(next) <- true;
              extend start second (next :: rev_path) cur next (len + 1);
              in_path.(next) <- false
            end)
          t.prefs.(cur)
    end
  in
  let try_start start =
    if !result = None then
      Array.iter
        (fun second ->
          if !result = None && second > start then begin
            in_path.(start) <- true;
            in_path.(second) <- true;
            extend start second [ second; start ] start second 2;
            in_path.(second) <- false;
            in_path.(start) <- false
          end)
        t.prefs.(start)
  in
  for s = 0 to n - 1 do
    try_start s
  done;
  !result

let is_global_ranking_like t =
  let n = size t in
  (* A global ranking exists iff the "must-be-better-than" relation induced
     by consecutive preference-list entries is acyclic. *)
  let succs = Array.make n [] in
  Array.iter
    (fun row ->
      for i = 0 to Array.length row - 2 do
        succs.(row.(i)) <- row.(i + 1) :: succs.(row.(i))
      done)
    t.prefs;
  let state = Array.make n 0 in
  (* 0 unvisited, 1 on stack, 2 done *)
  let rec dfs v =
    if state.(v) = 1 then false
    else if state.(v) = 2 then true
    else begin
      state.(v) <- 1;
      let ok = List.for_all dfs succs.(v) in
      state.(v) <- 2;
      ok
    end
  in
  let rec all v = v >= n || (dfs v && all (v + 1)) in
  all 0
