(* Binary min-heap over (time, seq) keys carrying int slot values — the
   baseline event-queue backend of the engine (`--queue heap`).

   A structure-of-arrays heap: keys live in a float array and an int
   array, values are plain ints, so sifting is pure scalar loads and
   stores and never allocates.  The key is read from [times.(slot)] at
   [add] time (see the note in {!Binq} about why the float is passed
   through an array rather than as an argument).

   Both sifts move a hole rather than swapping: the travelling entry's
   key is held in locals, each level moves one entry into the hole with
   three stores, and the entry is written once where the hole stops.
   Every index the loops touch is below [len], hence within the arrays,
   so the accesses are unchecked (as in [Config] and [Blocking]). *)

type t = {
  mutable kt : float array;  (* key: event time *)
  mutable ks : int array;    (* key: insertion sequence, breaks time ties *)
  mutable kv : int array;    (* value: engine slot index *)
  mutable len : int;
}

let create () = { kt = [||]; ks = [||]; kv = [||]; len = 0 }
let size t = t.len

let grow t =
  let cap = Array.length t.kv in
  if t.len >= cap then begin
    let cap' = max 16 (2 * cap) in
    let kt = Array.make cap' 0. and ks = Array.make cap' 0 and kv = Array.make cap' 0 in
    Array.blit t.kt 0 kt 0 t.len;
    Array.blit t.ks 0 ks 0 t.len;
    Array.blit t.kv 0 kv 0 t.len;
    t.kt <- kt;
    t.ks <- ks;
    t.kv <- kv
  end

let add t times ~seq ~slot =
  grow t;
  let kt = t.kt and ks = t.ks and kv = t.kv in
  let time = times.(slot) in
  (* the hole starts at the new leaf [len] < capacity and only rises *)
  let i = ref t.len in
  t.len <- t.len + 1;
  let rising = ref true in
  while !rising && !i > 0 do
    let p = (!i - 1) lsr 1 in
    let pt = Array.unsafe_get kt p in
    if time < pt || (time = pt && seq < Array.unsafe_get ks p) then begin
      Array.unsafe_set kt !i pt;
      Array.unsafe_set ks !i (Array.unsafe_get ks p);
      Array.unsafe_set kv !i (Array.unsafe_get kv p);
      i := p
    end
    else rising := false
  done;
  Array.unsafe_set kt !i time;
  Array.unsafe_set ks !i seq;
  Array.unsafe_set kv !i slot

(* Remove the root of a non-empty heap and return its slot: the last
   entry fills the hole the root leaves, sifted down from the top. *)
let remove_root t =
  let kt = t.kt and ks = t.ks and kv = t.kv in
  let root = Array.unsafe_get kv 0 in
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then begin
    let time = Array.unsafe_get kt n
    and seq = Array.unsafe_get ks n
    and slot = Array.unsafe_get kv n in
    let i = ref 0 in
    let sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      if l >= n then sinking := false
      else begin
        (* [c]: the lesser child; both children are below [n] *)
        let r = l + 1 in
        let c =
          if r < n then begin
            let tl = Array.unsafe_get kt l and tr = Array.unsafe_get kt r in
            if tr < tl || (tr = tl && Array.unsafe_get ks r < Array.unsafe_get ks l) then r
            else l
          end
          else l
        in
        let ct = Array.unsafe_get kt c in
        if ct < time || (ct = time && Array.unsafe_get ks c < seq) then begin
          Array.unsafe_set kt !i ct;
          Array.unsafe_set ks !i (Array.unsafe_get ks c);
          Array.unsafe_set kv !i (Array.unsafe_get kv c);
          i := c
        end
        else sinking := false
      end
    done;
    Array.unsafe_set kt !i time;
    Array.unsafe_set ks !i seq;
    Array.unsafe_set kv !i slot
  end;
  root

let pop_min t ~max_time =
  if t.len = 0 || t.kt.(0) > max_time then -1 else remove_root t

let pop_before t times ~slot ~seq =
  if t.len = 0 then -1
  else begin
    let bt = times.(slot) and t0 = t.kt.(0) in
    if t0 < bt || (t0 = bt && t.ks.(0) < seq) then remove_root t else -1
  end

let clear t =
  t.len <- 0;
  t.kt <- [||];
  t.ks <- [||];
  t.kv <- [||]
