(* Tests for the pluggable event-queue backends, the engine's in-order
   lane and the defunctionalized event path: every backend must pop the
   identical total (time, seq) order — the invariance `--queue` relies
   on — and the engine must pop exactly the order of a list model, lane
   or no lane; plus the structural behaviours (calendar resizes, ladder
   rung spawning) and the packed codec. *)

module Engine = Stratify_des.Engine
module Calq = Stratify_des.Calq
module Ladq = Stratify_des.Ladq
module Binq = Stratify_des.Binq
module Packed = Stratify_net.Net.Packed

(* ------------------------------------------------------------------ *)
(* Cross-backend equivalence                                           *)

(* Replay one schedule script on an engine and log every firing as
   (clock, code).  Scripts mix sparse, clustered and exactly-equal
   times — the equal-time cluster is the historical failure mode for
   bucket-based queues. *)
let replay backend script =
  let eng = Engine.create ~backend () in
  let log = ref [] in
  Engine.set_packed_handler eng (fun eng code ->
      log := (Engine.now eng, code) :: !log;
      (* odd codes fire a child event: exercises inserts interleaved
         with pops, including inserts into already-drained spans *)
      if code land 1 = 1 then
        Engine.schedule_packed eng ~delay:(float_of_int (code land 7) /. 4.) (code / 2));
  List.iteri
    (fun i time -> Engine.schedule_packed_at eng ~time ((i * 7) land 0xFFFF))
    script;
  ignore (Engine.drain eng);
  List.rev !log

let script_gen =
  QCheck.Gen.(
    let* n = int_range 1 120 in
    (* draw times from a mix of a continuous range, a coarse lattice
       (many exact duplicates) and a single hot instant *)
    let time =
      frequency
        [
          (3, map (fun k -> float_of_int k /. 100.) (int_range 0 1000));
          (2, map (fun k -> float_of_int k *. 0.5) (int_range 0 6));
          (1, return 2.5);
        ]
    in
    list_size (return n) time)

let test_backend_equivalence =
  Helpers.qtest ~count:150 "des: backends pop the identical order"
    (QCheck.make ~print:(fun s -> String.concat "," (List.map string_of_float s)) script_gen)
    (fun script ->
      let heap = replay Engine.Heap script in
      let cal = replay Engine.Calendar script in
      let lad = replay Engine.Ladder script in
      heap = cal && heap = lad)

let test_backend_equivalence_closures () =
  (* closure events and packed events share the queue and the order *)
  let run backend =
    let eng = Engine.create ~backend () in
    let log = ref [] in
    Engine.set_packed_handler eng (fun _ code -> log := (`P, code) :: !log);
    for i = 0 to 49 do
      let t = float_of_int (i mod 5) in
      if i land 1 = 0 then Engine.schedule_at eng ~time:t (fun _ -> log := (`C, i) :: !log)
      else Engine.schedule_packed_at eng ~time:t i
    done;
    ignore (Engine.drain eng);
    List.rev !log
  in
  let heap = run Engine.Heap in
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Engine.backend_name b ^ " matches heap")
        true
        (run b = heap))
    [ Engine.Calendar; Engine.Ladder ]

(* ------------------------------------------------------------------ *)
(* Engine against a list model                                         *)

(* The cross-backend property above cannot see a lane bug: every backend
   sits behind the same lane.  This one replays a script on the engine
   and on a sorted-list model of the (time, seq) order.  Scripts mix
   runs of one constant delay (which the lane claims) with random
   delays, absolute packed and closure schedules, [run_until] cut-offs,
   single steps, and dump/restore round trips — often while the lane
   holds events. *)
type op =
  | Rel of float * int  (** [schedule_packed ~delay code] *)
  | Abs of float * int  (** [schedule_packed_at ~time:(now + offset) code] *)
  | Clo of float * int  (** [schedule_at ~time:(now + offset)], logging [code] *)
  | Until of float  (** [run_until ~time:(now + dt)] *)
  | Step
  | Dump  (** [dump_packed], then [restore_packed] into a fresh engine *)

let show_op = function
  | Rel (d, c) -> Printf.sprintf "rel %g #%d" d c
  | Abs (o, c) -> Printf.sprintf "abs +%g #%d" o c
  | Clo (o, c) -> Printf.sprintf "closure +%g #%d" o c
  | Until dt -> Printf.sprintf "until +%g" dt
  | Step -> "step"
  | Dump -> "dump"

(* A packed code with [code land 3 = 1] fires a child one lane delay
   later, so handlers feed the lane as the async protocol does. *)
let child_delay = 0.25
let child code = if code land 3 = 1 then Some (code + 2) else None

let ops_gen =
  QCheck.Gen.(
    let code = int_bound 4095 in
    let lattice = map (fun k -> float_of_int k /. 8.) (int_bound 24) in
    let chunk =
      frequency
        [
          ( 4,
            (* a run of one constant delay *)
            let* d = oneofl [ child_delay; 0.5; 1.0 ] in
            let* k = int_range 2 12 in
            list_repeat k (map (fun c -> Rel (d, c)) code) );
          (3, map2 (fun d c -> [ Rel (d, c) ]) (oneof [ lattice; float_bound_exclusive 3. ]) code);
          (2, map2 (fun o c -> [ Abs (o, c) ]) lattice code);
          (1, map2 (fun o c -> [ Clo (o, c) ]) lattice code);
          (2, map (fun dt -> [ Until dt ]) (oneof [ lattice; float_bound_exclusive 2. ]));
          (1, return [ Step ]);
          (2, return [ Dump ]);
        ]
    in
    map List.concat (list_size (int_range 1 30) chunk))

(* The engine's log: (clock, code) per firing; closures log [-1 - code]. *)
let engine_log backend ops =
  let log = ref [] in
  let handler eng code =
    log := (Engine.now eng, code) :: !log;
    Option.iter (Engine.schedule_packed eng ~delay:child_delay) (child code)
  in
  let fresh eng =
    Engine.set_packed_handler eng handler;
    eng
  in
  let eng = ref (fresh (Engine.create ~backend ())) in
  List.iter
    (fun op ->
      let e = !eng in
      let now = Engine.now e in
      match op with
      | Rel (d, c) -> Engine.schedule_packed e ~delay:d c
      | Abs (o, c) -> Engine.schedule_packed_at e ~time:(now +. o) c
      | Clo (o, c) ->
          Engine.schedule_at e ~time:(now +. o) (fun e -> log := (Engine.now e, -1 - c) :: !log)
      | Until dt -> Engine.run_until e ~time:(now +. dt)
      | Step -> ignore (Engine.step e)
      | Dump -> (
          match Engine.dump_packed e with
          | entries -> eng := fresh (Engine.restore_packed ~backend ~now entries)
          | exception Invalid_argument _ -> log := (now, min_int) :: !log))
    ops;
  ignore (Engine.drain !eng);
  List.rev !log

(* The model: a pending list kept sorted by (time, seq). *)
let model_log ops =
  let log = ref [] in
  let now = ref 0. and seq = ref 0 and pending = ref [] in
  let add time code =
    let key = (time, !seq) in
    incr seq;
    let rec ins = function
      | ((t', s', _) as x) :: rest when compare (t', s') key < 0 -> x :: ins rest
      | rest -> (time, snd key, code) :: rest
    in
    pending := ins !pending
  in
  let fire_next limit =
    match !pending with
    | (time, _, code) :: rest when time <= limit ->
        pending := rest;
        if time > !now then now := time;
        log := (!now, code) :: !log;
        if code >= 0 then Option.iter (fun c -> add (!now +. child_delay) c) (child code);
        true
    | _ -> false
  in
  List.iter
    (function
      | Rel (d, c) -> add (!now +. d) c
      | Abs (o, c) -> add (!now +. o) c
      | Clo (o, c) -> add (!now +. o) (-1 - c)
      | Until dt ->
          let target = !now +. dt in
          while fire_next target do
            ()
          done;
          now := target
      | Step -> ignore (fire_next infinity)
      | Dump ->
          (* a pending closure refuses the dump and leaves the queue be *)
          if List.exists (fun (_, _, c) -> c < 0) !pending then log := (!now, min_int) :: !log)
    ops;
  while fire_next infinity do
    ()
  done;
  List.rev !log

let test_engine_matches_model =
  Helpers.qtest ~count:300 "des: engine pops the list model's (time, seq) order"
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_op ops)) ops_gen)
    (fun ops ->
      let model = model_log ops in
      List.for_all (fun b -> engine_log b ops = model) Engine.backends)

let test_dump_with_lane () =
  (* a lane claimed by a constant-delay run, dumped mid-run: the dump is
     the canonical order and the restored engine replays it exactly *)
  List.iter
    (fun backend ->
      let ops =
        [ Rel (0.7, 1); Rel (0.5, 2); Rel (0.5, 3); Rel (0.5, 4); Abs (0.5, 5); Rel (0.3, 6) ]
        @ [ Until 0.2; Rel (0.5, 7); Rel (0.5, 8); Dump; Rel (0.5, 9); Until 0.45; Dump ]
      in
      Alcotest.(check (list (pair (float 0.) int)))
        (Engine.backend_name backend ^ " matches the model")
        (model_log ops) (engine_log backend ops))
    Engine.backends

(* A fired closure must be collectable: the engine's slot pool keeps no
   reference to it, whether it waited in the lane or in the backend. *)
let[@inline never] schedule_payloads eng w fired =
  for i = 0 to 2 do
    let payload = Bytes.create 64 in
    Weak.set w i (Some payload);
    let f _ = fired := !fired + Bytes.length payload in
    (* two equal relative delays claim the lane; the third is absolute *)
    if i < 2 then Engine.schedule eng ~delay:1. f else Engine.schedule_at eng ~time:0.5 f
  done

let test_fired_closure_released () =
  List.iter
    (fun backend ->
      let eng = Engine.create ~backend () in
      let w = Weak.create 3 in
      let fired = ref 0 in
      schedule_payloads eng w fired;
      Alcotest.(check bool) "drained" true (Engine.drain eng);
      Alcotest.(check int) "all three fired" (3 * 64) !fired;
      Gc.full_major ();
      Gc.full_major ();
      for i = 0 to 2 do
        Alcotest.(check bool)
          (Printf.sprintf "%s: fired closure %d is collectable" (Engine.backend_name backend) i)
          true
          (Weak.get w i = None)
      done)
    Engine.backends

(* ------------------------------------------------------------------ *)
(* Raw backend structure                                               *)

(* Drive a raw backend through its SoA (times, seq, slot) interface and
   return the popped slots. *)
let pop_all add pop_min q times order =
  List.iteri (fun seq slot -> ignore (add q times ~seq ~slot)) order;
  let out = ref [] in
  let rec go () =
    let s = pop_min q ~max_time:infinity in
    if s >= 0 then begin
      out := s :: !out;
      go ()
    end
  in
  go ();
  List.rev !out

let test_calendar_resize () =
  let n = 3000 in
  let times = Array.init n (fun i -> float_of_int i *. 0.01) in
  let q = Calq.create () in
  Alcotest.(check int) "initial buckets" 16 (Calq.buckets q);
  let order = List.init n (fun i -> i) in
  let popped = pop_all Calq.add Calq.pop_min q times order in
  Alcotest.(check bool) "grew past the initial directory" true (Calq.resizes q > 0);
  Alcotest.(check int) "drained" 0 (Calq.size q);
  Alcotest.(check (list int)) "sorted order" order popped;
  (* the drain-down shrinks the directory back *)
  Alcotest.(check bool)
    (Printf.sprintf "shrunk at empty (buckets=%d)" (Calq.buckets q))
    true
    (Calq.buckets q <= 64)

let test_ladder_spawn () =
  let n = 2000 in
  (* skew: most mass near the origin, a far tail — the shape the ladder
     subdivides recursively *)
  let times =
    Array.init n (fun i ->
        if i < n - 10 then float_of_int i *. 1e-4 else 1000. +. float_of_int i)
  in
  let q = Ladq.create () in
  let order = List.init n (fun i -> i) in
  let popped = pop_all Ladq.add Ladq.pop_min q times order in
  Alcotest.(check bool) "spawned a child rung" true (Ladq.spawned q > 0);
  Alcotest.(check int) "drained" 0 (Ladq.size q);
  Alcotest.(check (list int)) "sorted order" order popped

let test_ladder_equal_key_cluster () =
  (* hundreds of entries at one exact time exceed the sort threshold but
     cannot be subdivided: must sort by seq into Bottom, not recurse *)
  let n = 400 in
  let times = Array.init n (fun i -> if i < 300 then 5.0 else 5.0 +. float_of_int i) in
  let q = Ladq.create () in
  let order = List.init n (fun i -> i) in
  let popped = pop_all Ladq.add Ladq.pop_min q times order in
  Alcotest.(check (list int)) "cluster pops in seq order" order popped

let test_ladder_insert_into_drained_span () =
  (* regression: a fully drained rung (rcur = nb) must not accept
     inserts above its last boundary — they belong to a finer tier or
     Bottom.  Interleave pops with inserts just above the drained
     cluster and check global order end to end. *)
  let cap = 600 in
  let times = Array.make cap 0. in
  let q = Ladq.create () in
  let seq = ref 0 in
  let add slot t =
    times.(slot) <- t;
    Ladq.add q times ~seq:!seq ~slot;
    incr seq
  in
  (* a big cluster the ladder will spawn over, plus a sparse tail *)
  for i = 0 to 399 do
    add i (1.0 +. (float_of_int (i mod 3) *. 1e-12))
  done;
  for i = 400 to 499 do
    add i (10. +. float_of_int i)
  done;
  let last = ref neg_infinity in
  let monotone = ref true in
  let next_slot = ref 500 in
  for _ = 1 to 200 do
    let s = Ladq.pop_min q ~max_time:infinity in
    if s >= 0 then begin
      if times.(s) < !last then monotone := false;
      last := times.(s);
      (* insert behind the remaining cluster but ahead of the clock *)
      if !next_slot < cap then begin
        add !next_slot (!last +. 1e-9);
        incr next_slot
      end
    end
  done;
  let rec drain () =
    let s = Ladq.pop_min q ~max_time:infinity in
    if s >= 0 then begin
      if times.(s) < !last then monotone := false;
      last := times.(s);
      drain ()
    end
  in
  drain ();
  Alcotest.(check bool) "pop times monotone under mid-drain inserts" true !monotone;
  Alcotest.(check int) "nothing lost" 0 (Ladq.size q)

let test_heap_equal_times () =
  (* the heap through the same raw driver, on a lattice of equal times:
     ties pop in seq order *)
  let n = 500 in
  let times = Array.init n (fun i -> float_of_int ((i * 5) mod 7) /. 2.) in
  let q = Binq.create () in
  let order = List.init n (fun i -> i) in
  let popped = pop_all Binq.add Binq.pop_min q times order in
  Alcotest.(check (list int))
    "sorted by (time, seq)"
    (List.stable_sort (fun a b -> compare times.(a) times.(b)) order)
    popped;
  Alcotest.(check int) "drained" 0 (Binq.size q)

(* Every raw backend against a sorted-list model, with pops interleaved
   between inserts: [pop_min] under a time cut-off and the bounded
   [pop_before].  Inserts never predate the last removal, as the engine
   guarantees. *)
type raw_op = Add of float | Pop_min of float | Pop_before of float * int

type raw = {
  add : float array -> seq:int -> slot:int -> unit;
  pop_min : max_time:float -> int;
  pop_before : float array -> slot:int -> seq:int -> int;
}

let raw_backends () =
  [
    ( "heap",
      let q = Binq.create () in
      { add = Binq.add q; pop_min = Binq.pop_min q; pop_before = Binq.pop_before q } );
    ( "calendar",
      let q = Calq.create () in
      { add = Calq.add q; pop_min = Calq.pop_min q; pop_before = Calq.pop_before q } );
    ( "ladder",
      let q = Ladq.create () in
      { add = Ladq.add q; pop_min = Ladq.pop_min q; pop_before = Ladq.pop_before q } );
  ]

let raw_ops_gen =
  QCheck.Gen.(
    (* offsets from the last removed time: a lattice, so equal times
       abound, plus a continuous range *)
    let off =
      oneof [ map (fun k -> float_of_int k /. 4.) (int_bound 8); float_bound_exclusive 2. ]
    in
    list_size (int_range 1 150)
      (frequency
         [
           (5, map (fun o -> Add o) off);
           (2, map (fun o -> Pop_min o) off);
           (3, map2 (fun o s -> Pop_before (o, s)) off (int_bound 160));
         ]))

(* The outputs of one script: each pop's slot (or -1), then the drain. *)
let raw_run (r : raw) ops =
  let times = Array.make 152 0. in
  let bound = 151 in
  let last = ref 0. and next = ref 0 in
  let out = ref [] in
  let popped s =
    if s >= 0 then last := times.(s);
    out := s :: !out
  in
  List.iter
    (function
      | Add o ->
          times.(!next) <- !last +. o;
          r.add times ~seq:!next ~slot:!next;
          incr next
      | Pop_min o -> popped (r.pop_min ~max_time:(!last +. o))
      | Pop_before (o, seq) ->
          times.(bound) <- !last +. o;
          popped (r.pop_before times ~slot:bound ~seq))
    ops;
  let rec drain () =
    let s = r.pop_min ~max_time:infinity in
    if s >= 0 then begin
      out := s :: !out;
      drain ()
    end
  in
  drain ();
  List.rev !out

(* The same script on a list sorted by (time, seq); slot = seq. *)
let raw_model ops =
  let times = Array.make 152 0. in
  let last = ref 0. and next = ref 0 and pending = ref [] and out = ref [] in
  let pop_if ok =
    match !pending with
    | s :: rest when ok s ->
        pending := rest;
        last := times.(s);
        out := s :: !out
    | _ -> out := -1 :: !out
  in
  List.iter
    (function
      | Add o ->
          let s = !next in
          times.(s) <- !last +. o;
          incr next;
          pending :=
            List.stable_sort (fun a b -> compare times.(a) times.(b)) (!pending @ [ s ])
      | Pop_min o ->
          let cut = !last +. o in
          pop_if (fun s -> times.(s) <= cut)
      | Pop_before (o, seq) ->
          let bt = !last +. o in
          pop_if (fun s -> times.(s) < bt || (times.(s) = bt && s < seq)))
    ops;
  List.rev_append !out !pending

let test_raw_backends_match_model =
  Helpers.qtest ~count:300 "des: raw backends match the model under bounded pops"
    (QCheck.make
       ~print:(fun ops ->
         String.concat "; "
           (List.map
              (function
                | Add o -> Printf.sprintf "add +%g" o
                | Pop_min o -> Printf.sprintf "pop_min +%g" o
                | Pop_before (o, s) -> Printf.sprintf "pop_before +%g #%d" o s)
              ops))
       raw_ops_gen)
    (fun ops ->
      let model = raw_model ops in
      List.for_all (fun (_, r) -> raw_run r ops = model) (raw_backends ()))

(* ------------------------------------------------------------------ *)
(* Packed codec                                                        *)

let test_packed_roundtrip =
  Helpers.qtest ~count:300 "des: packed codec round-trips"
    QCheck.(
      triple (int_bound ((1 lsl Packed.kind_bits) - 1))
        (int_bound ((1 lsl Packed.id_bits) - 1))
        (int_bound ((1 lsl Packed.id_bits) - 1)))
    (fun (kind, src, dst) ->
      let code = Packed.pack_checked ~kind ~src ~dst in
      code >= 0 && Packed.kind code = kind && Packed.src code = src && Packed.dst code = dst)

let test_packed_bounds () =
  List.iter
    (fun (name, f) ->
      Alcotest.(check bool)
        (name ^ " out of range rejected")
        true
        (try
           ignore (f ());
           false
         with Invalid_argument msg -> Helpers.contains msg name))
    [
      ("kind", fun () -> Packed.pack_checked ~kind:(1 lsl Packed.kind_bits) ~src:0 ~dst:0);
      ("src", fun () -> Packed.pack_checked ~kind:0 ~src:(-1) ~dst:0);
      ("dst", fun () -> Packed.pack_checked ~kind:0 ~src:0 ~dst:(1 lsl Packed.id_bits));
    ]

(* ------------------------------------------------------------------ *)
(* Engine error paths, per backend                                     *)

let test_engine_errors () =
  List.iter
    (fun backend ->
      let eng = Engine.create ~backend () in
      Alcotest.(check bool)
        "negative delay rejected" true
        (try
           Engine.schedule_packed eng ~delay:(-1.) 0;
           false
         with Invalid_argument _ -> true);
      Alcotest.(check bool)
        "negative code rejected" true
        (try
           Engine.schedule_packed eng ~delay:0. (-1);
           false
         with Invalid_argument _ -> true);
      Alcotest.(check bool)
        "packed event without handler fails loudly" true
        (try
           Engine.schedule_packed eng ~delay:0. 7;
           ignore (Engine.drain eng);
           false
         with Invalid_argument _ -> true))
    Engine.backends

let suite =
  [
    Alcotest.test_case "des: closure/packed order matches across backends" `Quick
      test_backend_equivalence_closures;
    Alcotest.test_case "des: calendar queue resizes and sorts" `Quick test_calendar_resize;
    Alcotest.test_case "des: ladder queue spawns rungs and sorts" `Quick test_ladder_spawn;
    Alcotest.test_case "des: ladder equal-key cluster sorts by seq" `Quick
      test_ladder_equal_key_cluster;
    Alcotest.test_case "des: ladder insert into drained span stays ordered" `Quick
      test_ladder_insert_into_drained_span;
    Alcotest.test_case "des: heap pops equal times in seq order" `Quick test_heap_equal_times;
    Alcotest.test_case "des: dump/restore while the lane holds events" `Quick test_dump_with_lane;
    Alcotest.test_case "des: a fired closure is collectable" `Quick test_fired_closure_released;
    Alcotest.test_case "des: packed bounds checks" `Quick test_packed_bounds;
    Alcotest.test_case "des: engine error paths per backend" `Quick test_engine_errors;
    test_backend_equivalence;
    test_engine_matches_model;
    test_raw_backends_match_model;
    test_packed_roundtrip;
  ]
