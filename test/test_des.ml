(* Tests for the event engine: it must pop exactly the total
   (time, seq) order of a list model, lane or no lane; its heap must
   match the model under bounded pops; non-finite times must be
   refused; plus the packed codec. *)

module Engine = Stratify_des.Engine
module Binq = Stratify_des.Binq
module Packed = Stratify_net.Net.Packed

(* ------------------------------------------------------------------ *)
(* Engine against a list model                                         *)

(* Replay a script on the engine and on a sorted-list model of the
   (time, seq) order.  Scripts mix runs of one constant delay (which the
   lane claims) with random delays, absolute schedules, [run_until]
   cut-offs, single steps, and dump/restore round trips — often while
   the lane holds events. *)
type op =
  | Rel of float * int  (** [schedule_packed ~delay code] *)
  | Abs of float * int  (** [schedule_packed_at ~time:(now + offset) code] *)
  | Until of float  (** [run_until ~time:(now + dt)] *)
  | Step
  | Dump  (** [dump_packed], then [restore_packed] into a fresh engine *)

let show_op = function
  | Rel (d, c) -> Printf.sprintf "rel %g #%d" d c
  | Abs (o, c) -> Printf.sprintf "abs +%g #%d" o c
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
          (2, map (fun dt -> [ Until dt ]) (oneof [ lattice; float_bound_exclusive 2. ]));
          (1, return [ Step ]);
          (2, return [ Dump ]);
        ]
    in
    map List.concat (list_size (int_range 1 30) chunk))

(* The engine's log: (clock, code) per firing. *)
let engine_log ops =
  let log = ref [] in
  let handler eng code =
    log := (Engine.now eng, code) :: !log;
    Option.iter (Engine.schedule_packed eng ~delay:child_delay) (child code)
  in
  let fresh eng =
    Engine.set_packed_handler eng handler;
    eng
  in
  let eng = ref (fresh (Engine.create ())) in
  List.iter
    (fun op ->
      let e = !eng in
      let now = Engine.now e in
      match op with
      | Rel (d, c) -> Engine.schedule_packed e ~delay:d c
      | Abs (o, c) -> Engine.schedule_packed_at e ~time:(now +. o) c
      | Until dt -> Engine.run_until e ~time:(now +. dt)
      | Step -> ignore (Engine.step e)
      | Dump -> eng := fresh (Engine.restore_packed ~now (Engine.dump_packed e)))
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
        Option.iter (fun c -> add (!now +. child_delay) c) (child code);
        true
    | _ -> false
  in
  List.iter
    (function
      | Rel (d, c) -> add (!now +. d) c
      | Abs (o, c) -> add (!now +. o) c
      | Until dt ->
          let target = !now +. dt in
          while fire_next target do
            ()
          done;
          now := target
      | Step -> ignore (fire_next infinity)
      | Dump -> ())
    ops;
  while fire_next infinity do
    ()
  done;
  List.rev !log

let test_engine_matches_model =
  Helpers.qtest ~count:300 "des: engine pops the list model's (time, seq) order"
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_op ops)) ops_gen)
    (fun ops -> engine_log ops = model_log ops)

let test_dump_with_lane () =
  (* a lane claimed by a constant-delay run, dumped mid-run: the dump is
     the canonical order and the restored engine replays it exactly *)
  let ops =
    [ Rel (0.7, 1); Rel (0.5, 2); Rel (0.5, 3); Rel (0.5, 4); Abs (0.5, 5); Rel (0.3, 6) ]
    @ [ Until 0.2; Rel (0.5, 7); Rel (0.5, 8); Dump; Rel (0.5, 9); Until 0.45; Dump ]
  in
  Alcotest.(check (list (pair (float 0.) int)))
    "matches the model" (model_log ops) (engine_log ops)

(* ------------------------------------------------------------------ *)
(* Raw heap structure                                                  *)

(* Drive the heap through its SoA (times, seq, slot) interface and
   return the popped slots. *)
let pop_all q times order =
  List.iteri (fun seq slot -> Binq.add q times ~seq ~slot) order;
  let out = ref [] in
  let rec go () =
    let s = Binq.pop_min q ~max_time:infinity in
    if s >= 0 then begin
      out := s :: !out;
      go ()
    end
  in
  go ();
  List.rev !out

let test_heap_equal_times () =
  (* a lattice of equal times: ties pop in seq order *)
  let n = 500 in
  let times = Array.init n (fun i -> float_of_int ((i * 5) mod 7) /. 2.) in
  let q = Binq.create () in
  let order = List.init n (fun i -> i) in
  let popped = pop_all q times order in
  Alcotest.(check (list int))
    "sorted by (time, seq)"
    (List.stable_sort (fun a b -> compare times.(a) times.(b)) order)
    popped;
  Alcotest.(check int) "drained" 0 (Binq.size q)

(* The heap against a sorted-list model, with pops interleaved between
   inserts: [pop_min] under a time cut-off and the bounded
   [pop_before].  Inserts never predate the last removal, as the engine
   guarantees. *)
type raw_op = Add of float | Pop_min of float | Pop_before of float * int

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
let raw_run ops =
  let q = Binq.create () in
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
          Binq.add q times ~seq:!next ~slot:!next;
          incr next
      | Pop_min o -> popped (Binq.pop_min q ~max_time:(!last +. o))
      | Pop_before (o, seq) ->
          times.(bound) <- !last +. o;
          popped (Binq.pop_before q times ~slot:bound ~seq))
    ops;
  let rec drain () =
    let s = Binq.pop_min q ~max_time:infinity in
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
    (fun ops -> raw_run ops = raw_model ops)

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
(* Engine error paths                                                  *)

let raises f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let test_engine_errors () =
  let eng = Engine.create () in
  Alcotest.(check bool)
    "negative delay rejected" true
    (raises (fun () -> Engine.schedule_packed eng ~delay:(-1.) 0));
  Alcotest.(check bool)
    "negative code rejected" true
    (raises (fun () -> Engine.schedule_packed eng ~delay:0. (-1)));
  Alcotest.(check bool)
    "packed event without handler fails loudly" true
    (raises (fun () ->
         Engine.schedule_packed eng ~delay:0. 7;
         ignore (Engine.drain eng)))

(* [nan] and [inf] pass every [x < 0.] test; in the heap, [nan] compares
   false against every key, so one such event used to reorder the
   events around it: times [5; 4; nan; 3; 2; 1; 0.5] popped as 2, 0.5,
   1, 3, 4, 5, then nan.  Every entry point now refuses them by name. *)
let test_non_finite_rejected () =
  let eng = Engine.create () in
  let popped = ref [] in
  Engine.set_packed_handler eng (fun e _ -> popped := Engine.now e :: !popped);
  let refused =
    List.filter
      (fun time -> raises (fun () -> Engine.schedule_packed_at eng ~time 0))
      [ 5.; 4.; nan; 3.; 2.; 1.; 0.5 ]
  in
  Alcotest.(check int) "only nan refused" 1 (List.length refused);
  Alcotest.(check bool) "drains" true (Engine.drain eng);
  Alcotest.(check (list (float 0.))) "pops in time order" [ 0.5; 1.; 2.; 3.; 4.; 5. ]
    (List.rev !popped);
  let named fn what f =
    match f () with
    | exception Invalid_argument msg ->
        if not (Helpers.contains msg fn && Helpers.contains msg what) then
          Alcotest.failf "error %S does not name %s and %s" msg fn what
    | _ -> Alcotest.failf "%s accepted %s" fn what
  in
  List.iter
    (fun (label, x) ->
      named "Engine.schedule_packed_at" label (fun () -> Engine.schedule_packed_at eng ~time:x 0);
      named "Engine.schedule_packed" label (fun () -> Engine.schedule_packed eng ~delay:x 0);
      named "Engine.run_until" label (fun () -> Engine.run_until eng ~time:x);
      named "Engine.restore_packed" label (fun () -> Engine.restore_packed ~now:x [||]);
      named "Engine.schedule_packed_at" label (fun () ->
          Engine.restore_packed ~now:1. [| (2., 0); (x, 1) |]))
    [ ("nan", nan); ("inf", infinity) ];
  Alcotest.(check int) "nothing left pending" 0 (Engine.pending eng)

let suite =
  [
    Alcotest.test_case "des: heap pops equal times in seq order" `Quick test_heap_equal_times;
    Alcotest.test_case "des: dump/restore while the lane holds events" `Quick test_dump_with_lane;
    Alcotest.test_case "des: packed bounds checks" `Quick test_packed_bounds;
    Alcotest.test_case "des: engine error paths per backend" `Quick test_engine_errors;
    Alcotest.test_case "des: non-finite times are refused" `Quick test_non_finite_rejected;
    test_engine_matches_model;
    test_raw_backends_match_model;
    test_packed_roundtrip;
  ]
