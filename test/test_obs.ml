(* The observability layer: counters must be monotone and gated on the
   global switch, spans must nest and unwind, histogram bucket
   boundaries must be exact at powers of two, and run manifests must
   round-trip through their JSON encoder — these invariants are what the
   CI manifest comparisons stand on. *)

module Obs = Stratify_obs

let with_obs f = Obs.Control.with_enabled true f

(* ------------------------------------------------------------------ *)
(* Counters                                                           *)

let test_counter_monotone () =
  with_obs (fun () ->
      let c = Obs.Counter.make "test.monotone" in
      let before = Obs.Counter.value c in
      let prev = ref before in
      for k = 0 to 20 do
        Obs.Counter.incr c;
        Obs.Counter.add c k;
        let now = Obs.Counter.value c in
        Alcotest.(check bool) "never decreases" true (now >= !prev);
        prev := now
      done;
      Alcotest.(check int) "total" (before + 21 + 210) !prev;
      Alcotest.check_raises "negative add rejected"
        (Invalid_argument "Obs.Counter.add: negative increment") (fun () ->
          Obs.Counter.add c (-1)))

let test_counter_gating () =
  Obs.Control.set_enabled false;
  let c = Obs.Counter.make "test.gated" in
  let before = Obs.Counter.value c in
  Obs.Counter.incr c;
  Obs.Counter.add c 100;
  Alcotest.(check int) "disabled probes are no-ops" before (Obs.Counter.value c);
  with_obs (fun () -> Obs.Counter.incr c);
  Alcotest.(check int) "enabled probes count" (before + 1) (Obs.Counter.value c)

let test_counter_registry () =
  let a = Obs.Counter.make "test.same-name" and b = Obs.Counter.make "test.same-name" in
  with_obs (fun () -> Obs.Counter.incr a);
  Alcotest.(check int) "make is idempotent" (Obs.Counter.value a) (Obs.Counter.value b);
  Alcotest.(check bool) "dump contains it" true
    (List.mem_assoc "test.same-name" (Obs.Counter.dump ()))

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)

let spin () =
  (* Burn a little CPU so both wall and cpu clocks advance. *)
  let acc = ref 0. in
  for i = 1 to 200_000 do
    acc := !acc +. sqrt (float_of_int i)
  done;
  ignore (Sys.opaque_identity !acc)

let test_spans_nest () =
  with_obs (fun () ->
      Obs.Span.reset ();
      Obs.Span.with_ "outer" (fun () ->
          Alcotest.(check int) "depth inside outer" 1 (Obs.Span.depth ());
          Obs.Span.with_ "inner" (fun () ->
              Alcotest.(check int) "depth inside inner" 2 (Obs.Span.depth ());
              spin ());
          spin ());
      Obs.Span.with_ "outer" (fun () -> ());
      Alcotest.(check int) "unwound" 0 (Obs.Span.depth ());
      let totals = Obs.Span.totals () in
      let wall name =
        let w, _, _ = List.assoc name totals in
        w
      in
      let count name =
        let _, _, c = List.assoc name totals in
        c
      in
      (* First-entry order, inner time contained in outer time. *)
      Alcotest.(check (list string)) "chronological order" [ "outer"; "inner" ]
        (List.map fst totals);
      Alcotest.(check int) "outer entered twice" 2 (count "outer");
      Alcotest.(check int) "inner entered once" 1 (count "inner");
      Alcotest.(check bool) "outer wall >= inner wall" true (wall "outer" >= wall "inner");
      Alcotest.(check bool) "inner wall > 0" true (wall "inner" > 0.))

let test_span_exception_safe () =
  with_obs (fun () ->
      Obs.Span.reset ();
      (try Obs.Span.with_ "boom" (fun () -> failwith "kernel exploded")
       with Failure _ -> ());
      Alcotest.(check int) "stack unwound on raise" 0 (Obs.Span.depth ());
      let _, _, count = List.assoc "boom" (Obs.Span.totals ()) in
      Alcotest.(check int) "interval still recorded" 1 count)

(* ------------------------------------------------------------------ *)
(* Histograms                                                         *)

let test_histogram_buckets_exact () =
  (* Power-of-two boundaries are exact: 2^k - 1 and 2^k always land in
     adjacent buckets, for every k. *)
  Alcotest.(check int) "zero" 0 (Obs.Histogram.bucket_of 0);
  Alcotest.(check int) "negative clamps" 0 (Obs.Histogram.bucket_of (-5));
  Alcotest.(check int) "one" 1 (Obs.Histogram.bucket_of 1);
  for k = 1 to 61 do
    let pow = 1 lsl k in
    Alcotest.(check int) (Printf.sprintf "bucket of 2^%d" k) (k + 1) (Obs.Histogram.bucket_of pow);
    Alcotest.(check int)
      (Printf.sprintf "bucket of 2^%d - 1" k)
      k
      (Obs.Histogram.bucket_of (pow - 1));
    Alcotest.(check int)
      (Printf.sprintf "lower bound of bucket %d" (k + 1))
      pow
      (Obs.Histogram.lower_bound (k + 1))
  done

let test_histogram_counts () =
  with_obs (fun () ->
      let h = Obs.Histogram.make "test.hist" in
      let base = Obs.Histogram.total h in
      List.iter (Obs.Histogram.observe h) [ 0; 1; 1; 3; 4; 1023; 1024 ];
      Alcotest.(check int) "total" (base + 7) (Obs.Histogram.total h);
      let counts = Obs.Histogram.counts h in
      Alcotest.(check int) "bucket 0 (zeros)" 1 counts.(0);
      Alcotest.(check int) "bucket 1 (ones)" 2 counts.(1);
      Alcotest.(check int) "bucket 2 (2..3)" 1 counts.(2);
      Alcotest.(check int) "bucket 3 (4..7)" 1 counts.(3);
      Alcotest.(check int) "bucket 10 (512..1023)" 1 counts.(10);
      Alcotest.(check int) "bucket 11 (1024..2047)" 1 counts.(11);
      Alcotest.(check bool) "dump lists non-empty histograms" true
        (List.mem_assoc "test.hist" (Obs.Histogram.dump ())))

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)

let test_json_roundtrip () =
  let open Stratify_obs.Jsonx in
  let samples =
    [
      Null;
      Bool true;
      Int 0;
      Int (-123456789);
      Float 0.05;
      Float 1.6180339887498949;
      Float (-1e-300);
      Float 12345678901234567890.;
      Float 17151476436924556.;
      String "plain";
      String "esc \"quotes\" back\\slash\nnewline\ttab\001ctl";
      List [ Int 1; List []; Obj [] ];
      Obj [ ("a", Int 1); ("nested", Obj [ ("b", List [ Float 2.5; Null ]) ]) ];
    ]
  in
  List.iter
    (fun v ->
      Alcotest.(check bool) "pretty round-trip" true (of_string (to_string v) = v);
      Alcotest.(check bool) "compact round-trip" true
        (of_string (to_string ~indent:false v) = v))
    samples;
  (* Unicode escapes decode to UTF-8. *)
  Alcotest.(check bool) "\\u escape" true (of_string {|"é€"|} = String "\xc3\xa9\xe2\x82\xac");
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "parse error on %S" bad)
        true
        (match of_string bad with exception Parse_error _ -> true | _ -> false))
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "12 34"; "nul" ]

let check_parse_error what input expected =
  match Obs.Jsonx.of_string input with
  | exception Obs.Jsonx.Parse_error msg -> Alcotest.(check string) what expected msg
  | _ -> Alcotest.failf "%s: %S parsed" what input

let test_json_rejects_duplicate_keys () =
  check_parse_error "top level" {|{"horizon": 150.0, "horizon": 1.0}|}
    {|duplicate key "horizon" at byte 19|};
  check_parse_error "nested" {|{"a": [{"b": 1, "b": 2}]}|} {|duplicate key "b" at byte 16|};
  (* The same key in sibling objects is no duplicate. *)
  ignore (Obs.Jsonx.of_string {|[{"a": 1}, {"a": 2}]|});
  (* Small objects scan a list, larger ones a hash set: repeat the first
     and the last key of objects on both sides of the switch. *)
  let field i = Printf.sprintf {|"k%d": %d|} i i in
  List.iter
    (fun n ->
      let fields = List.init n field in
      let prefix = "{" ^ String.concat ", " fields in
      ignore (Obs.Jsonx.of_string (prefix ^ "}"));
      List.iter
        (fun dup ->
          check_parse_error
            (Printf.sprintf "%d keys, then k%d again" n dup)
            (prefix ^ ", " ^ field dup ^ "}")
            (Printf.sprintf {|duplicate key "k%d" at byte %d|} dup (String.length prefix + 2)))
        [ 0; n - 1 ])
    [ 1; 2; 15; 16; 17; 40 ]

let test_json_rejects_non_finite_numbers () =
  check_parse_error "bare" "1e999" "non-finite number 1e999 at byte 0";
  check_parse_error "member" {|{"horizon": 1e999}|}
    {|non-finite number 1e999 for key "horizon" at byte 12|};
  check_parse_error "array member" {|{"xs": [1.0, -1e999]}|}
    {|non-finite number -1e999 for key "xs" at byte 13|};
  let huge = String.make 400 '9' in
  check_parse_error "integer past max_float" ("[" ^ huge ^ "]")
    (Printf.sprintf "non-finite number %s at byte 1" huge);
  Alcotest.(check bool) "1e308 is finite" true
    (Obs.Jsonx.of_string "1e308" = Obs.Jsonx.Float 1e308)

(* JSON numbers follow the grammar: a sign, a leading zero or a bare
   point is refused, with the run of number bytes and its end offset. *)
let test_json_rejects_non_json_numbers () =
  check_parse_error "plus sign" "+5" "bad number +5 at byte 2";
  check_parse_error "leading zero" {|{"horizon": 040.0}|} "bad number 040.0 at byte 17";
  check_parse_error "no integer part" "[.5]" "bad number .5 at byte 3";
  check_parse_error "no fraction digits" "5." "bad number 5. at byte 2";
  check_parse_error "point before exponent" "1.e5" "bad number 1.e5 at byte 4";
  let open Obs.Jsonx in
  Alcotest.(check bool) "-0 is Int 0" true (of_string "-0" = Int 0);
  Alcotest.(check bool) "max_int + 1 reads as a float" true
    (of_string "4611686018427387904" = Float 4.6116860184273879e18);
  Alcotest.(check bool) "min_int is an int" true (of_string "-4611686018427387904" = Int min_int)

(* [\u] takes exactly four hex digits; a surrogate pair is one code
   point in four UTF-8 bytes, and a lone surrogate is refused. *)
let test_json_unicode_escapes () =
  check_parse_error "underscore in the digits" {|"\u1_23"|} {|bad \u escape 1_23 at byte 7|};
  check_parse_error "lone high surrogate" {|"\uD800"|} {|bad \u escape D800 at byte 7|};
  check_parse_error "high surrogate, then no low one" {|"\ud800A"|}
    {|bad \u escape d800 at byte 7|};
  check_parse_error "lone low surrogate" {|["\uDC00"]|} {|bad \u escape DC00 at byte 8|};
  Alcotest.(check bool) "surrogate pair is UTF-8" true
    (Obs.Jsonx.of_string {|"\ud83d\ude00"|} = Obs.Jsonx.String "\xF0\x9F\x98\x80")

(* Containers nest at most 512 deep, so a deep input fails at once
   instead of costing time quadratic in its depth. *)
let test_json_nesting_bounded () =
  let nested depth = String.make depth '[' ^ String.make depth ']' in
  ignore (Obs.Jsonx.of_string (nested 512));
  check_parse_error "depth 513" (nested 513) "nesting deeper than 512 at byte 512";
  let objects = String.concat "" (List.init 513 (fun _ -> {|{"a": |})) in
  check_parse_error "objects" objects "nesting deeper than 512 at byte 3072";
  let t0 = Unix.gettimeofday () in
  check_parse_error "depth 10^6" (nested 1_000_000) "nesting deeper than 512 at byte 512";
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed > 0.5 then Alcotest.failf "depth 10^6 took %.2f s" elapsed

(* ---- scanner laws ---------------------------------------------------- *)

(* Equality with floats compared bit for bit, so -0.0 differs from 0.0. *)
let rec same_json a b =
  let open Obs.Jsonx in
  match (a, b) with
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | List x, List y -> List.length x = List.length y && List.for_all2 same_json x y
  | Obj x, Obj y ->
      List.length x = List.length y
      && List.for_all2 (fun (k, v) (k', v') -> String.equal k k' && same_json v v') x y
  | _ -> a = b

let json_gen =
  let open QCheck.Gen in
  let open Obs.Jsonx in
  let text =
    oneof
      [
        string_size ~gen:char (int_bound 10);
        oneofl [ "\""; "\\"; "/"; "\n\r\t\b\012"; "\000\001\031"; "é€😀"; "ключ"; "" ];
      ]
  in
  let bits_float =
    map2
      (fun i top ->
        let bits = Int64.of_int i in
        Int64.float_of_bits (if top then Int64.logxor bits Int64.min_int else bits))
      int bool
  in
  let decimal =
    map2
      (fun x k -> float_of_string (Printf.sprintf "%.*f" k x))
      (float_range (-1e4) 1e4) (int_range 1 6)
  in
  let number =
    oneof
      [
        map (fun i -> Int i) (oneof [ small_signed_int; int; oneofl [ 0; max_int; min_int ] ]);
        map
          (fun f -> Float f)
          (oneof
             [
               decimal;
               map2 ldexp (float_range (-1.) 1.) (int_range (-40) 60);
               map (fun f -> if Float.is_finite f then f else 0.5) bits_float;
               oneofl
                 [ -0.0; 5e-324; 2.2250738585072014e-308; 1e308; -1e308; max_float; 1e16;
                   9007199254740992.; 0.1 ];
             ]);
      ]
  in
  let leaf =
    oneof [ return Null; map (fun b -> Bool b) bool; number; map (fun s -> String s) text ]
  in
  let distinct kvs =
    List.fold_left (fun acc (k, v) -> if List.mem_assoc k acc then acc else acc @ [ (k, v) ]) [] kvs
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> List l) (list_size (int_bound 5) (self (n / 3))));
               ( 1,
                 map
                   (fun kvs -> Obj (distinct kvs))
                   (list_size (int_bound 5) (pair text (self (n / 3)))) );
             ])

let json_arb = QCheck.make ~print:(Obs.Jsonx.to_string ~indent:false) json_gen

let roundtrip_law v =
  let open Obs.Jsonx in
  same_json (of_string (to_string v)) v && same_json (of_string (to_string ~indent:false v)) v

(* The decimal fast path agrees with float_of_string bit for bit: below
   2^20 with at most 9 decimals, every literal takes it. *)
let decimal_literal =
  QCheck.make ~print:Fun.id
    QCheck.Gen.(
      map3
        (fun x e k -> Printf.sprintf "%.*f" k (ldexp x e))
        (float_range (-1.) 1.) (int_range (-30) 20) (int_range 1 9))

let decimal_law lit =
  match Obs.Jsonx.of_string lit with
  | Obs.Jsonx.Float f ->
      Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float (float_of_string lit))
  | _ -> false

(* Byte flips and truncations of a printed tree give a value or a
   Parse_error, never another exception. *)
let mutated =
  QCheck.make
    ~print:(fun (v, flips, cut) ->
      Printf.sprintf "%s, flips %s, cut %d" (Obs.Jsonx.to_string ~indent:false v)
        (String.concat " " (List.map (fun (i, c) -> Printf.sprintf "%d:%C" i c) flips))
        cut)
    QCheck.Gen.(triple json_gen (list_size (int_range 1 3) (pair nat char)) nat)

let mutation_law (v, flips, cut) =
  let b = Bytes.of_string (Obs.Jsonx.to_string ~indent:(cut mod 2 = 0) v) in
  List.iter (fun (i, c) -> Bytes.set b (i mod Bytes.length b) c) flips;
  let length = if cut mod 3 = 0 then cut mod (Bytes.length b + 1) else Bytes.length b in
  let text = Bytes.sub_string b 0 length in
  match Obs.Jsonx.of_string text with _ -> true | exception Obs.Jsonx.Parse_error _ -> true

(* The reader allocates little beyond the tree it returns: at most 2
   minor words per input byte on a serve script of 10^4 requests. *)
let test_json_allocation () =
  let module R = Stratify_serve.Request in
  let spec sid size = { R.sid; size; d = 20.; loss = 0.; partitions = []; piece = None } in
  let request i =
    let peer = i * 7919 mod 10_000 and swarm = [| "lossy"; "pieces"; "clean" |].(i mod 3) in
    let kind =
      match i mod 20 with
      | 0 -> R.Join { peer; swarm }
      | 1 -> R.Leave { peer; swarm }
      | 2 -> R.Scrape { swarm }
      | 3 -> R.Stats
      | _ -> R.Announce { peer; swarm; want = 1 + (i mod 50) }
    in
    { R.at = float_of_int i /. 500.; kind }
  in
  let script =
    {
      R.name = "allocation";
      seed = 11;
      world =
        { R.n = 10_000; d = 10.; b = 3; churn_rate = 1.; bands = 4;
          swarms = [ spec "lossy" 1000; spec "pieces" 600; spec "clean" 300 ] };
      requests = Array.init 10_000 request;
      horizon = 20.;
    }
  in
  let text = Obs.Jsonx.to_string ~indent:false (R.to_json script) in
  let before = Gc.minor_words () in
  let tree = Obs.Jsonx.of_string text in
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity tree);
  let per_byte = words /. float_of_int (String.length text) in
  if per_byte > 2. then
    Alcotest.failf "%.0f minor words for %d bytes: %.2f per byte" words (String.length text)
      per_byte

let test_manifest_roundtrip () =
  let m =
    {
      Obs.Run_manifest.schema_version = Obs.Run_manifest.schema_version;
      kind = "experiment";
      name = "fig1";
      seed = 42;
      scale = 0.05;
      jobs = 7;
      git = "81de300-dirty";
      cores = 4;
      phases =
        [
          { Obs.Run_manifest.phase = "fig1"; wall_s = 1.25; cpu_s = 1.1875; count = 1 };
          { Obs.Run_manifest.phase = "exec.drain"; wall_s = 0.7071067811865476; cpu_s = 0.7; count = 3 };
        ];
      counters = [ ("initiative.performed", 278); ("sim.steps", 4200) ];
      histograms = [ ("exec.chunk_ns", [| 0; 0; 3; 1 |]) ];
      metrics = [ ("replicas_per_sec/2", 304.94) ];
      profile =
        [
          {
            Obs.Profile.kernel = "greedy.build";
            wall_s = 0.5;
            count = 2;
            ops = 20000;
            minor_words = 1234.;
            major_words = 56.;
            promoted_words = 7.;
          };
        ];
    }
  in
  let back = Obs.Run_manifest.of_string (Obs.Run_manifest.to_string m) in
  Alcotest.(check bool) "manifest round-trips" true (back = m);
  Alcotest.(check (option int)) "counter accessor" (Some 4200)
    (Obs.Run_manifest.counter back "sim.steps");
  Alcotest.(check (option (float 1e-9))) "metric accessor" (Some 304.94)
    (Obs.Run_manifest.metric back "replicas_per_sec/2");
  (* File round-trip through write/read. *)
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "stratify-obs-test" in
  let path = Obs.Run_manifest.write ~dir m in
  Alcotest.(check bool) "file name" true (Filename.basename path = "fig1-42.json");
  Alcotest.(check bool) "file round-trips" true (Obs.Run_manifest.read path = m)

(* A malformed manifest names the field: a missing section, and a key
   the schema does not declare. *)
let test_manifest_errors () =
  let good =
    Obs.Jsonx.of_string
      {|{"schema_version": 1, "kind": "bench", "name": "x", "seed": 42, "scale": 1.0, "jobs": 1,
         "git": "g", "cores": 1, "phases": [], "counters": {}, "histograms": {}, "metrics": {}}|}
  in
  ignore (Obs.Run_manifest.of_json good);
  let expect what fragment edit =
    match Obs.Run_manifest.of_json (edit good) with
    | _ -> Alcotest.failf "%s: manifest accepted" what
    | exception Obs.Jsonx.Parse_error msg ->
        if not (Helpers.contains msg fragment) then
          Alcotest.failf "%s: %S lacks %S" what msg fragment
  in
  let fields f = function Obs.Jsonx.Obj kv -> Obs.Jsonx.Obj (f kv) | j -> j in
  expect "no counters" {|manifest: missing field "counters"|}
    (fields (List.filter (fun (k, _) -> k <> "counters")));
  expect "typo'd seed" {|manifest: unknown field "sede"|}
    (fields (fun kv -> kv @ [ ("sede", Obs.Jsonx.Int 43) ]));
  (* A hand-built tree may repeat a declared key; that hides no typo. *)
  ignore (Obs.Run_manifest.of_json (fields (fun kv -> kv @ [ ("seed", Obs.Jsonx.Int 43) ]) good));
  expect "repeated seed and typo'd seed" {|manifest: unknown field "sede"|}
    (fields (fun kv -> kv @ [ ("seed", Obs.Jsonx.Int 43); ("sede", Obs.Jsonx.Int 43) ]))

let test_capture_snapshots_probes () =
  with_obs (fun () ->
      Obs.Span.reset ();
      let c = Obs.Counter.make "test.capture" in
      Obs.Span.with_ "phase-a" (fun () -> Obs.Counter.add c 5);
      let m =
        Obs.Run_manifest.capture ~kind:"experiment" ~name:"unit" ~seed:1 ~scale:1.0 ~jobs:1 ()
      in
      Alcotest.(check bool) "captured counter" true
        (match Obs.Run_manifest.counter m "test.capture" with Some v -> v >= 5 | None -> false);
      Alcotest.(check bool) "captured phase" true
        (List.exists (fun p -> p.Obs.Run_manifest.phase = "phase-a") m.Obs.Run_manifest.phases);
      Alcotest.(check int) "schema version" Obs.Run_manifest.schema_version m.Obs.Run_manifest.schema_version)

(* A profiled interval counts exactly the minor words allocated inside
   it, whatever the minor heap held before and whether or not a
   collection falls inside. *)
let test_profile_counts_minor_words () =
  Obs.Profile.reset ();
  Obs.Profile.set_enabled true;
  let sink = ref [||] in
  let window blocks =
    let snap = Obs.Profile.start () in
    for _ = 1 to blocks do
      sink := Sys.opaque_identity (Array.make 9 0)
    done;
    Obs.Profile.stop "test.window" snap
  in
  (* 10 words a block (header + 9 fields); the second window spans
     several minor collections. *)
  window 100;
  window 200_000;
  Obs.Profile.set_enabled false;
  let row = List.find (fun r -> r.Obs.Profile.kernel = "test.window") (Obs.Profile.snapshot ()) in
  Obs.Profile.reset ();
  Alcotest.(check int) "two windows" 2 row.Obs.Profile.count;
  let expected = 10. *. 200_100. in
  Alcotest.(check bool)
    (Printf.sprintf "minor words %.0f within 16 of %.0f" row.Obs.Profile.minor_words expected)
    true
    (Float.abs (row.Obs.Profile.minor_words -. expected) <= 16.)

let suite =
  [
    Alcotest.test_case "counters are monotone" `Quick test_counter_monotone;
    Alcotest.test_case "counters gated on the switch" `Quick test_counter_gating;
    Alcotest.test_case "counter registry idempotent" `Quick test_counter_registry;
    Alcotest.test_case "spans nest correctly" `Quick test_spans_nest;
    Alcotest.test_case "spans survive exceptions" `Quick test_span_exception_safe;
    Alcotest.test_case "histogram buckets exact at powers of two" `Quick
      test_histogram_buckets_exact;
    Alcotest.test_case "histogram counts" `Quick test_histogram_counts;
    Alcotest.test_case "JSON round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "JSON rejects duplicate keys" `Quick test_json_rejects_duplicate_keys;
    Alcotest.test_case "JSON rejects non-finite numbers" `Quick
      test_json_rejects_non_finite_numbers;
    Alcotest.test_case "JSON rejects non-JSON numbers" `Quick test_json_rejects_non_json_numbers;
    Alcotest.test_case "JSON \\u escapes are UTF-8" `Quick test_json_unicode_escapes;
    Alcotest.test_case "JSON nesting is bounded" `Quick test_json_nesting_bounded;
    Helpers.qtest ~count:500 "JSON round-trips bit for bit" json_arb roundtrip_law;
    Helpers.qtest ~count:100_000 "JSON decimals match float_of_string" decimal_literal decimal_law;
    Helpers.qtest ~count:2000 "JSON mutations fail by name" mutated mutation_law;
    Alcotest.test_case "JSON reader allocates <= 2 words/byte" `Quick test_json_allocation;
    Alcotest.test_case "manifest round-trip" `Quick test_manifest_roundtrip;
    Alcotest.test_case "manifest errors name the field" `Quick test_manifest_errors;
    Alcotest.test_case "capture snapshots live probes" `Quick test_capture_snapshots_probes;
    Alcotest.test_case "profile counts minor words exactly" `Quick test_profile_counts_minor_words;
  ]
