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
    (fields (fun kv -> kv @ [ ("sede", Obs.Jsonx.Int 43) ]))

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
    Alcotest.test_case "manifest round-trip" `Quick test_manifest_roundtrip;
    Alcotest.test_case "manifest errors name the field" `Quick test_manifest_errors;
    Alcotest.test_case "capture snapshots live probes" `Quick test_capture_snapshots_probes;
    Alcotest.test_case "profile counts minor words exactly" `Quick test_profile_counts_minor_words;
  ]
