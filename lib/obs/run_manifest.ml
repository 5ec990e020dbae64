type phase = { phase : string; wall_s : float; cpu_s : float; count : int }

type t = {
  schema_version : int;
  kind : string;
  name : string;
  seed : int;
  scale : float;
  jobs : int;
  git : string;
  cores : int;
  phases : phase list;
  counters : (string * int) list;
  histograms : (string * int array) list;
  metrics : (string * float) list;
  profile : Profile.entry list;
}

let schema_version = 1

let git_describe () =
  try
    let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, s when s <> "" -> s
    | _ -> "unknown"
  with _ -> "unknown"

let capture ~kind ~name ~seed ~scale ~jobs ?(metrics = []) () =
  {
    schema_version;
    kind;
    name;
    seed;
    scale;
    jobs;
    git = git_describe ();
    cores = Domain.recommended_domain_count ();
    phases =
      List.map
        (fun (phase, (wall_s, cpu_s, count)) -> { phase; wall_s; cpu_s; count })
        (Span.totals ());
    counters = Counter.dump ();
    histograms = Histogram.dump ();
    metrics;
    (* Empty unless this run enabled [Profile] and kernels recorded rows
       — and an empty list is omitted from the JSON, so non-profiled
       manifests are byte-identical to the pre-profile schema. *)
    profile = Profile.snapshot ();
  }

let counter t name = List.assoc_opt name t.counters
let metric t name = List.assoc_opt name t.metrics
let profile_row t name = List.find_opt (fun (r : Profile.entry) -> r.kernel = name) t.profile

(* ------------------------------------------------------------------ *)
(* JSON encoding                                                      *)

open struct
  open Codec

  let phase =
    obj
      (record (fun phase wall_s cpu_s count -> { phase; wall_s; cpu_s; count })
      |+ req "name" string (fun p -> p.phase)
      |+ req "wall_s" float (fun p -> p.wall_s)
      |+ req "cpu_s" float (fun p -> p.cpu_s)
      |+ req "count" int (fun p -> p.count))

  let profile_entry =
    let open Profile in
    obj
      (record (fun kernel wall_s count ops minor_words major_words promoted_words ->
           { kernel; wall_s; count; ops; minor_words; major_words; promoted_words })
      |+ req "kernel" string (fun r -> r.kernel)
      |+ req "wall_s" float (fun r -> r.wall_s)
      |+ req "count" int (fun r -> r.count)
      |+ req "ops" int (fun r -> r.ops)
      |+ req "minor_words" float (fun r -> r.minor_words)
      |+ req "major_words" float (fun r -> r.major_words)
      |+ req "promoted_words" float (fun r -> r.promoted_words))

  let manifest =
    obj
      (record
         (fun schema_version kind name seed scale jobs git cores phases counters histograms
              metrics profile ->
           { schema_version; kind; name; seed; scale; jobs; git; cores; phases; counters;
             histograms; metrics; profile })
      |+ req "schema_version" int (fun t -> t.schema_version)
      |+ req "kind" string (fun t -> t.kind)
      |+ req "name" string (fun t -> t.name)
      |+ req "seed" int (fun t -> t.seed)
      |+ req "scale" float (fun t -> t.scale)
      |+ req "jobs" int (fun t -> t.jobs)
      |+ req "git" string (fun t -> t.git)
      |+ req "cores" int (fun t -> t.cores)
      |+ req "phases" (list phase) (fun t -> t.phases)
      |+ req "counters" (assoc int) (fun t -> t.counters)
      |+ req "histograms" (assoc (array int)) (fun t -> t.histograms)
      |+ req "metrics" (assoc float) (fun t -> t.metrics)
      |+ omit "profile" (list profile_entry) ~default:[] (fun t -> t.profile))
end

let to_json = manifest.enc
let of_json = Codec.decode ~what:"manifest" manifest
let to_string t = Jsonx.to_string (to_json t) ^ "\n"
let of_string s = of_json (Jsonx.of_string (String.trim s))

(* ------------------------------------------------------------------ *)
(* Files                                                              *)

let rec ensure_dir dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    ensure_dir (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_path path t =
  ensure_dir (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_string t))

let write ~dir t =
  let path = Filename.concat dir (Printf.sprintf "%s-%d.json" t.name t.seed) in
  write_path path t;
  path

let read path = of_string (In_channel.with_open_bin path In_channel.input_all)
