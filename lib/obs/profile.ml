(* Per-kernel profiling: wall time plus GC allocation deltas, keyed by
   kernel name.  Unlike [Span] (coordinator-only, nestable phase
   timings), profile rows are flat per-kernel aggregates protected by a
   mutex, because the sharded solver runs [Greedy.stable_config] inside
   worker domains.  The enable flag is separate from [Control]: counters
   stay cheap enough for every run, whereas reading [Gc.counters] and
   the clock around each kernel is something only [--profile-phases]
   runs opt into. *)

type entry = {
  kernel : string;
  wall_s : float;
  count : int;
  ops : int;
  minor_words : float;
  major_words : float;
  promoted_words : float;
}

type row = {
  mutable r_wall : float;
  mutable r_count : int;
  mutable r_ops : int;
  mutable r_minor : float;
  mutable r_major : float;
  mutable r_promoted : float;
}

let flag = Atomic.make false
let set_enabled b = Atomic.set flag b

let[@inline always] enabled () = Atomic.get flag

let mu = Mutex.create ()
let rows : (string, row) Hashtbl.t = Hashtbl.create 16
let order : string list ref = ref [] (* reversed first-entry order *)

(* call with [mu] held *)
let row_of name =
  match Hashtbl.find_opt rows name with
  | Some r -> r
  | None ->
      let r =
        { r_wall = 0.; r_count = 0; r_ops = 0; r_minor = 0.; r_major = 0.; r_promoted = 0. }
      in
      Hashtbl.add rows name r;
      order := name :: !order;
      r

type snap = { wall : float; mutable minor : float; promoted : float; major : float }

(* Shared sentinel handed out while profiling is off; [stop] recognises
   it physically, so a start/stop pair straddling an enable toggle never
   records a garbage interval. *)
let disabled_snap = { wall = 0.; minor = 0.; promoted = 0.; major = 0. }

(* Minor words come from [Gc.minor_words], exact for the calling domain:
   on OCaml 5.1 the minor count of [Gc.counters] misses most words and
   jumps by up to a minor heap's worth when a collection falls inside
   the interval, so a kernel's row depended on where earlier code left
   the minor heap.  [start] reads it last and [stop] first, so neither
   probe's own allocation is counted. *)
let start () =
  if not (enabled ()) then disabled_snap
  else begin
    let _, promoted, major = Gc.counters () in
    let snap = { wall = Unix.gettimeofday (); minor = 0.; promoted; major } in
    snap.minor <- Gc.minor_words ();
    snap
  end

let stop name ?(ops = 0) snap =
  if enabled () && snap != disabled_snap then begin
    let minor = Gc.minor_words () in
    let _, promoted, major = Gc.counters () in
    let wall = Unix.gettimeofday () -. snap.wall in
    Mutex.lock mu;
    let r = row_of name in
    r.r_wall <- r.r_wall +. wall;
    r.r_count <- r.r_count + 1;
    r.r_ops <- r.r_ops + ops;
    r.r_minor <- r.r_minor +. (minor -. snap.minor);
    r.r_major <- r.r_major +. (major -. snap.major);
    r.r_promoted <- r.r_promoted +. (promoted -. snap.promoted);
    Mutex.unlock mu
  end

let with_ name ?(ops = 0) f =
  if not (enabled ()) then f ()
  else begin
    let snap = start () in
    Fun.protect ~finally:(fun () -> stop name ~ops snap) f
  end

let snapshot () =
  Mutex.lock mu;
  let out =
    List.rev_map
      (fun kernel ->
        let r = Hashtbl.find rows kernel in
        {
          kernel;
          wall_s = r.r_wall;
          count = r.r_count;
          ops = r.r_ops;
          minor_words = r.r_minor;
          major_words = r.r_major;
          promoted_words = r.r_promoted;
        })
      !order
  in
  Mutex.unlock mu;
  out

let reset () =
  Mutex.lock mu;
  Hashtbl.reset rows;
  order := [];
  Mutex.unlock mu
