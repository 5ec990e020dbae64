type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Shortest decimal form that parses back to the same float. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s
    else
      (* An integer in [1e16, 1e17) prints without point or exponent,
         and would read back as an [Int]. *)
      let s = Printf.sprintf "%.17g" f in
      if String.exists (function '.' | 'e' -> true | _ -> false) s then s else s ^ ".0"

let rec emit buf ~indent ~level v =
  let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
  let sep () = Buffer.add_string buf (if indent then ",\n" else ", ") in
  let nl () = if indent then Buffer.add_char buf '\n' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (float_repr f)
      else Buffer.add_string buf "null" (* JSON has no NaN/inf *)
  | String s -> escape_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      nl ();
      List.iteri
        (fun i item ->
          if i > 0 then sep ();
          pad (level + 1);
          emit buf ~indent ~level:(level + 1) item)
        items;
      nl ();
      pad level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      nl ();
      List.iteri
        (fun i (k, item) ->
          if i > 0 then sep ();
          pad (level + 1);
          escape_string buf k;
          Buffer.add_string buf ": ";
          emit buf ~indent ~level:(level + 1) item)
        fields;
      nl ();
      pad level;
      Buffer.add_char buf '}'

let to_string ?(indent = true) v =
  let buf = Buffer.create 256 in
  emit buf ~indent ~level:0 v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)

(* A cursor scanner over the input: bytes are read with [unsafe_get]
   behind an explicit bound check.  Besides the returned tree it
   allocates only its key table and stack, and a buffer for a string
   that holds an escape. *)

(* The reader recurses once per level of nesting, and its time grew
   quadratically with depth past a few hundred thousand levels. *)
let max_depth = 512

(* Objects past this many keys check for duplicates in a hash set; a
   scan of the key stack is cheaper below it (request objects have 4-5
   keys). *)
let small_object = 16

type cursor = {
  src : string;
  mutable pos : int;
  (* The keys of every object being read, outermost first: an object's
     keys sit from the [top] it started at, so a duplicate is found
     without consing. *)
  mutable stack : string array;
  mutable top : int;
  (* Object keys read so far, one string per spelling, in an
     open-addressing table of [count] entries; "" marks a free slot. *)
  mutable interned : string array;
  mutable count : int;
}

let fail_at pos msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg pos))
let end_of_input cur = fail_at (String.length cur.src) "unexpected end of input"

let next cur =
  if cur.pos >= String.length cur.src then end_of_input cur;
  let c = String.unsafe_get cur.src cur.pos in
  cur.pos <- cur.pos + 1;
  c

let skip_ws cur =
  let s = cur.src in
  let i = ref cur.pos in
  while
    !i < String.length s
    && match String.unsafe_get s !i with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    incr i
  done;
  cur.pos <- !i

(* Skips white space; whether the next byte is [c]. *)
let at cur c =
  skip_ws cur;
  cur.pos < String.length cur.src && String.unsafe_get cur.src cur.pos = c

let expect cur c = if next cur <> c then fail_at cur.pos (Printf.sprintf "expected '%c'" c)

let literal cur word value =
  for i = 0 to String.length word - 1 do
    if next cur <> String.unsafe_get word i then fail_at cur.pos ("bad literal " ^ word)
  done;
  value

(* ---- strings ------------------------------------------------------- *)

(* The code unit spelt by the four hex digits at [i], or -1. *)
let hex4 s i =
  let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
  if i + 4 <= String.length s && String.for_all is_hex (String.sub s i 4) then
    int_of_string ("0x" ^ String.sub s i 4)
  else -1

let is_surrogate u tag = u land 0xFC00 = tag

(* [cur.pos] is just past the 'u' of a [\u] escape.  A high surrogate
   must be followed by an escaped low one; the pair is one code point. *)
let unicode_escape cur buf =
  let s = cur.src and start = cur.pos in
  if start + 4 > String.length s then end_of_input cur;
  cur.pos <- start + 4;
  let bad () = fail_at cur.pos ("bad \\u escape " ^ String.sub s start 4) in
  let u = hex4 s start in
  if u < 0 || is_surrogate u 0xDC00 then bad ();
  if is_surrogate u 0xD800 then begin
    let low =
      if cur.pos + 1 < String.length s && s.[cur.pos] = '\\' && s.[cur.pos + 1] = 'u' then
        hex4 s (cur.pos + 2)
      else -1
    in
    if not (is_surrogate low 0xDC00) then bad ();
    cur.pos <- cur.pos + 6;
    Buffer.add_utf_8_uchar buf (Uchar.of_int (0x10000 + ((u - 0xD800) lsl 10) + (low - 0xDC00)))
  end
  else Buffer.add_utf_8_uchar buf (Uchar.of_int u)

(* The rest of a string that holds an escape, [buf] holding what came
   before it. *)
let rec unescape cur buf =
  match next cur with
  | '"' -> Buffer.contents buf
  | '\\' ->
      (match next cur with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'u' -> unicode_escape cur buf
      | c -> fail_at cur.pos (Printf.sprintf "bad escape '\\%c'" c));
      unescape cur buf
  | c ->
      Buffer.add_char buf c;
      unescape cur buf

(* The end of the string body starting at [cur.pos]: its closing quote,
   or its first backslash. *)
let body_end cur =
  let s = cur.src in
  let i = ref cur.pos in
  while
    !i < String.length s && match String.unsafe_get s !i with '"' | '\\' -> false | _ -> true
  do
    incr i
  done;
  if !i = String.length s then end_of_input cur;
  !i

(* [cur.pos] is just past the opening quote.  Without an escape the
   string is one [String.sub]; [make] is given the body's bounds. *)
let parse_string_with cur make =
  let start = cur.pos in
  let stop = body_end cur in
  if String.unsafe_get cur.src stop = '"' then begin
    cur.pos <- stop + 1;
    make cur start stop
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    Buffer.add_substring buf cur.src start (stop - start);
    cur.pos <- stop;
    unescape cur buf
  end

let sub cur start stop = String.sub cur.src start (stop - start)

(* ---- object keys --------------------------------------------------- *)

let hash s start stop =
  let h = ref 0 in
  for i = start to stop - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get s i)
  done;
  !h land max_int

let same k s start stop =
  String.length k = stop - start
  &&
  let i = ref 0 in
  while !i < String.length k && String.unsafe_get k !i = String.unsafe_get s (start + !i) do
    incr i
  done;
  !i = String.length k

let max_probes = 8

(* The slot holding the spelling [start, stop) of [s], or the free slot
   where it goes; -1 after [max_probes] slots, so that keys whose hashes
   collide cost bounded work (they are just not shared). *)
let rec probe table s start stop j n =
  let k = table.(j) in
  if n = max_probes then -1
  else if String.length k = 0 || same k s start stop then j
  else probe table s start stop ((j + 1) land (Array.length table - 1)) (n + 1)

let slot table s start stop =
  probe table s start stop (hash s start stop land (Array.length table - 1)) 0

let grow cur =
  let old = cur.interned in
  let table = Array.make (2 * Array.length old) "" in
  Array.iter
    (fun k ->
      let j = slot table k 0 (String.length k) in
      if String.length k > 0 && j >= 0 then table.(j) <- k)
    old;
  cur.interned <- table

(* The key spelt by the source bytes [start, stop): the string already
   made for that spelling, else a new one. *)
let intern cur start stop =
  let table = cur.interned in
  let j = slot table cur.src start stop in
  if j < 0 then sub cur start stop
  else if String.length table.(j) > 0 || start = stop then table.(j)
  else begin
    let k = sub cur start stop in
    table.(j) <- k;
    cur.count <- cur.count + 1;
    if 2 * cur.count > Array.length table then grow cur;
    k
  end

let push cur k =
  if cur.top = Array.length cur.stack then begin
    let bigger = Array.make (2 * cur.top) "" in
    Array.blit cur.stack 0 bigger 0 cur.top;
    cur.stack <- bigger
  end;
  cur.stack.(cur.top) <- k;
  cur.top <- cur.top + 1

let rec on_stack cur k i = i < cur.top && (String.equal cur.stack.(i) k || on_stack cur k (i + 1))

(* Whether [k] repeats a key of the object whose keys start at [base];
   past [small_object] keys, [seen] holds them all. *)
let duplicate cur ~base seen k =
  match seen with
  | Some h ->
      let d = Hashtbl.mem h k in
      Hashtbl.replace h k ();
      d
  | None -> on_stack cur k base

let seen_after cur ~base seen =
  if cur.top - base <> small_object then seen
  else begin
    let h = Hashtbl.create (4 * small_object) in
    for i = base to cur.top - 1 do
      Hashtbl.replace h cur.stack.(i) ()
    done;
    Some h
  end

(* ---- numbers ------------------------------------------------------- *)

let is_digit s i = match String.unsafe_get s i with '0' .. '9' -> true | _ -> false

(* The end of the run of bytes a number may be made of, as errors report
   it. *)
let number_end s i =
  let i = ref i in
  while
    !i < String.length s
    && match String.unsafe_get s !i with
       | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
       | _ -> false
  do
    incr i
  done;
  !i

let digits_end s i stop =
  let i = ref i in
  while !i < stop && is_digit s !i do
    incr i
  done;
  !i

(* 10^k for k <= 22, each exact. *)
let pow10 =
  let p = Array.make 23 1. in
  for k = 1 to 22 do
    p.(k) <- p.(k - 1) *. 10.
  done;
  p

(* [key] is the member the number is the value of (or an element of),
   for the error message; [no_key] outside every object, compared with
   [==] as a member key is always a fresh string. *)
let no_key = "\000"

(* The library conversions, for the literals the fast paths leave. *)
let convert cur ~key ~integer start stop =
  let lit = sub cur start stop in
  match if integer then int_of_string_opt lit else None with
  | Some n -> Int n
  | None -> (
      match float_of_string_opt lit with
      | Some f when Float.is_finite f -> Float f
      | _ ->
          let member = if key == no_key then "" else Printf.sprintf " for key %S" key in
          fail_at start (Printf.sprintf "non-finite number %s%s" lit member))

(* The JSON grammar, -? (0 | [1-9] [0-9]* ) ([.] [0-9]+)? ([eE] [+-]? [0-9]+)?,
   read in place.  With at most 18 digits and no exponent, the digits
   make an exact int m: an integer is m, and a decimal with m <= 2^53
   is m / 10^k, both exact, so the one rounding of the division gives
   float_of_string's bits (Clinger's fast path).  The rest goes through
   {!convert}, so an integer past max_int reads as a float. *)
let parse_number cur ~key =
  let s = cur.src and start = cur.pos in
  let stop = number_end s start in
  cur.pos <- stop;
  let negative = start < stop && String.unsafe_get s start = '-' in
  let int_start = if negative then start + 1 else start in
  let int_end = digits_end s int_start stop in
  let frac_end =
    if int_end < stop && String.unsafe_get s int_end = '.' then digits_end s (int_end + 1) stop
    else int_end
  in
  let exp_end =
    if frac_end < stop && (String.unsafe_get s frac_end = 'e' || String.unsafe_get s frac_end = 'E')
    then begin
      let e = frac_end + 1 in
      let signed = e < stop && (String.unsafe_get s e = '+' || String.unsafe_get s e = '-') in
      let e = if signed then e + 1 else e in
      let d = digits_end s e stop in
      if d = e then -1 else d
    end
    else frac_end
  in
  if
    int_end = int_start
    || (int_end > int_start + 1 && String.unsafe_get s int_start = '0')
    || frac_end = int_end + 1 || exp_end <> stop
  then fail_at stop ("bad number " ^ sub cur start stop);
  let integer = frac_end = int_end in
  let frac_digits = if integer then 0 else frac_end - int_end - 1 in
  if exp_end <> frac_end || int_end - int_start + frac_digits > 18 then
    convert cur ~key ~integer:(integer && exp_end = frac_end) start stop
  else begin
    let m = ref 0 in
    for i = int_start to frac_end - 1 do
      if i <> int_end then m := (10 * !m) + Char.code (String.unsafe_get s i) - 48
    done;
    if integer then Int (if negative then - !m else !m)
    else if !m > 1 lsl 53 then convert cur ~key ~integer start stop
    else
      let f = float_of_int !m /. Array.unsafe_get pow10 frac_digits in
      Float (if negative then -.f else f)
  end

(* ---- values -------------------------------------------------------- *)

(* [depth] counts the containers around the value. *)
let rec parse_value cur ~key ~depth =
  skip_ws cur;
  if cur.pos >= String.length cur.src then end_of_input cur;
  match String.unsafe_get cur.src cur.pos with
  | 'n' -> literal cur "null" Null
  | 't' -> literal cur "true" (Bool true)
  | 'f' -> literal cur "false" (Bool false)
  | '"' ->
      cur.pos <- cur.pos + 1;
      String (parse_string_with cur sub)
  | '[' ->
      let depth = enter cur depth in
      if at cur ']' then begin
        cur.pos <- cur.pos + 1;
        List []
      end
      else List (items cur ~key ~depth)
  | '{' ->
      let depth = enter cur depth in
      if at cur '}' then begin
        cur.pos <- cur.pos + 1;
        Obj []
      end
      else Obj (members cur ~depth ~base:cur.top None)
  | _ -> parse_number cur ~key

and enter cur depth =
  if depth = max_depth then fail_at cur.pos (Printf.sprintf "nesting deeper than %d" max_depth);
  cur.pos <- cur.pos + 1;
  depth + 1

and[@tail_mod_cons] items cur ~key ~depth =
  let v = parse_value cur ~key ~depth in
  skip_ws cur;
  let sep = next cur in
  if sep <> ',' && sep <> ']' then fail_at cur.pos "expected ',' or ']'";
  if sep = ',' then v :: items cur ~key ~depth else [ v ]

and[@tail_mod_cons] members cur ~depth ~base seen =
  skip_ws cur;
  let key_at = cur.pos in
  expect cur '"';
  let k = parse_string_with cur intern in
  let seen = seen_after cur ~base seen in
  if duplicate cur ~base seen k then fail_at key_at (Printf.sprintf "duplicate key %S" k);
  push cur k;
  skip_ws cur;
  expect cur ':';
  let v = parse_value cur ~key:k ~depth in
  skip_ws cur;
  let sep = next cur in
  if sep <> ',' && sep <> '}' then fail_at cur.pos "expected ',' or '}'";
  if sep = ',' then (k, v) :: members cur ~depth ~base seen
  else begin
    cur.top <- base;
    [ (k, v) ]
  end

let of_string s =
  let cur =
    { src = s; pos = 0; stack = Array.make 16 ""; top = 0; interned = Array.make 64 ""; count = 0 }
  in
  let v = parse_value cur ~key:no_key ~depth:0 in
  skip_ws cur;
  if cur.pos <> String.length s then fail_at cur.pos "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | List _ -> "array"
  | Obj _ -> "object"

let shape_error what v =
  raise (Parse_error (Printf.sprintf "expected %s, got %s" what (type_name v)))

let member key = function
  | Obj fields -> ( match List.assoc_opt key fields with Some v -> v | None -> Null)
  | v -> shape_error ("object with member " ^ key) v

let get_float = function Float f -> f | Int i -> float_of_int i | v -> shape_error "number" v
let get_list = function List l -> l | v -> shape_error "array" v
let get_obj = function Obj o -> o | v -> shape_error "object" v
