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
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

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

type cursor = { src : string; mutable pos : int }

let fail_at pos msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg pos))
let fail cur msg = fail_at cur.pos msg
let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let next cur =
  match peek cur with
  | Some c ->
      cur.pos <- cur.pos + 1;
      c
  | None -> fail cur "unexpected end of input"

let rec skip_ws cur =
  match peek cur with
  | Some (' ' | '\t' | '\n' | '\r') ->
      cur.pos <- cur.pos + 1;
      skip_ws cur
  | _ -> ()

let expect cur c = if next cur <> c then fail cur (Printf.sprintf "expected '%c'" c)

let literal cur word value =
  String.iter (fun c -> if next cur <> c then fail cur ("bad literal " ^ word)) word;
  value

let utf8_of_code buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let parse_string cur =
  let buf = Buffer.create 16 in
  let rec go () =
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
        | 'u' ->
            let hex = String.init 4 (fun _ -> next cur) in
            let u =
              try int_of_string ("0x" ^ hex) with _ -> fail cur ("bad \\u escape " ^ hex)
            in
            utf8_of_code buf u
        | c -> fail cur (Printf.sprintf "bad escape '\\%c'" c));
        go ()
    | c -> Buffer.add_char buf c; go ()
  in
  go ()

(* [key] is the member the number is the value of (or an element of),
   for the error message. *)
let parse_number cur ~key =
  let start = cur.pos in
  let numchar = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek cur with Some c -> numchar c | None -> false) do
    cur.pos <- cur.pos + 1
  done;
  let s = String.sub cur.src start (cur.pos - start) in
  let is_float = String.exists (function '.' | 'e' | 'E' -> true | _ -> false) s in
  match if is_float then None else int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f when Float.is_finite f -> Float f
      | Some _ ->
          let member = match key with Some k -> Printf.sprintf " for key %S" k | None -> "" in
          fail_at start (Printf.sprintf "non-finite number %s%s" s member)
      | None -> fail cur ("bad number " ^ s))

(* Objects past this many keys check for duplicates in a hash set; a
   list scan is cheaper below it (request objects have 4-5 keys). *)
let small_object = 16

let rec parse_value cur ~key =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' ->
      cur.pos <- cur.pos + 1;
      String (parse_string cur)
  | Some '[' ->
      cur.pos <- cur.pos + 1;
      skip_ws cur;
      if peek cur = Some ']' then begin
        cur.pos <- cur.pos + 1;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value cur ~key in
          skip_ws cur;
          match next cur with
          | ',' -> items (v :: acc)
          | ']' -> List.rev (v :: acc)
          | _ -> fail cur "expected ',' or ']'"
        in
        List (items [])
      end
  | Some '{' ->
      cur.pos <- cur.pos + 1;
      skip_ws cur;
      if peek cur = Some '}' then begin
        cur.pos <- cur.pos + 1;
        Obj []
      end
      else begin
        (* [seen] holds the keys once the object outgrows [small_object]. *)
        let rec fields acc n seen =
          skip_ws cur;
          let at = cur.pos in
          expect cur '"';
          let k = parse_string cur in
          let seen =
            if n = small_object then begin
              let h = Hashtbl.create (4 * small_object) in
              List.iter (fun (k', _) -> Hashtbl.replace h k' ()) acc;
              Some h
            end
            else seen
          in
          let duplicate =
            match seen with
            | None -> List.exists (fun (k', _) -> String.equal k k') acc
            | Some h ->
                let d = Hashtbl.mem h k in
                Hashtbl.replace h k ();
                d
          in
          if duplicate then fail_at at (Printf.sprintf "duplicate key %S" k);
          skip_ws cur;
          expect cur ':';
          let kv = (k, parse_value cur ~key:(Some k)) in
          skip_ws cur;
          match next cur with
          | ',' -> fields (kv :: acc) (n + 1) seen
          | '}' -> List.rev (kv :: acc)
          | _ -> fail cur "expected ',' or '}'"
        in
        Obj (fields [] 0 None)
      end
  | Some _ -> parse_number cur ~key

let of_string s =
  let cur = { src = s; pos = 0 } in
  let v = parse_value cur ~key:None in
  skip_ws cur;
  if cur.pos <> String.length s then fail cur "trailing garbage";
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
