type 'a t = { enc : 'a -> Jsonx.t; dec : Jsonx.t -> 'a }

(* A decode error: the path segments between the value [decode] was
   given and the failing value, outermost first, and the message.  Each
   object key and array index adds its segment as the error unwinds. *)
exception Fail of string list * string

(* A required key or union tag is absent.  [obj] turns it into a [Fail]
   once it has checked the object for an unknown key. *)
exception Missing of string

let fail msg = raise (Fail ([], msg))

let decode ~what c j =
  try c.dec j
  with Fail (path, msg) ->
    raise (Jsonx.Parse_error (String.concat "" (what :: path) ^ ": " ^ msg))

let in_key name dec j =
  try dec j with Fail (path, msg) -> raise (Fail (("." ^ name) :: path, msg))

let in_index i dec j =
  try dec j with Fail (path, msg) -> raise (Fail (Printf.sprintf "[%d]" i :: path, msg))

let expected what j = fail (Printf.sprintf "expected %s, got %s" what (Jsonx.type_name j))

(* ---- values ---------------------------------------------------------- *)

let int =
  { enc = (fun i -> Jsonx.Int i); dec = (function Jsonx.Int i -> i | j -> expected "int" j) }

let float =
  {
    enc = (fun f -> Jsonx.Float f);
    dec = (function Jsonx.Float f -> f | Int i -> float_of_int i | j -> expected "number" j);
  }

let string =
  {
    enc = (fun s -> Jsonx.String s);
    dec = (function Jsonx.String s -> s | j -> expected "string" j);
  }

let bool =
  { enc = (fun b -> Jsonx.Bool b); dec = (function Jsonx.Bool b -> b | j -> expected "bool" j) }

let conv ~dec ~enc c = { enc = (fun a -> c.enc (enc a)); dec = (fun j -> dec (c.dec j)) }

let list c =
  {
    enc = (fun l -> Jsonx.List (List.map c.enc l));
    dec =
      (function
      | Jsonx.List l -> List.mapi (fun i j -> in_index i c.dec j) l | j -> expected "array" j);
  }

let array c = conv ~dec:Array.of_list ~enc:Array.to_list (list c)

let nullable c =
  {
    enc = (function None -> Jsonx.Null | Some x -> c.enc x);
    dec = (function Jsonx.Null -> None | j -> Some (c.dec j));
  }

let assoc c =
  {
    enc = (fun l -> Jsonx.Obj (List.map (fun (k, v) -> (k, c.enc v)) l));
    dec =
      (function
      | Jsonx.Obj m -> List.map (fun (k, v) -> (k, in_key k c.dec v)) m
      | j -> expected "object" j);
  }

let arity n = function
  | Jsonx.List l -> fail (Printf.sprintf "expected %d elements, got %d" n (List.length l))
  | j -> expected "array" j

let pair ca cb =
  {
    enc = (fun (a, b) -> Jsonx.List [ ca.enc a; cb.enc b ]);
    dec =
      (function
      | Jsonx.List [ a; b ] ->
          let a = in_index 0 ca.dec a in
          (a, in_index 1 cb.dec b)
      | j -> arity 2 j);
  }

let triple ca cb cc =
  {
    enc = (fun (a, b, c) -> Jsonx.List [ ca.enc a; cb.enc b; cc.enc c ]);
    dec =
      (function
      | Jsonx.List [ a; b; c ] ->
          let a = in_index 0 ca.dec a in
          let b = in_index 1 cb.dec b in
          (a, b, in_index 2 cc.dec c)
      | j -> arity 3 j);
  }

let literal c v =
  let show x = Jsonx.to_string (c.enc x) in
  conv c ~enc:(fun () -> v) ~dec:(fun x ->
      if x <> v then fail (Printf.sprintf "expected %s, got %s" (show v) (show x)))

(* ---- records --------------------------------------------------------- *)

type members = (string * Jsonx.t) list

(* A group of an object's keys: one key, a flattened union, or a whole
   record.  [write] puts the group's members in front of [tail]; [read]
   adds to [found] one for each of the group's keys it finds; [keys]
   lists them for an error message, given the object's members (which
   select a union's case). *)
type ('r, 'a) field = {
  write : 'r -> members -> members;
  read : int ref -> members -> 'a;
  declares : members -> string -> bool;
  keys : members -> string list;
}

type ('r, 'k) record = ('r, 'k) field

let rec find name = function
  | [] -> raise Not_found
  | (k, v) :: rest -> if String.equal k name then v else find name rest

let key name ~write ~read =
  { write; read; declares = (fun _ k -> String.equal k name); keys = (fun _ -> [ name ]) }

let write_always name c get v tail = (name, c.enc (get v)) :: tail

let read_default name c default found m =
  match find name m with
  | exception Not_found -> default
  | j -> (
      incr found;
      match j with Jsonx.Null -> default | j -> in_key name c.dec j)

let req name c get =
  key name ~write:(write_always name c get) ~read:(fun found m ->
      match find name m with
      | j ->
          incr found;
          in_key name c.dec j
      | exception Not_found -> raise (Missing name))

let opt name c ~default get =
  key name ~write:(write_always name c get) ~read:(read_default name c default)

let omit name c ~default get =
  key name ~read:(read_default name c default) ~write:(fun v tail ->
      let x = get v in
      if x = default then tail else (name, c.enc x) :: tail)

let record make =
  { write = (fun _ tail -> tail); read = (fun _ _ -> make); declares = (fun _ _ -> false);
    keys = (fun _ -> []) }

let ( |+ ) r f =
  {
    write = (fun v tail -> r.write v (f.write v tail));
    read =
      (fun found m ->
        let k = r.read found m in
        k (f.read found m));
    declares = (fun m k -> r.declares m k || f.declares m k);
    keys = (fun m -> r.keys m @ f.keys m);
  }

type 'a case =
  | Case : {
      name : string;
      fields : ('p, 'p) record;
      inject : 'p -> 'a;
      project : 'a -> 'p option;
    }
      -> 'a case

let case name fields inject project = Case { name; fields; inject; project }

let case0 name value =
  case name (record value) Fun.id (fun v -> if v = value then Some v else None)

let union ?default tag cases get =
  let names = String.concat "/" (List.map (fun (Case c) -> c.name) cases) in
  let rec named s = function
    | (Case c as case) :: rest -> if String.equal c.name s then case else named s rest
    | [] ->
        let msg = Printf.sprintf "unknown %s %S (expected one of %s)" tag s names in
        raise (Fail ([ "." ^ tag ], msg))
  in
  let absent () = match default with Some d -> named d cases | None -> raise (Missing tag) in
  let select found m =
    match find tag m with
    | exception Not_found -> absent ()
    | j -> (
        incr found;
        match j with
        | Jsonx.String s -> named s cases
        | Jsonx.Null -> absent ()
        | j -> in_key tag (expected "string") j)
  in
  let rec write v tail = function
    | [] -> invalid_arg ("Codec.union: no case of " ^ tag ^ " holds the value")
    | Case c :: rest -> (
        match c.project v with
        | Some p -> (tag, Jsonx.String c.name) :: c.fields.write p tail
        | None -> write v tail rest)
  in
  {
    write = (fun v tail -> write (get v) tail cases);
    read =
      (fun found m ->
        let (Case c) = select found m in
        c.inject (c.fields.read found m));
    declares =
      (fun m k ->
        String.equal k tag
        ||
        match select (ref 0) m with
        | Case c -> c.fields.declares m k
        | exception (Fail _ | Missing _) -> true);
    keys =
      (fun m ->
        match select (ref 0) m with
        | Case c -> tag :: c.fields.keys m
        | exception (Fail _ | Missing _) -> [ tag ]);
  }

let rec check_keys r m = function
  | [] -> ()
  | (k, _) :: rest ->
      if not (r.declares m k) then
        fail
          (Printf.sprintf "unknown field %S (expected one of %s)" k
             (String.concat "/" (r.keys m)));
      check_keys r m rest

let obj r =
  {
    enc = (fun v -> Jsonx.Obj (r.write v []));
    dec =
      (function
      | Jsonx.Obj m ->
          let found = ref 0 in
          let v =
            try r.read found m
            with Missing name ->
              check_keys r m m;
              fail (Printf.sprintf "missing field %S" name)
          in
          (* A record declares each key once and Jsonx rejects a repeated
             one, so if every member was found, none is unknown. *)
          if !found <> List.length m then check_keys r m m;
          v
      | j -> expected "object" j);
  }

let variant tag cases = obj (record Fun.id |+ union tag cases Fun.id)
