(** Minimal JSON tree, printer and parser.

    The repository deliberately has no JSON dependency; run manifests
    only need objects, arrays, strings, ints and floats.  The printer
    emits standard JSON (floats chosen so they parse back to the same
    bits); the parser accepts standard JSON (RFC 8259).  [of_string
    (to_string v)] is [v], floats bit for bit, which the test suite
    pins. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!of_string} with a message naming the byte offset. *)

val to_string : ?indent:bool -> t -> string
(** [indent] (default true) pretty-prints with two-space indentation;
    otherwise one compact line. *)

val of_string : string -> t
(** Parses one JSON value, with white space around it.
    - A number follows the JSON grammar,
      [-? (0 | [1-9] [0-9]* ) ([.] [0-9]+)? ([eE] [+-]? [0-9]+)?], so
      [+5], [01], [.5] and [5.] are errors.  One without [.], [e] or [E]
      that fits an [int] is an [Int]; every other number is the
      [Float] that [float_of_string] reads from it, bit for bit.  A
      number that is not finite ([1e999]) is an error naming the
      literal and its key.
    - A string may hold JSON's escapes.  [\u] takes exactly four hex
      digits and is encoded to UTF-8; a surrogate pair is one code
      point, and a lone surrogate is an error.  Other bytes are taken
      as they are.
    - An object that repeats a key is an error naming the key.  Keys
      with the same spelling share one string within one call.
    - Arrays and objects nest at most 512 deep.

    Every error is a {!Parse_error} naming its byte offset. *)

(** {2 Accessors} — all raise {!Parse_error} on shape mismatch, naming
    the expected and the actual shape but not where the value sits.
    Records decode through {!Codec}, whose errors name the field path. *)

val type_name : t -> string
(** ["null"], ["bool"], ["int"], ["float"], ["string"], ["array"] or
    ["object"], as shape errors name a value. *)

val member : string -> t -> t
(** Field of an object; [Null] if absent. *)

val get_float : t -> float
(** Accepts [Int] too. *)

val get_list : t -> t list
val get_obj : t -> (string * t) list
