(** Minimal JSON tree, printer and parser.

    The repository deliberately has no JSON dependency; run manifests
    only need objects, arrays, strings, ints and floats.  The printer
    emits standard JSON (floats chosen so they parse back to the same
    bits); the parser accepts standard JSON including escape sequences
    and [\uXXXX] (encoded to UTF-8).  [to_string (of_string s)] is the
    identity on values, which the test suite pins. *)

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
(** Numbers without [.], [e] or [E] parse as [Int]; everything else
    numeric as [Float].  Rejects a number that is not finite ([1e999]),
    naming the literal and its key, and an object that repeats a key,
    naming the key. *)

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
