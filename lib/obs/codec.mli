(** JSON codecs: one value per record gives both its printer and its
    decoder, so the two cannot drift apart.

    A record codec is built applicatively from its constructor and its
    fields, in the order the printer writes them and the decoder reads
    them:
    {[
      obj
        (record (fun at_tick groups -> { at_tick; groups })
        |+ req "at_tick" int (fun p -> p.at_tick)
        |+ req "groups" groups (fun p -> p.groups))
    ]}
    Every object rejects a key its record does not declare, at every
    depth.  Decode errors are {!Jsonx.Parse_error}s that name the field
    path, e.g. [plan.net: unknown field "reordr" (expected one of ...)]
    or [serve script.world.swarms[0].size: expected int, got string].
    The path is attached while the error unwinds, so a decode that
    succeeds builds none of it. *)

type 'a t = {
  enc : 'a -> Jsonx.t;
  dec : Jsonx.t -> 'a;  (** raises through {!fail}, so errors carry their path *)
}

val fail : string -> 'a
(** Reject the value being decoded; the error gets the current field
    path.  For use inside {!conv} and hand-written decoders. *)

val decode : what:string -> 'a t -> Jsonx.t -> 'a
(** Raises [Jsonx.Parse_error "WHAT.PATH: MESSAGE"].  Exceptions other
    than decode errors (a validating {!conv} may raise
    [Invalid_argument]) pass through unchanged. *)

(** {2 Values} *)

val int : int t
val float : float t
(** Also reads a JSON int. *)

val string : string t
val bool : bool t
val list : 'a t -> 'a list t
val array : 'a t -> 'a array t

val nullable : 'a t -> 'a option t
(** [null] is [None]. *)

val assoc : 'a t -> (string * 'a) list t
(** An object used as a map (counters, metrics, axes), in key order. *)

val pair : 'a t -> 'b t -> ('a * 'b) t
(** A two-element array. *)

val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

val conv : dec:('b -> 'a) -> enc:('a -> 'b) -> 'b t -> 'a t
(** A value stored as a ['b]; [dec] may reject it with {!fail}. *)

val literal : 'a t -> 'a -> unit t
(** Exactly this value, e.g. a [schema_version] or a [kind] tag. *)

(** {2 Records} *)

type ('r, 'a) field
(** A field of a record ['r] that holds an ['a]. *)

type ('r, 'k) record
(** The fields of a record ['r] declared so far; ['k] is the part of
    the constructor still to apply. *)

val record : 'k -> ('r, 'k) record
val ( |+ ) : ('r, 'a -> 'k) record -> ('r, 'a) field -> ('r, 'k) record

val obj : ('r, 'r) record -> 'r t
(** The record as a JSON object.  Fields decode in declaration order,
    then a key the record does not declare is an error; a missing
    required key reports an unknown key of the same object first, as a
    typo'd key is the likelier cause. *)

val req : string -> 'a t -> ('r -> 'a) -> ('r, 'a) field
(** Always written; decoding fails when the key is absent.  A present
    [null] goes to the codec ({!nullable} reads it as [None]). *)

val opt : string -> 'a t -> default:'a -> ('r -> 'a) -> ('r, 'a) field
(** Always written; an absent or [null] key reads as [default]. *)

val omit : string -> 'a t -> default:'a -> ('r -> 'a) -> ('r, 'a) field
(** Written only when the value differs ([<>]) from [default]; an
    absent or [null] key reads as [default]. *)

type 'a case
(** One case of a tagged union. *)

val case : string -> ('p, 'p) record -> ('p -> 'a) -> ('a -> 'p option) -> 'a case
(** [case tag fields inject project]: the case written as [tag], whose
    payload is the fields of a record. *)

val case0 : string -> 'a -> 'a case
(** A case without payload. *)

val union : ?default:string -> string -> 'a case list -> ('r -> 'a) -> ('r, 'a) field
(** A tagged union flattened into its object: the key [tag] names the
    case, and the selected case's fields sit beside the record's own.
    Keys of the other cases are unknown.  With [default], an absent tag
    selects that case; the tag is always written. *)

val variant : string -> 'a case list -> 'a t
(** An object that holds only a tagged union. *)
