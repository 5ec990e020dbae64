(** Errors on the files and flags a user named on the command line.

    The binaries ([stratify_plan], [stratify_matrix], [stratify_serve])
    report bad input as [BINARY: PATH-OR-FLAG: MESSAGE] on stderr and
    exit 2, never with an uncaught exception. *)

exception File_error of string * string
(** [(path, message)]: [path] could not be read, written, parsed or
    restored. *)

val with_file : string -> (string -> 'a) -> 'a
(** [with_file path f] runs [f path], turning [Sys_error],
    [Jsonx.Parse_error], [Invalid_argument], [Failure] and
    [Unix.Unix_error] into {!File_error}, the message without the path
    a [Sys_error] message already leads with. *)

val fail : binary:string -> string -> string -> 'a
(** [fail ~binary what message] prints [binary: what: message] to
    stderr and exits 2. *)

val with_arg_file : binary:string -> string -> (string -> 'a) -> 'a
(** {!with_file}, with a {!File_error} going to {!fail}. *)
