module Jsonx = Stratify_obs.Jsonx

exception File_error of string * string

let with_file path f =
  let fail msg =
    let prefix = path ^ ": " in
    let msg =
      if String.starts_with ~prefix msg then
        String.sub msg (String.length prefix) (String.length msg - String.length prefix)
      else msg
    in
    raise (File_error (path, msg))
  in
  try f path with
  | Sys_error msg | Jsonx.Parse_error msg | Invalid_argument msg | Failure msg -> fail msg
  | Unix.Unix_error (err, _, arg) -> fail (arg ^ ": " ^ Unix.error_message err)

let fail ~binary what msg =
  Printf.eprintf "%s: %s: %s\n" binary what msg;
  exit 2

let with_arg_file ~binary path f =
  try with_file path f with File_error (path, msg) -> fail ~binary path msg
