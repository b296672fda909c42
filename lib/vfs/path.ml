let max_name = 255

let split p =
  if String.length p = 0 || p.[0] <> '/' then Error Errno.Einval
  else begin
    let parts = String.split_on_char '/' p in
    let parts = List.filter (fun s -> s <> "") parts in
    if List.exists (fun s -> String.length s > max_name) parts then
      Error Errno.Enametoolong
    else if List.exists (fun s -> s = "." || s = "..") parts then
      Error Errno.Einval
    else Ok parts
  end

let key parts = "/" ^ String.concat "/" parts

let split_parent p =
  match split p with
  | Error e -> Error e
  | Ok parts -> (
      match List.rev parts with
      | [] -> Error Errno.Einval
      | base :: rinit -> Ok (List.rev rinit, base))

let dirname_basename p =
  match split_parent p with
  | Error e -> Error e
  | Ok (init, base) -> Ok (key init, base)

let join dir name = if dir = "/" then "/" ^ name else dir ^ "/" ^ name

(* A trailing slash asserts that the path names a directory ("/a/" is
   "/a", plus the claim that a is a directory).  [split] normalizes it
   away, so resolution must check the claim separately — POSIX returns
   ENOTDIR when the named object is not a directory. *)
let trailing_slash p = String.length p > 1 && p.[String.length p - 1] = '/'
