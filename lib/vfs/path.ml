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

(* The key of a valid path that is not canonical: its non-empty
   components, each after one slash. *)
let normalize p =
  let b = Buffer.create (String.length p) in
  String.split_on_char '/' p
  |> List.iter (fun c ->
         if c <> "" then begin
           Buffer.add_char b '/';
           Buffer.add_string b c
         end);
  if Buffer.length b = 0 then "/" else Buffer.contents b

(* One scan validates [p] the way [split] does — an over-long name
   anywhere wins over a "." or ".." anywhere — and notes whether [p] is
   already its own key: no empty component, so no doubled or trailing
   slash, except in "/" itself.  [i] walks the component that starts at
   [start]; top level, so the scan allocates nothing. *)
let rec scan p n i start dots canon =
  if i < n && p.[i] <> '/' then scan p n (i + 1) start dots canon
  else begin
    let len = i - start in
    if len > max_name then Error Errno.Enametoolong
    else begin
      let dots =
        dots
        || (len = 1 && p.[start] = '.')
        || (len = 2 && p.[start] = '.' && p.[start + 1] = '.')
      in
      let canon = canon && (len > 0 || n = 1) in
      if i < n then scan p n (i + 1) (i + 1) dots canon
      else if dots then Error Errno.Einval
      else if canon then Ok p
      else Ok (normalize p)
    end
  end

let canonical p =
  let n = String.length p in
  if n = 0 || p.[0] <> '/' then Error Errno.Einval else scan p n 1 1 false true

let components key =
  if String.length key = 1 then 0
  else String.fold_left (fun k c -> if c = '/' then k + 1 else k) 0 key

let parent key =
  let i = String.rindex key '/' in
  if i = 0 then "/" else String.sub key 0 i

let basename key =
  let i = String.rindex key '/' in
  String.sub key (i + 1) (String.length key - i - 1)

let dirname_basename p =
  match canonical p with
  | Error e -> Error e
  | Ok "/" -> Error Errno.Einval
  | Ok key -> Ok (parent key, basename key)

let join dir name = if dir = "/" then "/" ^ name else dir ^ "/" ^ name

(* A trailing slash asserts that the path names a directory ("/a/" is
   "/a", plus the claim that a is a directory).  [split] normalizes it
   away, so resolution must check the claim separately — POSIX returns
   ENOTDIR when the named object is not a directory. *)
let trailing_slash p = String.length p > 1 && p.[String.length p - 1] = '/'
