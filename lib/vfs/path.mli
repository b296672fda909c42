(** Absolute-path manipulation. *)

val split : string -> string list Errno.result
(** [split "/a/b/c"] is [Ok ["a"; "b"; "c"]]; [split "/"] is [Ok []].
    Rejects relative paths, empty components and over-long names. *)

val max_name : int
(** Longest permitted component name (as in the on-disk formats): 255. *)

val key : string list -> string
(** The canonical path of split components: [key ["a"; "b"]] is ["/a/b"],
    [key []] is ["/"]. *)

val split_parent : string -> (string list * string) Errno.result
(** [split_parent "/a/b/c"] is [Ok (["a"; "b"], "c")].  Errors on ["/"]. *)

val dirname_basename : string -> (string * string) Errno.result
(** [dirname_basename "/a/b/c"] is [Ok ("/a/b", "c")].  Errors on ["/"]. *)

val join : string -> string -> string
(** [join "/a" "b"] is ["/a/b"]. *)

val trailing_slash : string -> bool
(** Does the path end in a (redundant) slash — i.e. claim to name a
    directory?  ["/"] itself does not count.  {!split} drops empty
    components, so callers that must honour POSIX's ENOTDIR-on-["/file/"]
    check this separately. *)
