(** Absolute-path manipulation. *)

val split : string -> string list Errno.result
(** [split "/a/b/c"] is [Ok ["a"; "b"; "c"]]; [split "/"] is [Ok []].
    Rejects relative paths, empty components and over-long names. *)

val max_name : int
(** Longest permitted component name (as in the on-disk formats): 255. *)

val key : string list -> string
(** The canonical path of split components: [key ["a"; "b"]] is ["/a/b"],
    [key []] is ["/"]. *)

val canonical : string -> string Errno.result
(** The key {!split} and {!key} would give, in one scan: [canonical
    "//a///b/"] is [Ok "/a/b"].  A path that is already canonical comes
    back physically ([==]), so resolving one allocates no string.  The
    errors are {!split}'s, with the same precedence (an over-long name
    anywhere before a ["."] or [".."] anywhere). *)

val components : string -> int
(** The number of components of a canonical key: 0 for ["/"]. *)

val parent : string -> string
(** [parent "/a/b/c"] is ["/a/b"]: the parent's key, a substring of a
    canonical key other than ["/"]. *)

val basename : string -> string
(** [basename "/a/b/c"] is ["c"]: the last name of a canonical key other
    than ["/"]. *)

val dirname_basename : string -> (string * string) Errno.result
(** [dirname_basename "/a/b/c"] is [Ok ("/a/b", "c")]: {!canonical}, then
    {!parent} and {!basename}.  Errors on ["/"]. *)

val join : string -> string -> string
(** [join "/a" "b"] is ["/a/b"]. *)

val trailing_slash : string -> bool
(** Does the path end in a (redundant) slash — i.e. claim to name a
    directory?  ["/"] itself does not count.  {!split} drops empty
    components, so callers that must honour POSIX's ENOTDIR-on-["/file/"]
    check this separately. *)
