(** Lift an inode-level file system to the path-based interface. *)

(** How [resolve] turns a path into an inode.  [resolve_rel t key]
    receives only the canonical absolute path ({!Path.canonical}: ["/"],
    or ["/a/b"] with no empty, ["."] or [".."] component), so a caching
    resolver can index whole paths as they come.  A resolver that must
    walk splits [key] itself, and only then. *)
module type RESOLVER = sig
  type t

  val resolve_rel : t -> string -> int Errno.result
end

module MakeWith (F : Fs_intf.LOW) (R : RESOLVER with type t = F.t) :
  Fs_intf.S with type t = F.t
(** Path operations over [F], resolving through [R] (lib/namei's
    full-path shortcut cache interposes here).  Trailing-slash directory
    claims are still checked above the resolver, so errnos are identical
    with and without caching. *)
