(** {!Fsck} for the FFS baseline: orphans are sought in the static inode
    tables, both group bitmaps are checked, and every "." / ".." entry
    counts as a link. *)

val check : Ffs.t -> Report.t
(** Read-only examination. *)

val repair : Ffs.t -> Report.t
(** Fix everything fixable; the returned report lists the problems that were
    found ([repaired]) plus any that remain. *)
