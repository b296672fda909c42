(** {!Fsck} for C-FFS (paper §3.1, "File system recovery").

    There are no static inode tables: embedded inodes are found by walking
    the directory hierarchy from the root (whose inode lives in the
    superblock), and the external inode file is then swept for orphaned
    slots.  Group headers are read through their replicas, as the file
    system reads them. *)

val check : Cffs.t -> Report.t
val repair : Cffs.t -> Report.t
