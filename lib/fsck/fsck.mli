(** The off-line checker/repairer both file systems share, in the spirit
    of [McKusick94]'s fsck.

    It walks the directory hierarchy from the root, claims every block the
    reachable inodes map, sweeps the orphan candidates, and compares the
    cylinder-group bitmaps with what it found; repair removes dangling
    entries, reattaches orphaned files under [/lost+found], clears other
    orphans, punches doubly-claimed or out-of-range blocks, rebuilds the
    bitmaps and free counts, and fixes link counts.  Per paper §3.1, C-FFS
    differs from FFS only in {e how} inodes are found, so a file system
    supplies just that seam ({!FS}).  Unreadable metadata is a finding,
    never an exception: a directory block the media cannot produce is a
    [Bad_directory_block], a group header with no readable copy a
    [Bad_group_header], a block of inodes a [Bad_inode_block]. *)

module type FS = sig
  type t

  val cache : t -> Cffs_cache.Cache.t

  val superblock_ok : t -> bool
  (** Does block 0 hold a valid superblock? *)

  val root : t -> int
  val read_inode : t -> int -> Cffs_vfs.Inode.t Cffs_vfs.Errno.result

  val write_inode : t -> int -> Cffs_vfs.Inode.t -> unit
  (** Overwrite an inode in place, synchronously. *)

  val hidden_inodes : int list
  (** Inodes outside the namespace whose blocks are metadata in use. *)

  val indexed : t -> Cffs_vfs.Inode.t -> bool
  (** Does this directory use a hashed index rather than linear blocks? *)

  val index_walk :
    t ->
    Cffs_vfs.Inode.t ->
    entry:(pblock:int -> string -> int -> unit) ->
    meta:(int -> unit) ->
    bad:(int -> unit) ->
    unit
  (** An indexed directory's entries (name and inode number, with the leaf
      holding them), its table and leaf blocks ([meta]), and the pointers
      it cannot follow ([bad]). *)

  val block_entries : t -> pblock:int -> bytes -> (string -> int -> unit) -> unit
  (** The entries of one linear directory block, in visiting order. *)

  val remove_entry : t -> bytes -> string -> bool
  (** Remove a name from a directory block's buffer, if it holds it. *)

  val nlink : ino:int -> Cffs_vfs.Inode.t -> refs:int -> subdirs:int -> int
  (** The link count an inode should carry, given the entries naming it
      and, for a directory, its subdirectories. *)

  val orphan_range : t -> int * int
  (** [(lo, hi)]: the inode numbers the orphan sweep reads.  Numbers of the
      inode map below [lo] are reserved. *)

  val clear_inode : t -> int -> unit

  val read_header : t -> int -> bytes
  (** A group's header, read as the file system reads it; raises
      {!Cffs_util.Io_error.E} when no copy is readable. *)

  val block_map : t -> Cffs_vfs.Alloc.map
  val inode_map : t -> Cffs_vfs.Alloc.map option
  val resolve : t -> string -> int Cffs_vfs.Errno.result
  val mkdir : t -> string -> unit Cffs_vfs.Errno.result
  val hardlink : t -> dir:int -> string -> ino:int -> unit Cffs_vfs.Errno.result
  val sync : t -> unit
end

module Make (F : FS) : sig
  val check : F.t -> Report.t
  (** Read-only examination (a C-FFS header served from its replica is
      rewritten, as the file system itself would). *)

  val repair : F.t -> Report.t
  (** Fix everything fixable; the returned report lists what remains, with
      [repaired] the number of problems that went away. *)
end
