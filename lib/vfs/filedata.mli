(** The file-data path shared by both file systems: block reads through
    the cache's logical index, the read and read-modify-write loops,
    truncate with tail zeroing, freeing a file's blocks and the
    contiguous-run map.  Block mapping is {!Bmap}'s; what differs between
    FFS and C-FFS — where a new block goes, what a read miss fetches
    besides the block, how an inode is stored — comes in through
    {!FS}. *)

module Cache = Cffs_cache.Cache

val drop_logical : Cache.t -> ino:int -> from:int -> until:int -> unit
(** Detach the logical identities of blocks [from .. until - 1] of [ino]. *)

module type FS = sig
  type t

  val cache : t -> Cache.t
  val read_inode : t -> int -> Inode.t Errno.result
  val write_inode : t -> int -> Inode.t -> kind:Cache.kind -> unit Errno.result

  val alloc : t -> ino:int -> Inode.t -> int -> hint:int -> int Errno.result
  (** [alloc t ~ino inode lblk ~hint] places a new block (data or
      indirect) of [ino] needed to map [lblk]; [hint] is {!Bmap.alloc}'s. *)

  val free : t -> int -> unit
  (** Release a block (data or indirect). *)

  val fault_in : t -> ino:int -> Inode.t -> int -> int -> unit
  (** [fault_in t ~ino inode lblk p]: logical block [lblk], at physical
      [p], missed the logical index and is about to be read; fetch
      whatever should travel with it (C-FFS: its group frame, or a
      read-ahead run). *)

  val note : t -> ino:int -> int -> unit
  (** A read of logical block [lblk] of [ino] was served. *)
end

module Make (F : FS) : sig
  val block : F.t -> ino:int -> Inode.t -> int -> bytes option Errno.result
  (** A logical block as the cache's buffer ([None] for a hole), for
      callers that edit it in place (directories). *)

  val read_ino : F.t -> ino:int -> off:int -> len:int -> bytes Errno.result
  (** Copy-out read: bytes land in the result straight from the cache. *)

  val write_ino : F.t -> ino:int -> off:int -> bytes -> unit Errno.result
  (** Data blocks are delayed writes; so is the inode update (FFS and
      C-FFS delay write(2)'s inode change; only namespace operations are
      synchronous). *)

  val truncate_ino : F.t -> ino:int -> size:int -> unit Errno.result
  (** Shrinking frees the blocks past the new end and zeroes the cut tail
      of the last kept block; growing leaves a hole. *)

  val free_all : F.t -> ino:int -> Inode.t -> unit
  (** Release every block of a file being deleted. *)

  val data_runs : F.t -> ino:int -> (int * int) list Errno.result
end
