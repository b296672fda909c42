(** The hashed directory index (DESIGN.md §17): its on-disk format, the
    crash ordering of every update, and the rebuild-and-switch that
    promotes a linear directory to it and demotes it back.

    An indexed directory's inode maps one block, the root: a magic word,
    table-block pointers, and the global depth in its last sector.  Each
    table block holds [bs/4] leaf pointers, one per hash slot, and each
    leaf is a {!Cdir} page whose last chunk is reserved as the overflow
    link of a bucket chain.  The index reaches the file system only
    through {!FS}. *)

val dir_hash : string -> int
(** The 32-bit FNV-1a name hash the index buckets by. *)

module type FS = sig
  type t

  val cache : t -> Cffs_cache.Cache.t
  val sb : t -> Csb.t

  val alloc_grouped : t -> dir_ino:int -> dinode:Cffs_vfs.Inode.t -> int Cffs_vfs.Errno.result
  (** A block in the directory's group frames (leaves and linear pages). *)

  val alloc_near : t -> cg:int -> hint:int -> int option
  (** Plain placement (root and table blocks). *)

  val free_block : t -> int -> unit

  val write_inode :
    t -> int -> Cffs_vfs.Inode.t -> kind:Cffs_cache.Cache.kind -> unit Cffs_vfs.Errno.result

  val inode_home_block : t -> int -> int option
  (** The block holding an inode's record, which rebuilt pages are
      ordered before. *)

  val affinity_cg : t -> Cffs_vfs.Inode.t -> int
  (** The cylinder group a directory's blocks gravitate to. *)

  val read_grouped : t -> int -> bytes
  (** Read a directory block, fetching its whole frame on a miss. *)

  val chunk_ino : t -> pblock:int -> Cdir.entry -> int
  (** The inode number an entry of block [pblock] names. *)

  val mtime_now : t -> int
  val flush_namei : t -> unit
end

module Make (F : FS) : sig
  val indexed : F.t -> Cffs_vfs.Inode.t -> bool
  (** Does this directory inode use the indexed format? *)

  val find : F.t -> Cffs_vfs.Inode.t -> string -> (int * Cdir.entry) option Cffs_vfs.Errno.result
  (** The leaf holding [name] and its entry. *)

  val reserve :
    F.t -> dir:int -> Cffs_vfs.Inode.t -> string -> (int * bytes * int) Cffs_vfs.Errno.result
  (** A free chunk for [name] (leaf, its buffer, chunk), splitting,
      doubling or chaining until one exists.  The caller writes the
      entry. *)

  val iter :
    F.t ->
    Cffs_vfs.Inode.t ->
    entry:(pblock:int -> bytes -> Cdir.entry -> unit) ->
    meta:(int -> unit) ->
    bad:(int -> unit) ->
    unit
  (** Each live entry once, each table block and distinct leaf once,
      each unreadable or out-of-range pointer. *)

  val count : F.t -> Cffs_vfs.Inode.t -> int
  (** Live entries, counted by {!iter}'s walk. *)

  val free_blocks : F.t -> Cffs_vfs.Inode.t -> unit
  (** Free an indexed directory's table and leaf blocks (not its root). *)

  val census : F.t -> Cffs_vfs.Inode.t -> int * int * int
  (** Blocks (root included), leaves and live entries. *)

  val link_chunk : F.t -> int
  (** The reserved overflow-link chunk: a leaf holds this many entries. *)

  val promote :
    F.t ->
    dir:int ->
    Cffs_vfs.Inode.t ->
    linear:((pblock:int -> bytes -> unit) -> unit Cffs_vfs.Errno.result) ->
    unit Cffs_vfs.Errno.result
  (** Rebuild the linear directory whose blocks [linear] walks as an
      index, and switch its inode over. *)

  val maybe_demote : F.t -> dir:int -> Cffs_vfs.Inode.t -> leaf:bytes -> unit Cffs_vfs.Errno.result
  (** After an unlink from [leaf]: when the leaf is empty and the
      directory holds at most half the promotion threshold's entries,
      rebuild it as linear pages and switch its inode back. *)
end
