(** The baseline Fast File System (the paper's "conventional"
    configuration).

    Inodes live in static per-cylinder-group tables; directories hold plain
    name → inode-number entries; allocation follows FFS policy (a
    directory's files get inodes in the directory's group and data blocks
    near their inode; new directories spread to the emptiest group).
    Metadata integrity uses FFS's synchronous-write ordering — initialised
    inode before directory entry on create, directory entry before inode
    free on delete — unless the cache policy is [Delayed] (the soft-updates
    emulation). *)

module Layout = Layout
module Dirent = Dirent

type t

val format :
  ?cg_size:int ->
  ?inodes_per_cg:int ->
  ?policy:Cffs_cache.Cache.policy ->
  ?cache_blocks:int ->
  ?integrity:bool ->
  ?spare_blocks:int ->
  ?namei:Cffs_namei.Namei.config ->
  Cffs_blockdev.Blockdev.t ->
  t
(** Create a fresh file system on the device (default: 2048-block groups,
    1024 inodes per group, [Sync_metadata] policy, 4096-block cache).
    [?integrity] adds block checksums and bad-sector remapping
    ({!Cffs_blockdev.Integrity}); unlike C-FFS, plain FFS keeps no
    metadata replicas, so damaged metadata surfaces as [EIO] rather than
    degraded-mode fallback. *)

val mount :
  ?policy:Cffs_cache.Cache.policy ->
  ?cache_blocks:int ->
  ?namei:Cffs_namei.Namei.config ->
  Cffs_blockdev.Blockdev.t ->
  t option
(** Attach to a previously formatted device; [None] if no valid
    superblock.  An integrity region, if present, is detected and routed
    through automatically. *)

val cache : t -> Cffs_cache.Cache.t
val superblock : t -> Layout.sb

val namei : t -> Cffs_namei.Namei.t
(** The mount's dentry/attribute cache state (for tests and telemetry). *)

val read_inode : t -> int -> Cffs_vfs.Inode.t Cffs_vfs.Errno.result
(** Direct inode access, for fsck and tests. *)

val read_header : t -> int -> bytes
(** Cylinder group [cg]'s header block, as the cache's buffer. *)

val block_map : t -> Cffs_vfs.Alloc.map
val inode_map : t -> Cffs_vfs.Alloc.map
(** The groups' block and inode bitmaps inside those headers. *)

val block_in_use : t -> int -> bool
(** Is [blk] allocated (per the cylinder-group bitmaps)?  Block 0 and
    each group's header and inode table count as in use; blocks outside
    the file system do not. *)

include Cffs_vfs.Fs_intf.S with type t := t
