(** FFS on-disk layout: superblock and cylinder-group geometry.

    Disk layout (in file-system blocks):
    {v
      block 0                      superblock
      block 1 .. 1+cg_size-1       cylinder group 0
      block 1+cg_size ..           cylinder group 1, ...
    v}

    Each cylinder group is laid out as:
    {v
      +0                         cg header (free counts + both bitmaps)
      +1 .. +itable_blocks       inode table
      +itable_blocks+1 ..        data blocks
    v} *)

type sb = {
  block_size : int;
  nblocks : int;  (** file-system blocks on the device *)
  cg_count : int;
  cg_size : int;  (** blocks per cylinder group *)
  inodes_per_cg : int;
  itable_blocks : int;  (** inode-table blocks per group *)
  root_ino : int;
}

val magic : int

val mk_sb :
  block_size:int ->
  nblocks:int ->
  cg_size:int ->
  inodes_per_cg:int ->
  unit ->
  sb
(** Derives group count and table sizes.  Raises [Invalid_argument] on
    unusable parameters (e.g. a group too small for its metadata). *)

val encode_sb : sb -> bytes -> unit
val decode_sb : bytes -> sb option
(** [None] if the magic or derived fields are inconsistent. *)

val inodes_per_block : sb -> int
val cg_start : sb -> int -> int
(** First block of group [cg]. *)

val cg_of_block : sb -> int -> int
val cg_data_start : sb -> int -> int
(** First data block of group [cg] (absolute). *)

val cg_of_ino : sb -> int -> int
val ino_index : sb -> int -> int
(** Index of an inode within its group. *)

val ino_block : sb -> int -> int
(** [ino_block sb ino] is the block holding the inode's on-disk slot. *)

val ino_offset : sb -> int -> int
(** [ino_offset sb ino] is the slot's byte offset in that block. *)

val valid_ino : sb -> int -> bool
val max_ino : sb -> int

(** Group-header internal layout (offsets within the header block), shared
    with fsck: free-block count, free-inode count, directory count, then the
    inode bitmap followed by the block bitmap. *)

val hdr_free_blocks_off : int
val hdr_free_inodes_off : int
val hdr_ndirs_off : int
val hdr_inode_bitmap_off : int
val hdr_block_bitmap_off : sb -> int
