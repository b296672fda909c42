(** C-FFS superblock.

    Unlike FFS there are no static inode tables: the root inode and the
    inode of the external inode file live directly in the superblock; every
    other inode is either embedded in its directory or a slot of the
    external inode file.

    Block 0 layout:
    {v
      off   0  u32  magic
      off   4  u32  block_size
      off   8  u64  nblocks
      off  16  u32  cg_size          (blocks per cylinder group)
      off  20  u32  group_blocks     (blocks per explicit group frame)
      off  24  u32  flags            (bit 0: embedded inodes; bit 1: grouping)
      off  28  u32  ext_high         (external-inode high watermark)
      off  32  u32  group_file_blocks (small-file threshold, in blocks)
      off  36  u32  readahead_blocks (sequential read-ahead window; 0 = off)
      off  40  u32  dirindex_threshold (directory blocks before promotion
                    to the hashed index; 0 = never — old images decode as 0)
      off  44  12 bytes reserved  (older images record their mkfs-time
                    volume shape here; nothing reads it)
      off  64       root inode (128 bytes)
      off 192       external-inode-file inode (128 bytes)
    v}

    Each cylinder group starts with a header block:
    {v
      off 0  u32  free_blocks
      off 4  u32  ndirs
      off 8       block bitmap (cg_size bits)
    v} *)

type t = {
  block_size : int;
  nblocks : int;
  cg_count : int;
  cg_size : int;
  group_blocks : int;
  embed_inodes : bool;
  grouping : bool;
  group_file_blocks : int;
  readahead_blocks : int;
      (** sequential read-ahead window for ungrouped data (our extension of
          the paper's future-work prefetching; 0 = off, paper-faithful) *)
  dirindex_threshold : int;
      (** directory size, in blocks, past which it is promoted to the
          hashed index format; 0 disables promotion *)
  mutable ext_high : int;  (** external inode slots ever allocated *)
}

val magic : int
val root_ino : int
(** 2: the root directory (inode stored in the superblock). *)

val ifile_ino : int
(** 1: the external inode file itself. *)

val ext_base : int
(** External inode numbers are [ext_base + slot]. *)

val embed_bit : int
(** Embedded inode numbers are [embed_bit + block * chunks_per_block
    + chunk]; [embed_bit] is far above any external number. *)

val root_inode_off : int
val ifile_inode_off : int

val validate :
  block_size:int -> nblocks:int -> cg_size:int -> group_blocks:int -> exn option
(** What is wrong with a geometry, if anything: a group of fewer than 2
    blocks, a block bitmap that does not fit the header block, a group
    frame outside [2 .. cg_size - 1] blocks, or no whole group
    ([Fs_intf.Too_small]).  {!mk} raises it; {!decode} refuses the
    superblock. *)

val mk :
  block_size:int ->
  nblocks:int ->
  cg_size:int ->
  group_blocks:int ->
  embed_inodes:bool ->
  grouping:bool ->
  group_file_blocks:int ->
  readahead_blocks:int ->
  dirindex_threshold:int ->
  unit ->
  t

val encode : t -> bytes -> unit
(** Encodes the parameter fields only; the two resident inodes are managed
    by the file system directly in the cached superblock buffer. *)

val decode : bytes -> t option
(** [None] unless the block carries the magic number and a geometry
    {!validate} accepts. *)

val cg_start : t -> int -> int
val cg_of_block : t -> int -> int
val cg_data_start : t -> int -> int
val total_blocks : t -> int

(** Group-header internal layout (offsets within the header block), shared
    with fsck. *)

val hdr_free_blocks_off : int
val hdr_block_bitmap_off : int
