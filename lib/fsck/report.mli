(** Findings of a file-system check.

    The same report vocabulary serves both file systems; fsck for C-FFS
    differs mainly in {e how} inodes are found ("although inodes are no
    longer at statically determined locations, they can all be found by
    following the directory hierarchy", paper §3.1). *)

type problem =
  | Bad_superblock
  | Dangling_entry of { dir : int; name : string; ino : int }
      (** a name referencing a free or invalid inode *)
  | Orphan_inode of { ino : int; kind : Cffs_vfs.Inode.kind }
      (** an allocated inode no name references *)
  | Wrong_nlink of { ino : int; expected : int; found : int }
  | Block_multiply_used of { blk : int; ino : int }
  | Block_out_of_range of { ino : int; blk : int }
  | Block_bitmap_mismatch of { cg : int; expected_free : int; found_free : int }
  | Inode_bitmap_mismatch of { cg : int; expected_free : int; found_free : int }
  | Bad_directory_block of { dir : int; lblk : int }
  | Bad_group_header of { cg : int }
      (** a cylinder-group header no copy of which can be read; its
          bitmaps are neither compared nor rebuilt *)
  | Bad_inode_block of { blk : int }
      (** a block of inodes (an FFS inode table block, a C-FFS external
          inode block) the media cannot produce.  Its inodes keep their
          inode-bitmap bits, and since the blocks they own are unknown,
          no block bitmap is compared or rebuilt *)

type t = {
  problems : problem list;
  files : int;  (** regular files reachable from the root *)
  dirs : int;  (** directories reachable from the root *)
  data_blocks : int;  (** data + indirect blocks in use *)
  repaired : int;  (** problems fixed (repair runs only) *)
}

val clean : t -> bool
(** No problems found. *)

val is_clean : t -> bool
(** Alias of {!clean}. *)

val count : t -> int
val pp_problem : Format.formatter -> problem -> unit
val pp : Format.formatter -> t -> unit
