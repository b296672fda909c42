type problem =
  | Bad_superblock
  | Dangling_entry of { dir : int; name : string; ino : int }
  | Orphan_inode of { ino : int; kind : Cffs_vfs.Inode.kind }
  | Wrong_nlink of { ino : int; expected : int; found : int }
  | Block_multiply_used of { blk : int; ino : int }
  | Block_out_of_range of { ino : int; blk : int }
  | Block_bitmap_mismatch of { cg : int; expected_free : int; found_free : int }
  | Inode_bitmap_mismatch of { cg : int; expected_free : int; found_free : int }
  | Bad_directory_block of { dir : int; lblk : int }
  | Bad_group_header of { cg : int }
  | Bad_inode_block of { blk : int }

type t = {
  problems : problem list;
  files : int;
  dirs : int;
  data_blocks : int;
  repaired : int;
}

let clean t = t.problems = []
let is_clean = clean
let count t = List.length t.problems

let kind_name = function
  | Cffs_vfs.Inode.Free -> "free"
  | Cffs_vfs.Inode.Regular -> "file"
  | Cffs_vfs.Inode.Directory -> "directory"

let pp_problem ppf = function
  | Bad_superblock -> Format.fprintf ppf "bad superblock"
  | Dangling_entry { dir; name; ino } ->
      Format.fprintf ppf "dangling entry %S in dir %d -> inode %d" name dir ino
  | Orphan_inode { ino; kind } ->
      Format.fprintf ppf "orphan %s inode %d" (kind_name kind) ino
  | Wrong_nlink { ino; expected; found } ->
      Format.fprintf ppf "inode %d nlink %d, expected %d" ino found expected
  | Block_multiply_used { blk; ino } ->
      Format.fprintf ppf "block %d claimed again by inode %d" blk ino
  | Block_out_of_range { ino; blk } ->
      Format.fprintf ppf "inode %d references out-of-range block %d" ino blk
  | Block_bitmap_mismatch { cg; expected_free; found_free } ->
      Format.fprintf ppf "cg %d block bitmap: %d free on disk, %d computed" cg
        found_free expected_free
  | Inode_bitmap_mismatch { cg; expected_free; found_free } ->
      Format.fprintf ppf "cg %d inode bitmap: %d free on disk, %d computed" cg
        found_free expected_free
  | Bad_directory_block { dir; lblk } ->
      Format.fprintf ppf "unreadable block %d of directory %d" lblk dir
  | Bad_group_header { cg } -> Format.fprintf ppf "cg %d header unreadable" cg
  | Bad_inode_block { blk } -> Format.fprintf ppf "inode block %d unreadable" blk

let pp ppf t =
  Format.fprintf ppf "%d files, %d dirs, %d blocks; %d problem(s)%s" t.files t.dirs
    t.data_blocks (count t)
    (if t.repaired > 0 then Printf.sprintf ", %d repaired" t.repaired else "");
  List.iter (fun p -> Format.fprintf ppf "@.  - %a" pp_problem p) t.problems
