module Codec = Cffs_util.Codec
module Inode = Cffs_vfs.Inode

type sb = {
  block_size : int;
  nblocks : int;
  cg_count : int;
  cg_size : int;
  inodes_per_cg : int;
  itable_blocks : int;
  root_ino : int;
}

let magic = 0x46465331 (* "FFS1" *)

let mk_sb ~block_size ~nblocks ~cg_size ~inodes_per_cg () =
  let ipb = block_size / Inode.size_bytes in
  if inodes_per_cg mod ipb <> 0 then
    invalid_arg "Layout.mk_sb: inodes_per_cg must fill whole blocks";
  let itable_blocks = inodes_per_cg / ipb in
  if cg_size <= itable_blocks + 1 then invalid_arg "Layout.mk_sb: group too small";
  (* The header block must hold counts (12 bytes) plus both bitmaps. *)
  let bitmap_bytes = ((cg_size + 7) / 8) + ((inodes_per_cg + 7) / 8) in
  if 12 + bitmap_bytes > block_size then
    invalid_arg "Layout.mk_sb: bitmaps do not fit the header block";
  let cg_count = (nblocks - 1) / cg_size in
  if cg_count < 1 then
    raise (Cffs_vfs.Fs_intf.Too_small { need_blocks = 1 + cg_size; have_blocks = nblocks });
  {
    block_size;
    nblocks;
    cg_count;
    cg_size;
    inodes_per_cg;
    itable_blocks;
    root_ino = 2;
  }

(* Bytes 36-47 are reserved: older images record their mkfs-time volume
   shape there, and nothing reads it. *)
let encode_sb sb b =
  Codec.set_u32 b 0 magic;
  Codec.set_u32 b 4 sb.block_size;
  Codec.set_u64 b 8 sb.nblocks;
  Codec.set_u32 b 16 sb.cg_count;
  Codec.set_u32 b 20 sb.cg_size;
  Codec.set_u32 b 24 sb.inodes_per_cg;
  Codec.set_u32 b 28 sb.itable_blocks;
  Codec.set_u32 b 32 sb.root_ino

let decode_sb b =
  if Codec.get_u32 b 0 <> magic then None
  else begin
    let sb =
      {
        block_size = Codec.get_u32 b 4;
        nblocks = Codec.get_u64 b 8;
        cg_count = Codec.get_u32 b 16;
        cg_size = Codec.get_u32 b 20;
        inodes_per_cg = Codec.get_u32 b 24;
        itable_blocks = Codec.get_u32 b 28;
        root_ino = Codec.get_u32 b 32;
      }
    in
    if sb.block_size <= 0 || sb.cg_size <= 0 || sb.cg_count <= 0 then None else Some sb
  end

let inodes_per_block sb = sb.block_size / Inode.size_bytes
let cg_start sb cg = 1 + (cg * sb.cg_size)
let cg_of_block sb blk = (blk - 1) / sb.cg_size
let cg_data_start sb cg = cg_start sb cg + 1 + sb.itable_blocks
let cg_of_ino sb ino = ino / sb.inodes_per_cg
let ino_index sb ino = ino mod sb.inodes_per_cg

let ino_block sb ino =
  cg_start sb (cg_of_ino sb ino) + 1 + (ino_index sb ino / inodes_per_block sb)

let ino_offset sb ino = ino_index sb ino mod inodes_per_block sb * Inode.size_bytes

let max_ino sb = (sb.cg_count * sb.inodes_per_cg) - 1
let valid_ino sb ino = ino >= 2 && ino <= max_ino sb

let hdr_free_blocks_off = 0
let hdr_free_inodes_off = 4
let hdr_ndirs_off = 8
let hdr_inode_bitmap_off = 12
let hdr_block_bitmap_off sb = hdr_inode_bitmap_off + ((sb.inodes_per_cg + 7) / 8)
