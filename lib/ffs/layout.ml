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
  vol_drives : int;
  vol_layout : int;
  vol_stripe_unit : int;
}

let magic = 0x46465331 (* "FFS1" *)

let mk_sb ?(vol_drives = 1) ?(vol_layout = 0) ?(vol_stripe_unit = 0)
    ~block_size ~nblocks ~cg_size ~inodes_per_cg () =
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
    vol_drives = max 1 vol_drives;
    vol_layout;
    vol_stripe_unit;
  }

let encode_sb sb b =
  Codec.set_u32 b 0 magic;
  Codec.set_u32 b 4 sb.block_size;
  Codec.set_u64 b 8 sb.nblocks;
  Codec.set_u32 b 16 sb.cg_count;
  Codec.set_u32 b 20 sb.cg_size;
  Codec.set_u32 b 24 sb.inodes_per_cg;
  Codec.set_u32 b 28 sb.itable_blocks;
  Codec.set_u32 b 32 sb.root_ino;
  Codec.set_u32 b 36 sb.vol_drives;
  Codec.set_u32 b 40 sb.vol_layout;
  Codec.set_u32 b 44 sb.vol_stripe_unit

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
        (* descriptive mkfs-time provenance; old and flattened crash
           images decode as a single drive *)
        vol_drives = max 1 (Codec.get_u32 b 36);
        vol_layout = Codec.get_u32 b 40;
        vol_stripe_unit = Codec.get_u32 b 44;
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

let ino_location sb ino =
  let cg = cg_of_ino sb ino in
  let idx = ino_index sb ino in
  let ipb = inodes_per_block sb in
  (cg_start sb cg + 1 + (idx / ipb), idx mod ipb * Inode.size_bytes)

let max_ino sb = (sb.cg_count * sb.inodes_per_cg) - 1
let valid_ino sb ino = ino >= 2 && ino <= max_ino sb

let hdr_free_blocks_off = 0
let hdr_free_inodes_off = 4
let hdr_ndirs_off = 8
let hdr_inode_bitmap_off = 12
let hdr_block_bitmap_off sb = hdr_inode_bitmap_off + ((sb.inodes_per_cg + 7) / 8)
