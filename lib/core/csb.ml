module Codec = Cffs_util.Codec

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
  dirindex_threshold : int;
  vol_drives : int;
  vol_layout : int;
  vol_stripe_unit : int;
  mutable ext_high : int;
}

let magic = 0x43465331 (* "CFS1" *)
let root_ino = 2
let ifile_ino = 1
let ext_base = 16
let embed_bit = 1 lsl 40
let root_inode_off = 64
let ifile_inode_off = 192

let mk ?(vol_drives = 1) ?(vol_layout = 0) ?(vol_stripe_unit = 0) ~block_size
    ~nblocks ~cg_size ~group_blocks ~embed_inodes ~grouping ~group_file_blocks
    ~readahead_blocks ~dirindex_threshold () =
  if cg_size < 2 then invalid_arg "Csb.mk: group too small";
  if 8 + ((cg_size + 7) / 8) > block_size then
    invalid_arg "Csb.mk: block bitmap does not fit the header block";
  if group_blocks < 2 then invalid_arg "Csb.mk: group frame too small";
  let cg_count = (nblocks - 1) / cg_size in
  if cg_count < 1 then
    raise (Cffs_vfs.Fs_intf.Too_small { need_blocks = 1 + cg_size; have_blocks = nblocks });
  {
    block_size;
    nblocks;
    cg_count;
    cg_size;
    group_blocks;
    embed_inodes;
    grouping;
    group_file_blocks;
    readahead_blocks;
    dirindex_threshold;
    vol_drives = max 1 vol_drives;
    vol_layout;
    vol_stripe_unit;
    ext_high = 0;
  }

let flags_of t =
  (if t.embed_inodes then 1 else 0) lor if t.grouping then 2 else 0

let encode t b =
  Codec.set_u32 b 0 magic;
  Codec.set_u32 b 4 t.block_size;
  Codec.set_u64 b 8 t.nblocks;
  Codec.set_u32 b 16 t.cg_size;
  Codec.set_u32 b 20 t.group_blocks;
  Codec.set_u32 b 24 (flags_of t);
  Codec.set_u32 b 28 t.ext_high;
  Codec.set_u32 b 32 t.group_file_blocks;
  Codec.set_u32 b 36 t.readahead_blocks;
  Codec.set_u32 b 40 t.dirindex_threshold;
  Codec.set_u32 b 44 t.vol_drives;
  Codec.set_u32 b 48 t.vol_layout;
  Codec.set_u32 b 52 t.vol_stripe_unit

let decode b =
  if Codec.get_u32 b 0 <> magic then None
  else begin
    let block_size = Codec.get_u32 b 4 in
    let nblocks = Codec.get_u64 b 8 in
    let cg_size = Codec.get_u32 b 16 in
    if block_size <= 0 || cg_size <= 0 then None
    else begin
      let flags = Codec.get_u32 b 24 in
      Some
        {
          block_size;
          nblocks;
          cg_count = (nblocks - 1) / cg_size;
          cg_size;
          group_blocks = Codec.get_u32 b 20;
          embed_inodes = flags land 1 <> 0;
          grouping = flags land 2 <> 0;
          group_file_blocks = Codec.get_u32 b 32;
          readahead_blocks = Codec.get_u32 b 36;
          (* Images formatted before the index existed carry zeros here,
             which decodes as "never promote" — byte-compatible. *)
          dirindex_threshold = Codec.get_u32 b 40;
          (* Volume provenance is descriptive: it records the mkfs-time
             array shape (old and flattened crash images decode as a
             single drive) but mount never reconstructs spindles from it —
             the logical block space is self-contained. *)
          vol_drives = max 1 (Codec.get_u32 b 44);
          vol_layout = Codec.get_u32 b 48;
          vol_stripe_unit = Codec.get_u32 b 52;
          ext_high = Codec.get_u32 b 28;
        }
    end
  end

let cg_start t cg = 1 + (cg * t.cg_size)
let cg_of_block t blk = (blk - 1) / t.cg_size
let cg_data_start t cg = cg_start t cg + 1
let total_blocks t = t.cg_count * t.cg_size

let hdr_free_blocks_off = 0
let hdr_block_bitmap_off = 8
