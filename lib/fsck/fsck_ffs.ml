module Cache = Cffs_cache.Cache
module Inode = Cffs_vfs.Inode
module Layout = Ffs.Layout
module Dirent = Ffs.Dirent

(* Inode-table slots are rewritten in place: read the table block, patch
   the slot, write the block back synchronously. *)
let store t ino f =
  let sb = Ffs.superblock t in
  let blk = Layout.ino_block sb ino and off = Layout.ino_offset sb ino in
  let b = Cache.read (Ffs.cache t) blk in
  Inode.encode (f (Inode.decode b off)) b off;
  Cache.write (Ffs.cache t) ~kind:`Meta blk b

include Fsck.Make (struct
  type t = Ffs.t

  let cache = Ffs.cache
  let superblock_ok t = Layout.decode_sb (Cache.read (Ffs.cache t) 0) <> None
  let root = Ffs.root
  let read_inode = Ffs.read_inode
  let write_inode t ino inode = store t ino (fun _ -> inode)
  let hidden_inodes = []
  let indexed _ _ = false
  let index_walk _ _ ~entry:_ ~meta:_ ~bad:_ = ()
  let block_entries _ ~pblock:_ b f = Dirent.iter b (fun ~off:_ ~ino name -> f name ino)
  let remove_entry _ b name = Dirent.remove b name <> None

  (* Every entry naming an inode is a link, "." and ".." included, so a
     directory's count is 2 + subdirectories without a special case. *)
  let nlink ~ino:_ _ ~refs ~subdirs:_ = refs

  (* The static inode tables, past the reserved inodes 0 and 1. *)
  let orphan_range t =
    let sb = Ffs.superblock t in
    (2, sb.Layout.cg_count * sb.Layout.inodes_per_cg)

  let clear_inode t ino =
    store t ino (fun old ->
        let cleared = Inode.empty () in
        cleared.Inode.generation <- old.Inode.generation + 1;
        cleared)

  let read_header = Ffs.read_header
  let block_map = Ffs.block_map
  let inode_map t = Some (Ffs.inode_map t)
  let resolve = Ffs.resolve
  let mkdir = Ffs.mkdir
  let hardlink = Ffs.hardlink
  let sync = Ffs.sync
end)
