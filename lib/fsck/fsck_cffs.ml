module Cache = Cffs_cache.Cache
module Inode = Cffs_vfs.Inode
module Csb = Cffs.Csb
module Cdir = Cffs.Cdir
module Dirent = Ffs.Dirent

let embedded t = (Cffs.superblock t).Csb.embed_inodes

include Fsck.Make (struct
  type t = Cffs.t

  let cache = Cffs.cache
  let superblock_ok t = Csb.decode (Cache.read (Cffs.cache t) 0) <> None
  let root = Cffs.root
  let read_inode = Cffs.read_inode
  let write_inode t ino inode = ignore (Cffs.write_inode_raw t ino inode)

  (* The external inode file's own blocks are metadata in use. *)
  let hidden_inodes = [ Csb.ifile_ino ]
  let indexed = Cffs.dir_indexed

  let index_walk t dinode ~entry ~meta ~bad =
    Cffs.index_walk t dinode
      ~entry:(fun ~pblock _ e -> entry ~pblock e.Cdir.name (Cffs.chunk_ino t ~pblock e))
      ~meta ~bad

  (* Last entry first, as a fold collects them. *)
  let block_entries t ~pblock b f =
    if embedded t then
      List.iter
        (fun e -> f e.Cdir.name (Cffs.chunk_ino t ~pblock e))
        (Cdir.fold b ~init:[] ~f:(fun acc e -> e :: acc))
    else
      List.iter
        (fun (name, ino) -> f name ino)
        (Dirent.fold b ~init:[] ~f:(fun acc ~ino name -> (name, ino) :: acc))

  let remove_entry t b name =
    if embedded t then begin
      match Cdir.find b name with
      | Some e ->
          Cdir.clear b e.Cdir.chunk;
          true
      | None -> false
    end
    else Dirent.remove b name <> None

  (* No physical dot entries: a directory is named once by its parent
     (the root by nobody), and the convention is nlink = 2 +
     subdirectories.  The inode file is outside the namespace. *)
  let nlink ~ino (inode : Inode.t) ~refs ~subdirs =
    if ino = Csb.ifile_ino then inode.Inode.nlink
    else begin
      match inode.Inode.kind with
      | Inode.Directory -> (if ino = Csb.root_ino then 2 else 1 + refs) + subdirs
      | Inode.Regular | Inode.Free -> refs
    end

  (* There are no inode tables: orphans can only hide in the external
     inode file. *)
  let orphan_range t = (Csb.ext_base, Csb.ext_base + (Cffs.superblock t).Csb.ext_high)
  let clear_inode t ino = write_inode t ino (Inode.empty ())
  let read_header = Cffs.read_header
  let block_map = Cffs.block_map
  let inode_map _ = None
  let resolve = Cffs.resolve
  let mkdir = Cffs.mkdir
  let hardlink = Cffs.hardlink
  let sync = Cffs.sync
end)
