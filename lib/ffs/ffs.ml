module Layout = Layout
module Dirent = Dirent
module Cache = Cffs_cache.Cache
module Journal = Cffs_cache.Journal
module Blockdev = Cffs_blockdev.Blockdev
module Codec = Cffs_util.Codec
module Alloc = Cffs_vfs.Alloc
module Errno = Cffs_vfs.Errno
module Inode = Cffs_vfs.Inode
module Fs_intf = Cffs_vfs.Fs_intf
open Errno

type t = {
  cache : Cache.t;
  sb : Layout.sb;
  mutable dir_rotor : int; (* round-robin start for directory placement *)
  blocks : Alloc.map;
  inodes : Alloc.map;
  namei : Cffs_namei.Namei.t;
      (* per-mount dentry + attribute caches (keyed off by the namei
         interposer below) *)
  itable : Inode.Table.t;  (* decoded inodes, re-checked against their blocks *)
}

let cache t = t.cache
let superblock t = t.sb
let block_map t = t.blocks
let inode_map t = t.inodes
let namei t = t.namei
let bs t = t.sb.Layout.block_size

(* ------------------------------------------------------------------ *)
(* Cylinder-group headers: free counts and both bitmaps live in the
   group's first block.  Bitmap updates are delayed writes (fsck can
   rebuild them), matching FFS. *)

let sb_block_map (sb : Layout.sb) =
  Alloc.map ~bitmap:(Layout.hdr_block_bitmap_off sb) ~free:Layout.hdr_free_blocks_off
    ~origin:(Layout.cg_start sb 0) ~per_group:sb.Layout.cg_size ~groups:sb.Layout.cg_count
    ~first:(Layout.cg_data_start sb 0 - Layout.cg_start sb 0)

let sb_inode_map (sb : Layout.sb) =
  Alloc.map ~bitmap:Layout.hdr_inode_bitmap_off ~free:Layout.hdr_free_inodes_off ~origin:0
    ~per_group:sb.Layout.inodes_per_cg ~groups:sb.Layout.cg_count ~first:0

let header_block t cg = Layout.cg_start t.sb cg

let read_header t cg = Cache.read t.cache (header_block t cg)

let write_header t cg b = Cache.write t.cache ~kind:`Meta_delayed (header_block t cg) b

let cg_free_blocks t cg = Alloc.free_count t.blocks (read_header t cg)
let cg_free_inodes t cg = Alloc.free_count t.inodes (read_header t cg)

(* ------------------------------------------------------------------ *)
(* Inode I/O.  An inode slot shares its table block with 31 others, so we
   must read-modify-write the cached block. *)

let read_inode_exn t ino =
  Inode.Table.decode t.itable ino
    (Cache.read t.cache (Layout.ino_block t.sb ino))
    (Layout.ino_offset t.sb ino)

let store_inode t ino inode ~kind =
  let blk = Layout.ino_block t.sb ino in
  let b = Cache.read t.cache blk in
  Inode.encode inode b (Layout.ino_offset t.sb ino);
  Cache.write t.cache ~kind blk b

let write_inode t ino inode = store_inode t ino inode ~kind:`Meta

let ino_block t ino = Layout.ino_block t.sb ino

let read_inode t ino =
  if not (Layout.valid_ino t.sb ino) then Error Einval
  else begin
    let inode = read_inode_exn t ino in
    if inode.Inode.kind = Inode.Free then Error Enoent else Ok inode
  end

(* ------------------------------------------------------------------ *)
(* Allocators. *)

module Groups = Alloc.Make (struct
  type nonrec t = t

  let read = read_header
  let write = write_header
end)

let alloc_inode t ~preferred_cg = Groups.take_near t t.inodes ~cg:preferred_cg ~hint:0
let free_inode t ino = Groups.release t t.inodes ino

(* FFS directory preference: the group with the most free blocks (among
   those with free inodes), starting the scan at a rotor so directories
   spread. *)
let dirpref t =
  let sb = t.sb in
  let best = ref None in
  for i = 0 to sb.Layout.cg_count - 1 do
    let cg = (t.dir_rotor + i) mod sb.Layout.cg_count in
    if cg_free_inodes t cg > 0 then begin
      let free = cg_free_blocks t cg in
      match !best with
      | Some (_, bf) when bf >= free -> ()
      | _ -> best := Some (cg, free)
    end
  done;
  t.dir_rotor <- (t.dir_rotor + 1) mod sb.Layout.cg_count;
  match !best with Some (cg, _) -> cg | None -> 0

(* Allocate a data (or indirect) block, preferring the group [cg] starting
   at absolute block [hint] (0 = start of the group's data area). *)
let alloc_block t ~cg ~hint = Groups.take_near t t.blocks ~cg ~hint

let free_block t blk =
  Groups.release t t.blocks blk;
  Cache.invalidate t.cache blk

(* ------------------------------------------------------------------ *)
(* File data: the shared path, with a file's blocks placed in its inode's
   group, contiguous when possible. *)

module Bmap = Cffs_vfs.Bmap

let data_alloc t ~ino _inode _lblk ~hint =
  match alloc_block t ~cg:(Layout.cg_of_ino t.sb ino) ~hint with
  | Some b -> Ok b
  | None -> Error Enospc

let bmap_alloc t ~ino inode lblk =
  Bmap.alloc t.cache inode lblk ~alloc:(data_alloc t ~ino inode lblk)

let mtime_now t = int_of_float (Blockdev.now (Cache.device t.cache))

module Data = Cffs_vfs.Filedata.Make (struct
  type nonrec t = t

  let cache t = t.cache
  let read_inode = read_inode

  let write_inode t ino inode ~kind =
    store_inode t ino inode ~kind;
    Ok ()

  let alloc = data_alloc
  let free = free_block
  let fault_in _ ~ino:_ _ _ _ = ()
  let note _ ~ino:_ _ = ()
end)

let read_ino = Data.read_ino
let write_ino = Data.write_ino
let truncate_ino = Data.truncate_ino
let data_runs = Data.data_runs

(* ------------------------------------------------------------------ *)
(* Directories. *)

let dir_nblocks t inode = (inode.Inode.size + bs t - 1) / bs t

(* Find [name]; returns its ino. *)
let dir_find t ~dir inode name =
  Data.dir_scan t ~ino:dir inode (fun ~lblk:_ b ->
      match Dirent.find b name with Some (_, ino) -> Some ino | None -> None)

(* Prove [name] absent and find the first slot that takes it, in one
   pass. *)
let dir_slot t ~dir inode name =
  let* probe = Data.dir_probe t ~ino:dir inode (fun b -> Dirent.probe b name) in
  match probe with `Found _ -> Error Eexist | `Absent slot -> Ok slot

(* Write an entry into the slot [dir_slot] found, or into a block the
   directory grows by when it found none; returns the directory block
   written.  Directory blocks are metadata: synchronous under
   [Sync_metadata]. *)
let dir_insert t ~dir dinode slot name ino =
  match slot with
  | Some (lblk, off) ->
      let* p, b = Data.dir_block t ~ino:dir dinode lblk in
      Dirent.insert_at b off name ino;
      Cache.write t.cache ~kind:`Meta p b;
      Ok p
  | None ->
      let lblk = dir_nblocks t dinode in
      let* p = bmap_alloc t ~ino:dir dinode lblk in
      let b = Bytes.make (bs t) '\000' in
      Dirent.init_block b;
      Dirent.insert_at b 0 name ino;
      Cache.write t.cache ~kind:`Meta p b;
      Cache.set_logical t.cache p ~ino:dir ~lblk;
      dinode.Inode.size <- dinode.Inode.size + bs t;
      dinode.Inode.mtime <- mtime_now t;
      write_inode t dir dinode;
      Ok p

(* Remove an entry; returns the directory block written. *)
let dir_remove t ~dir dinode name =
  let* hit =
    Data.dir_scan t ~ino:dir dinode (fun ~lblk b ->
        match Dirent.remove b name with Some _ -> Some (lblk, b) | None -> None)
  in
  match hit with
  | None -> Error Enoent
  | Some (lblk, b) ->
      let* p = Data.mapped t dinode lblk in
      Cache.write t.cache ~kind:`Meta p b;
      Ok p

let dir_entries t ~dir inode =
  let acc = ref [] in
  let* _none =
    Data.dir_scan t ~ino:dir inode (fun ~lblk:_ b ->
        Dirent.iter b (fun ~off:_ ~ino name -> acc := (name, ino) :: !acc);
        None)
  in
  Ok (List.rev !acc)

let dir_is_empty t ~dir inode =
  match dir_entries t ~dir inode with
  | Ok entries -> List.for_all (fun (n, _) -> n = "." || n = "..") entries
  | Error _ -> false

(* ------------------------------------------------------------------ *)
(* The inode-level interface. *)

let label _ = "FFS"
let root t = t.sb.Layout.root_ino

let lookup_dir_inode t dir =
  let* inode = read_inode t dir in
  if inode.Inode.kind <> Inode.Directory then Error Enotdir else Ok inode

let lookup t ~dir name =
  let* dinode = lookup_dir_inode t dir in
  let* found = dir_find t ~dir dinode name in
  match found with Some ino -> Ok ino | None -> Error Enoent

let check_name name =
  if String.length name = 0 || String.length name > Cffs_vfs.Path.max_name then
    Error Enametoolong
  else if String.contains name '/' || name = "." || name = ".." then Error Einval
  else Ok ()

(* Create a regular file or directory.  Write ordering (when synchronous):
   initialised inode first, directory entry second — a crash between the two
   leaves only an unreferenced inode, which fsck reclaims. *)
let mknod t ~dir name kind =
  let* () = check_name name in
  let* dinode = lookup_dir_inode t dir in
  let* slot = dir_slot t ~dir dinode name in
  if kind = Inode.Free then Error Einval
  else begin
    let preferred_cg =
      match kind with
      | Inode.Directory -> dirpref t
      | Inode.Regular | Inode.Free -> Layout.cg_of_ino t.sb dir
    in
    match alloc_inode t ~preferred_cg with
    | None -> Error Enospc
    | Some ino ->
        let inode = Inode.mk kind in
        inode.Inode.mtime <- mtime_now t;
        let* () =
          if kind <> Inode.Directory then Ok ()
          else begin
            (* Dot entries get their own first block. *)
            let cg = Layout.cg_of_ino t.sb ino in
            match alloc_block t ~cg ~hint:0 with
            | None ->
                free_inode t ino;
                Error Enospc
            | Some p ->
                let b = Bytes.make (bs t) '\000' in
                Dirent.init_block b;
                ignore (Dirent.insert b "." ino);
                ignore (Dirent.insert b ".." dir);
                Cache.write t.cache ~kind:`Meta p b;
                inode.Inode.direct.(0) <- p;
                inode.Inode.size <- bs t;
                Ok ()
          end
        in
        write_inode t ino inode;
        let* () =
          if kind = Inode.Directory then begin
            dinode.Inode.nlink <- dinode.Inode.nlink + 1;
            write_inode t dir dinode;
            Ok ()
          end
          else Ok ()
        in
        let* dirent_blk = dir_insert t ~dir dinode slot name ino in
        (* Soft updates: the initialised inode (and a new directory's
           dot block) must reach the disk before the name does. *)
        Cache.order t.cache ~first:(ino_block t ino) ~second:dirent_blk;
        if kind = Inode.Directory && inode.Inode.direct.(0) <> 0 then
          Cache.order t.cache ~first:inode.Inode.direct.(0) ~second:dirent_blk;
        Ok ino
  end

(* Remove a name.  Write ordering (when synchronous): directory entry
   first, inode free second — a crash between the two again leaves only an
   unreferenced inode. *)
let remove t ~dir name ~rmdir =
  let* () = check_name name in
  let* dinode = lookup_dir_inode t dir in
  let* found = dir_find t ~dir dinode name in
  match found with
  | None -> Error Enoent
  | Some ino ->
      let* inode = read_inode t ino in
      let* () =
        match (inode.Inode.kind, rmdir) with
        | Inode.Directory, false -> Error Eisdir
        | Inode.Regular, true -> Error Enotdir
        | Inode.Directory, true ->
            if dir_is_empty t ~dir:ino inode then Ok () else Error Enotempty
        | Inode.Regular, false -> Ok ()
        | Inode.Free, _ -> Error Enoent
      in
      let* dirent_blk = dir_remove t ~dir dinode name in
      (* Soft updates: the name removal must reach the disk before the
         freed/decremented inode does. *)
      Cache.order t.cache ~first:dirent_blk ~second:(ino_block t ino);
      if rmdir then begin
        dinode.Inode.nlink <- dinode.Inode.nlink - 1;
        write_inode t dir dinode
      end;
      inode.Inode.nlink <-
        inode.Inode.nlink - (if inode.Inode.kind = Inode.Directory then 2 else 1);
      if inode.Inode.nlink <= 0 then begin
        Data.free_all t ~ino inode;
        let cleared = Inode.empty () in
        cleared.Inode.generation <- inode.Inode.generation + 1;
        write_inode t ino cleared;
        free_inode t ino
      end
      else write_inode t ino inode;
      Ok ()

let hardlink t ~dir name ~ino =
  let* () = check_name name in
  let* dinode = lookup_dir_inode t dir in
  let* slot = dir_slot t ~dir dinode name in
  let* inode = read_inode t ino in
  if inode.Inode.kind = Inode.Directory then Error Eisdir
  else if inode.Inode.nlink >= Inode.link_max then Error Emlink
  else begin
    inode.Inode.nlink <- inode.Inode.nlink + 1;
    write_inode t ino inode;
    let* dirent_blk = dir_insert t ~dir dinode slot name ino in
    Cache.order t.cache ~first:(ino_block t ino) ~second:dirent_blk;
    Ok ()
  end

let rename t ~sdir ~sname ~ddir ~dname =
  let* () = check_name sname in
  let* () = check_name dname in
  let* sdinode = lookup_dir_inode t sdir in
  let* found = dir_find t ~dir:sdir sdinode sname in
  match found with
  | None -> Error Enoent
  | Some ino ->
      let* inode = read_inode t ino in
      let* ddinode = lookup_dir_inode t ddir in
      let* dest = Data.dir_probe t ~ino:ddir ddinode (fun b -> Dirent.probe b dname) in
      let* target =
        match dest with
        | `Absent slot -> Ok (Some (ddinode, slot))
        | `Found (_, (_, dst_ino)) when dst_ino = ino -> Ok None
        | `Found (_, (_, dst_ino)) ->
            let* dst = read_inode t dst_ino in
            if dst.Inode.kind = Inode.Directory then Error Eexist
            else begin
              let* () = remove t ~dir:ddir dname ~rmdir:false in
              let* ddinode = lookup_dir_inode t ddir in
              let* slot = dir_slot t ~dir:ddir ddinode dname in
              Ok (Some (ddinode, slot))
            end
      in
      match target with
      | None -> Ok () (* both names already link the file: nothing to do *)
      | Some (ddinode, slot) ->
          (* Insert the new name before removing the old one so the file is
             always reachable. *)
          let* new_blk = dir_insert t ~dir:ddir ddinode slot dname ino in
          let* sdinode = lookup_dir_inode t sdir in
          let* old_blk = dir_remove t ~dir:sdir sdinode sname in
          (* Soft updates: the new name must be on disk before the old one
             disappears, or a crash loses the file. *)
          Cache.order t.cache ~first:new_blk ~second:old_blk;
          if inode.Inode.kind = Inode.Directory && sdir <> ddir then begin
            (* Move ".." and the parent link counts. *)
            let* p, b = Data.dir_block t ~ino inode 0 in
            (match Dirent.find b ".." with
            | Some (off, _) ->
                Dirent.set_ino b off ddir;
                Cache.write t.cache ~kind:`Meta p b
            | None -> ());
            sdinode.Inode.nlink <- sdinode.Inode.nlink - 1;
            write_inode t sdir sdinode;
            let* ddinode = lookup_dir_inode t ddir in
            ddinode.Inode.nlink <- ddinode.Inode.nlink + 1;
            write_inode t ddir ddinode;
            Ok ()
          end
          else Ok ()

let readdir t ~dir =
  let* dinode = lookup_dir_inode t dir in
  dir_entries t ~dir dinode

let stat_ino t ino =
  let* inode = read_inode t ino in
  Ok
    {
      Fs_intf.st_ino = ino;
      st_kind = inode.Inode.kind;
      st_size = inode.Inode.size;
      st_nlink = inode.Inode.nlink;
      st_blocks = Bmap.count t.cache inode;
    }

(* FFS has no embedded inodes: the bulk stat walks the directory and then
   pays one inode-table fetch per entry — the honest per-name cost the
   paper's embedded layout eliminates, kept visible here so the stat
   benchmark can expose the asymmetry. *)
let readdir_plus t ~dir =
  let* entries = readdir t ~dir in
  Ok
    (List.filter_map
       (fun (name, ino) ->
         match stat_ino t ino with Ok st -> Some (name, st) | Error _ -> None)
       entries)

let sync t = Cache.flush t.cache
let remount t = Cache.remount t.cache

let block_in_use t blk = blk = 0 || Alloc.allocated t.blocks ~read:(read_header t) blk

let usage t =
  let sb = t.sb in
  let free_blocks = ref 0 and free_inodes = ref 0 in
  for cg = 0 to sb.Layout.cg_count - 1 do
    free_blocks := !free_blocks + cg_free_blocks t cg;
    free_inodes := !free_inodes + cg_free_inodes t cg
  done;
  {
    Fs_intf.total_blocks = sb.Layout.cg_count * sb.Layout.cg_size;
    free_blocks = !free_blocks;
    total_inodes = sb.Layout.cg_count * sb.Layout.inodes_per_cg;
    free_inodes = !free_inodes;
  }

(* ------------------------------------------------------------------ *)
(* Formatting and mounting. *)


(* Delayed-write clustering: FFS merges only physically adjacent blocks that
   are sequential blocks of the same file ([McVoy91]); everything else is a
   separate request. *)
let file_clusterer ~blk:_ ~sequential = sequential

let format ?(cg_size = 2048) ?(inodes_per_cg = 1024) ?policy ?(cache_blocks = 4096)
    ?(integrity = false) ?(spare_blocks = 64)
    ?(namei = Cffs_namei.Namei.config_default) dev =
  let block_size = Blockdev.block_size dev in
  (* FFS gets checksums and bad-sector remapping only — no metadata
     replicas (that degree of self-healing is C-FFS's; see Cffs.format). *)
  let ig =
    if integrity then Some (Cffs_blockdev.Integrity.format ~spare_blocks dev)
    else None
  in
  let usable =
    match ig with
    | Some ig -> Cffs_blockdev.Integrity.data_blocks ig
    | None -> Blockdev.nblocks dev
  in
  (* Under [Journaled] the write-ahead log owns the tail of the usable
     area; the file system confines itself to the blocks below it. *)
  let jr =
    if policy = Some Cache.Journaled then Some (Journal.format dev ~usable)
    else None
  in
  let nblocks = match jr with Some j -> Journal.fs_blocks j | None -> usable in
  let sb =
    Layout.mk_sb ~block_size ~nblocks ~cg_size ~inodes_per_cg ()
  in
  let cache = Cache.create ?policy dev ~capacity_blocks:cache_blocks in
  Cache.set_integrity cache ig;
  (match jr with Some j -> Cache.set_journal cache j | None -> ());
  Cache.set_clusterer cache file_clusterer;
  let t =
    {
      cache;
      sb;
      dir_rotor = 0;
      blocks = sb_block_map sb;
      inodes = sb_inode_map sb;
      namei = Cffs_namei.Namei.create ~config:namei ();
      itable = Inode.Table.create ();
    }
  in
  let sbb = Bytes.make block_size '\000' in
  Layout.encode_sb sb sbb;
  Cache.write cache ~kind:`Meta 0 sbb;
  (* Initialise every group header: metadata blocks pre-allocated. *)
  for cg = 0 to sb.Layout.cg_count - 1 do
    let b = Bytes.make block_size '\000' in
    Alloc.format t.blocks b;
    Alloc.format t.inodes b;
    Cache.write cache ~kind:`Meta (header_block t cg) b
  done;
  (* Reserve inodes 0 and 1, then build the root directory (ino 2). *)
  let b = read_header t 0 in
  List.iter (Alloc.claim t.inodes b) [ 0; 1; 2 ];
  write_header t 0 b;
  let root_ino = sb.Layout.root_ino in
  (match alloc_block t ~cg:0 ~hint:0 with
  | None -> failwith "Ffs.format: device too small for root directory"
  | Some p ->
      let db = Bytes.make block_size '\000' in
      Dirent.init_block db;
      ignore (Dirent.insert db "." root_ino);
      ignore (Dirent.insert db ".." root_ino);
      Cache.write cache ~kind:`Meta p db;
      let inode = Inode.mk Inode.Directory in
      inode.Inode.direct.(0) <- p;
      inode.Inode.size <- block_size;
      write_inode t root_ino inode);
  Cache.flush cache;
  (* a journaled format checkpoints too: fresh image, empty log *)
  Cache.checkpoint cache;
  t

let mount ?policy ?(cache_blocks = 4096)
    ?(namei = Cffs_namei.Namei.config_default) dev =
  let ig = Cffs_blockdev.Integrity.attach dev in
  let usable =
    match ig with
    | Some ig -> Cffs_blockdev.Integrity.data_blocks ig
    | None -> Blockdev.nblocks dev
  in
  (* Mounting is recovery: probing the journal replays every committed
     transaction before the superblock is read, and an on-disk journal
     decides the policy. *)
  let jr = Journal.attach ?integ:ig dev ~usable in
  let policy = match jr with Some _ -> Some Cache.Journaled | None -> policy in
  let cache = Cache.create ?policy dev ~capacity_blocks:cache_blocks in
  Cache.set_integrity cache ig;
  (match jr with Some j -> Cache.set_journal cache j | None -> ());
  Cache.set_clusterer cache file_clusterer;
  match Layout.decode_sb (Cache.read cache 0) with
  | None -> None
  | Some sb ->
      Some
        {
          cache;
          sb;
          dir_rotor = 0;
          blocks = sb_block_map sb;
          inodes = sb_inode_map sb;
          namei = Cffs_namei.Namei.create ~config:namei ();
          itable = Inode.Table.create ();
        }

(* ------------------------------------------------------------------ *)
(* Path-level interface: the shared stack (lib/namei/stack.ml) over the
   operations above.  [Vfs] is bound to a name, not only included, so its
   module block stays live: the benchmark's peak-heap figure on
   mclient_striped moves with that much startup data (ROADMAP). *)

module Vfs = Cffs_namei.Stack.Make (struct
  type nonrec t = t

  let label = label
  let root = root
  let lookup = lookup
  let mknod = mknod
  let remove = remove
  let hardlink = hardlink
  let rename = rename
  let readdir = readdir
  let readdir_plus = readdir_plus
  let stat_ino = stat_ino
  let read_ino = read_ino
  let write_ino = write_ino
  let truncate_ino = truncate_ino
  let data_runs = data_runs
  let sync = sync
  let remount = remount
  let usage = usage
  let device t = Cache.device t.cache
  let prefix = "ffs"
  let namei = namei
end)

include Vfs
