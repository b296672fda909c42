module Layout = Layout
module Dirent = Dirent
module Cache = Cffs_cache.Cache
module Journal = Cffs_cache.Journal
module Blockdev = Cffs_blockdev.Blockdev
module Codec = Cffs_util.Codec
module Bitview = Cffs_util.Bitview
module Errno = Cffs_vfs.Errno
module Inode = Cffs_vfs.Inode
module Fs_intf = Cffs_vfs.Fs_intf
open Errno

type t = {
  cache : Cache.t;
  sb : Layout.sb;
  mutable dir_rotor : int; (* round-robin start for directory placement *)
  namei : Cffs_namei.Namei.t;
      (* per-mount dentry + attribute caches (keyed off by the namei
         interposer below) *)
}

let cache t = t.cache
let superblock t = t.sb
let namei t = t.namei
let bs t = t.sb.Layout.block_size

(* ------------------------------------------------------------------ *)
(* Cylinder-group headers: free counts and both bitmaps live in the
   group's first block.  Bitmap updates are delayed writes (fsck can
   rebuild them), matching FFS. *)

let hdr_free_blocks = Layout.hdr_free_blocks_off
let hdr_free_inodes = Layout.hdr_free_inodes_off
let hdr_ndirs = Layout.hdr_ndirs_off
let hdr_ibm = Layout.hdr_inode_bitmap_off
let hdr_bbm = Layout.hdr_block_bitmap_off

let header_block t cg = Layout.cg_start t.sb cg

let read_header t cg = Cache.read t.cache (header_block t cg)

let write_header t cg b = Cache.write t.cache ~kind:`Meta_delayed (header_block t cg) b

let cg_free_blocks t cg = Codec.get_u32 (read_header t cg) hdr_free_blocks
let cg_free_inodes t cg = Codec.get_u32 (read_header t cg) hdr_free_inodes

(* ------------------------------------------------------------------ *)
(* Inode I/O.  An inode slot shares its table block with 31 others, so we
   must read-modify-write the cached block. *)

let read_inode_exn t ino =
  let blk, off = Layout.ino_location t.sb ino in
  Inode.decode (Cache.read t.cache blk) off

let write_inode t ino inode =
  let blk, off = Layout.ino_location t.sb ino in
  let b = Cache.read t.cache blk in
  Inode.encode inode b off;
  Cache.write t.cache ~kind:`Meta blk b

let ino_block t ino = fst (Layout.ino_location t.sb ino)

let read_inode t ino =
  if not (Layout.valid_ino t.sb ino) then Error Einval
  else begin
    let inode = read_inode_exn t ino in
    if inode.Inode.kind = Inode.Free then Error Enoent else Ok inode
  end

(* ------------------------------------------------------------------ *)
(* Allocators. *)

let alloc_inode t ~preferred_cg =
  let sb = t.sb in
  let try_cg cg =
    let b = read_header t cg in
    if Codec.get_u32 b hdr_free_inodes = 0 then None
    else begin
      match Bitview.find_clear b hdr_ibm ~len:sb.Layout.inodes_per_cg ~hint:0 with
      | None -> None
      | Some idx ->
          Bitview.set b hdr_ibm idx;
          Codec.set_u32 b hdr_free_inodes (Codec.get_u32 b hdr_free_inodes - 1);
          write_header t cg b;
          Some ((cg * sb.Layout.inodes_per_cg) + idx)
    end
  in
  let rec probe i =
    if i >= sb.Layout.cg_count then None
    else begin
      match try_cg ((preferred_cg + i) mod sb.Layout.cg_count) with
      | Some _ as r -> r
      | None -> probe (i + 1)
    end
  in
  probe 0

let free_inode t ino =
  let sb = t.sb in
  let cg = Layout.cg_of_ino sb ino in
  let idx = Layout.ino_index sb ino in
  let b = read_header t cg in
  if Bitview.get b hdr_ibm idx then begin
    Bitview.clear b hdr_ibm idx;
    Codec.set_u32 b hdr_free_inodes (Codec.get_u32 b hdr_free_inodes + 1);
    write_header t cg b
  end

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
let alloc_block t ~cg ~hint =
  let sb = t.sb in
  let try_cg cg hint_rel =
    let b = read_header t cg in
    if Codec.get_u32 b hdr_free_blocks = 0 then None
    else begin
      match Bitview.find_clear b (hdr_bbm sb) ~len:sb.Layout.cg_size ~hint:hint_rel with
      | None -> None
      | Some rel ->
          Bitview.set b (hdr_bbm sb) rel;
          Codec.set_u32 b hdr_free_blocks (Codec.get_u32 b hdr_free_blocks - 1);
          write_header t cg b;
          Some (Layout.cg_start sb cg + rel)
    end
  in
  let hint_rel =
    if hint > 0 && Layout.cg_of_block sb hint = cg then hint - Layout.cg_start sb cg
    else 1 + sb.Layout.itable_blocks
  in
  let rec probe i =
    if i >= sb.Layout.cg_count then None
    else begin
      let g = (cg + i) mod sb.Layout.cg_count in
      let h = if i = 0 then hint_rel else 1 + sb.Layout.itable_blocks in
      match try_cg g h with Some _ as r -> r | None -> probe (i + 1)
    end
  in
  probe 0

let free_block t blk =
  let sb = t.sb in
  let cg = Layout.cg_of_block sb blk in
  let rel = blk - Layout.cg_start sb cg in
  let b = read_header t cg in
  if Bitview.get b (hdr_bbm sb) rel then begin
    Bitview.clear b (hdr_bbm sb) rel;
    Codec.set_u32 b hdr_free_blocks (Codec.get_u32 b hdr_free_blocks + 1);
    write_header t cg b
  end;
  Cache.invalidate t.cache blk

(* ------------------------------------------------------------------ *)
(* Block map: shared 12-direct / indirect / double-indirect logic from
   Cffs_vfs.Bmap, fed by the FFS allocator (same group as the inode,
   contiguous when possible). *)

module Bmap = Cffs_vfs.Bmap

let bmap_read t inode lblk = Bmap.read t.cache inode lblk

let bmap_alloc t ~ino inode lblk =
  let cg = Layout.cg_of_ino t.sb ino in
  let alloc ~hint =
    match alloc_block t ~cg ~hint with Some b -> Ok b | None -> Error Enospc
  in
  Bmap.alloc t.cache inode lblk ~alloc

let iter_blocks t inode ~data ~meta = Bmap.iter t.cache inode ~data ~meta
let count_blocks t inode = Bmap.count t.cache inode

(* ------------------------------------------------------------------ *)
(* File data I/O, via the cache's logical index. *)

let mtime_now t = int_of_float (Blockdev.now (Cache.device t.cache))

(* Read a file's logical block through the (ino, lblk) identity. *)
let file_block_read t ~ino inode lblk =
  match Cache.find_logical t.cache ~ino ~lblk with
  | Some b -> Ok (Some b)
  | None -> begin
      match bmap_read t inode lblk with
      | Error _ as e -> e
      | Ok None -> Ok None
      | Ok (Some p) ->
          let b = Cache.read t.cache p in
          Cache.set_logical t.cache p ~ino ~lblk;
          Ok (Some b)
    end

let read_ino t ~ino ~off ~len =
  let* inode = read_inode t ino in
  if off < 0 || len < 0 then Error Einval
  else begin
    let len = max 0 (min len (inode.Inode.size - off)) in
    let out = Bytes.create len in
    let bsz = bs t in
    let rec loop pos =
      if pos >= len then Ok out
      else begin
        let fo = off + pos in
        let lblk = fo / bsz in
        let boff = fo mod bsz in
        let n = min (bsz - boff) (len - pos) in
        let* data = file_block_read t ~ino inode lblk in
        (match data with
        | Some b -> Bytes.blit b boff out pos n
        | None -> Bytes.fill out pos n '\000');
        loop (pos + n)
      end
    in
    loop 0
  end

let write_ino t ~ino ~off data =
  let* inode = read_inode t ino in
  if off < 0 then Error Einval
  else if inode.Inode.kind = Inode.Directory then Error Eisdir
  else begin
    let len = Bytes.length data in
    let bsz = bs t in
    let old_size = inode.Inode.size in
    let rec loop pos =
      if pos >= len then Ok ()
      else begin
        let fo = off + pos in
        let lblk = fo / bsz in
        let boff = fo mod bsz in
        let n = min (bsz - boff) (len - pos) in
        let* existed = bmap_read t inode lblk in
        let* p = bmap_alloc t ~ino inode lblk in
        (* Read-modify-write only when the write leaves previously valid
           bytes of the block in place; fresh blocks and whole-valid-range
           overwrites start from zeros.  A block just allocated for a hole
           also starts from zeros — its physical block may carry stale
           contents of whatever file freed it, but the hole's bytes are
           zeros by definition. *)
        let valid = max 0 (min bsz (old_size - (lblk * bsz))) in
        let need_rmw = n < bsz && (boff > 0 || n < valid) && existed <> None in
        let buf =
          if not need_rmw then Bytes.make bsz '\000'
          else begin
            match Cache.find_logical t.cache ~ino ~lblk with
            | Some b -> Bytes.copy b
            | None -> Bytes.copy (Cache.read t.cache p)
          end
        in
        Bytes.blit data pos buf boff n;
        Cache.write t.cache ~kind:`Data p buf;
        Cache.set_logical t.cache p ~ino ~lblk;
        loop (pos + n)
      end
    in
    let* () = loop 0 in
    inode.Inode.size <- max inode.Inode.size (off + len);
    inode.Inode.mtime <- mtime_now t;
    (* FFS delays inode updates caused by write(2); only namespace
       operations are synchronous. *)
    let blk, ioff = Layout.ino_location t.sb ino in
    let b = Cache.read t.cache blk in
    Inode.encode inode b ioff;
    Cache.write t.cache ~kind:`Meta_delayed blk b;
    Ok ()
  end

let free_file_blocks t ~ino inode =
  let bsz = bs t in
  let nblocks = (inode.Inode.size + bsz - 1) / bsz in
  for l = 0 to nblocks - 1 do
    Cache.drop_logical t.cache ~ino ~lblk:l
  done;
  iter_blocks t inode ~data:(fun p -> free_block t p) ~meta:(fun p -> free_block t p)

let truncate_ino t ~ino ~size =
  let* inode = read_inode t ino in
  if size < 0 then Error Einval
  else if inode.Inode.kind = Inode.Directory then Error Eisdir
  else begin
    let bsz = bs t in
    if size < inode.Inode.size then begin
      let keep = (size + bsz - 1) / bsz in
      let old_nblocks = (inode.Inode.size + bsz - 1) / bsz in
      for l = keep to old_nblocks - 1 do
        Cache.drop_logical t.cache ~ino ~lblk:l
      done;
      Bmap.shrink t.cache inode ~keep_blocks:keep ~free:(free_block t);
      (* Zero the cut tail of the last kept block so a later size extension
         reads zeros there, as POSIX requires. *)
      if size mod bsz <> 0 then begin
        match bmap_read t inode (keep - 1) with
        | Ok (Some p) ->
            let b = Bytes.copy (Cache.read t.cache p) in
            Codec.zero b (size mod bsz) (bsz - (size mod bsz));
            Cache.write t.cache ~kind:`Data p b;
            Cache.set_logical t.cache p ~ino ~lblk:(keep - 1)
        | Ok None | Error _ -> ()
      end
    end;
    (* Growing just moves the size: the gap is a hole. *)
    inode.Inode.size <- size;
    inode.Inode.mtime <- mtime_now t;
    write_inode t ino inode;
    Ok ()
  end

(* ------------------------------------------------------------------ *)
(* Directories. *)

let dir_nblocks t inode = (inode.Inode.size + bs t - 1) / bs t

(* Find [name]; returns the physical block, its logical index and the ino. *)
let dir_find t ~dir inode name =
  let rec loop lblk =
    if lblk >= dir_nblocks t inode then Ok None
    else begin
      let* data = file_block_read t ~ino:dir inode lblk in
      match data with
      | None -> loop (lblk + 1)
      | Some b -> begin
          match Dirent.find b name with
          | Some (_, ino) -> Ok (Some (lblk, ino))
          | None -> loop (lblk + 1)
        end
    end
  in
  loop 0

(* Insert an entry, growing the directory by one block if necessary;
   returns the directory block written.  Directory blocks are metadata:
   synchronous under [Sync_metadata]. *)
let dir_insert t ~dir dinode name ino =
  let rec loop lblk =
    if lblk >= dir_nblocks t dinode then begin
      let* p = bmap_alloc t ~ino:dir dinode lblk in
      let b = Bytes.make (bs t) '\000' in
      Dirent.init_block b;
      if not (Dirent.insert b name ino) then Error Enametoolong
      else begin
        Cache.write t.cache ~kind:`Meta p b;
        Cache.set_logical t.cache p ~ino:dir ~lblk;
        dinode.Inode.size <- dinode.Inode.size + bs t;
        dinode.Inode.mtime <- mtime_now t;
        write_inode t dir dinode;
        Ok p
      end
    end
    else begin
      let* data = file_block_read t ~ino:dir dinode lblk in
      match data with
      | None -> loop (lblk + 1)
      | Some b ->
          if Dirent.insert b name ino then begin
            let* p = bmap_read t dinode lblk in
            match p with
            | Some p ->
                Cache.write t.cache ~kind:`Meta p b;
                Ok p
            | None -> Error Einval
          end
          else loop (lblk + 1)
    end
  in
  loop 0

(* Remove an entry; returns (its inode number, the directory block written). *)
let dir_remove t ~dir dinode name =
  let rec loop lblk =
    if lblk >= dir_nblocks t dinode then Error Enoent
    else begin
      let* data = file_block_read t ~ino:dir dinode lblk in
      match data with
      | None -> loop (lblk + 1)
      | Some b -> begin
          match Dirent.remove b name with
          | Some ino -> begin
              let* p = bmap_read t dinode lblk in
              match p with
              | Some p ->
                  Cache.write t.cache ~kind:`Meta p b;
                  Ok (ino, p)
              | None -> Error Einval
            end
          | None -> loop (lblk + 1)
        end
    end
  in
  loop 0

let dir_entries t ~dir inode =
  let rec loop lblk acc =
    if lblk >= dir_nblocks t inode then Ok (List.rev acc)
    else begin
      let* data = file_block_read t ~ino:dir inode lblk in
      match data with
      | None -> loop (lblk + 1) acc
      | Some b ->
          let acc =
            Dirent.fold b ~init:acc ~f:(fun acc ~ino name -> (name, ino) :: acc)
          in
          loop (lblk + 1) acc
    end
  in
  loop 0 []

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
  match found with Some (_, ino) -> Ok ino | None -> Error Enoent

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
  let* existing = dir_find t ~dir dinode name in
  match existing with
  | Some _ -> Error Eexist
  | None -> begin
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
            let* dirent_blk = dir_insert t ~dir dinode name ino in
            (* Soft updates: the initialised inode (and a new directory's
               dot block) must reach the disk before the name does. *)
            Cache.order t.cache ~first:(ino_block t ino) ~second:dirent_blk;
            if kind = Inode.Directory && inode.Inode.direct.(0) <> 0 then
              Cache.order t.cache ~first:inode.Inode.direct.(0) ~second:dirent_blk;
            Ok ino
      end
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
  | Some (_, ino) ->
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
      let* _removed, dirent_blk = dir_remove t ~dir dinode name in
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
        free_file_blocks t ~ino inode;
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
  let* existing = dir_find t ~dir dinode name in
  match existing with
  | Some _ -> Error Eexist
  | None ->
      let* inode = read_inode t ino in
      if inode.Inode.kind = Inode.Directory then Error Eisdir
      else if inode.Inode.nlink >= 65000 then Error Emlink
      else begin
        inode.Inode.nlink <- inode.Inode.nlink + 1;
        write_inode t ino inode;
        let* dirent_blk = dir_insert t ~dir dinode name ino in
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
  | Some (_, ino) ->
      let* inode = read_inode t ino in
      let* ddinode = lookup_dir_inode t ddir in
      let* existing = dir_find t ~dir:ddir ddinode dname in
      let* () =
        match existing with
        | None -> Ok ()
        | Some (_, dst_ino) ->
            if dst_ino = ino then Ok ()
            else begin
              let* dst = read_inode t dst_ino in
              if dst.Inode.kind = Inode.Directory then Error Eexist
              else remove t ~dir:ddir dname ~rmdir:false
            end
      in
      (* Insert the new name before removing the old one so the file is
         always reachable. *)
      let* ddinode = lookup_dir_inode t ddir in
      let* new_blk = dir_insert t ~dir:ddir ddinode dname ino in
      let* sdinode = lookup_dir_inode t sdir in
      let* _removed, old_blk = dir_remove t ~dir:sdir sdinode sname in
      (* Soft updates: the new name must be on disk before the old one
         disappears, or a crash loses the file. *)
      Cache.order t.cache ~first:new_blk ~second:old_blk;
      if inode.Inode.kind = Inode.Directory && sdir <> ddir then begin
        (* Move ".." and the parent link counts. *)
        let* data = file_block_read t ~ino inode 0 in
        (match data with
        | Some b -> begin
            match Dirent.find b ".." with
            | Some (off, _) -> begin
                Dirent.set_ino b off ddir;
                match bmap_read t inode 0 with
                | Ok (Some p) -> Cache.write t.cache ~kind:`Meta p b
                | Ok None | Error _ -> ()
              end
            | None -> ()
          end
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
      st_blocks = count_blocks t inode;
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

let data_runs t ~ino =
  let* inode = read_inode t ino in
  if inode.Inode.kind = Inode.Directory then Error Eisdir
  else begin
    let bsz = bs t in
    let nblocks = (inode.Inode.size + bsz - 1) / bsz in
    let rec go l acc =
      if l >= nblocks then Ok (List.rev acc)
      else
        let* p = bmap_read t inode l in
        match p with
        | None -> go (l + 1) acc (* hole *)
        | Some p ->
            let acc =
              match acc with
              | (start, n) :: rest when start + n = p -> (start, n + 1) :: rest
              | _ -> (p, 1) :: acc
            in
            go (l + 1) acc
    in
    go 0 []
  end

let sync t = Cache.flush t.cache
let remount t = Cache.remount t.cache

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
let file_clusterer ~prev ~next =
  match (snd prev, snd next) with
  | Some (ino1, l1), Some (ino2, l2) -> ino1 = ino2 && l2 = l1 + 1
  | _ -> false

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
    { cache; sb; dir_rotor = 0; namei = Cffs_namei.Namei.create ~config:namei () }
  in
  let sbb = Bytes.make block_size '\000' in
  Layout.encode_sb sb sbb;
  Cache.write cache ~kind:`Meta 0 sbb;
  (* Initialise every group header: metadata blocks pre-allocated. *)
  for cg = 0 to sb.Layout.cg_count - 1 do
    let b = Bytes.make block_size '\000' in
    let meta_blocks = 1 + sb.Layout.itable_blocks in
    Codec.set_u32 b hdr_free_blocks (sb.Layout.cg_size - meta_blocks);
    Codec.set_u32 b hdr_free_inodes sb.Layout.inodes_per_cg;
    Codec.set_u32 b hdr_ndirs 0;
    for i = 0 to meta_blocks - 1 do
      Bitview.set b (hdr_bbm sb) i
    done;
    Cache.write cache ~kind:`Meta (header_block t cg) b
  done;
  (* Reserve inodes 0 and 1, then build the root directory (ino 2). *)
  let b = read_header t 0 in
  Bitview.set b hdr_ibm 0;
  Bitview.set b hdr_ibm 1;
  Bitview.set b hdr_ibm 2;
  Codec.set_u32 b hdr_free_inodes (Codec.get_u32 b hdr_free_inodes - 3);
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
        { cache; sb; dir_rotor = 0; namei = Cffs_namei.Namei.create ~config:namei () }

(* ------------------------------------------------------------------ *)
(* Path-level interface. *)

module Low = Cffs_vfs.Obs_low.Make (struct
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
end)

(* The namei layer (per-mount dentry/attribute caches, see lib/namei)
   interposes between the instrumented LOW and the path API. *)
module Cached = Cffs_namei.Namei.Make (struct
  include Low

  let namei = namei
end)

(* Re-export the cached, instrumented entry points so direct callers
   (workloads, fsck, tests) see exactly what path-level access sees —
   anything else would let a direct mutation leave a stale cache entry
   behind. *)
let lookup = Cached.lookup
let mknod = Cached.mknod
let remove = Cached.remove
let hardlink = Cached.hardlink
let rename = Cached.rename
let readdir = Cached.readdir
let readdir_plus = Cached.readdir_plus
let stat_ino = Cached.stat_ino
let read_ino = Cached.read_ino
let write_ino = Cached.write_ino
let truncate_ino = Cached.truncate_ino
let remount = Cached.remount

(* Path resolution goes through the full-path shortcut cache: a warm
   repeated path skips the component walk entirely, and a shortcut miss
   still walks through [Cached], so it benefits from (and warms) the
   dentry cache. *)
module Pathops =
  Cffs_vfs.Pathfs.MakeWith
    (Cached)
    (Cffs_namei.Namei.Resolver (struct
      include Cached

      let namei = namei
    end))

let resolve = Pathops.resolve
let create = Pathops.create
let mkdir = Pathops.mkdir
let mkdir_p = Pathops.mkdir_p
let unlink = Pathops.unlink
let rmdir = Pathops.rmdir
let link = Pathops.link
let rename_path = Pathops.rename_path
let stat = Pathops.stat
let exists = Pathops.exists
let read = Pathops.read
let write = Pathops.write
let truncate = Pathops.truncate
let file_runs = Pathops.file_runs
let read_file = Pathops.read_file
let write_file = Pathops.write_file
let append_file = Pathops.append_file
let list_dir = Pathops.list_dir
let list_dir_plus = Pathops.list_dir_plus
