module Csb = Csb
module Cdir = Cdir
module Cache = Cffs_cache.Cache
module Journal = Cffs_cache.Journal
module Readahead = Cffs_cache.Readahead
module Blockdev = Cffs_blockdev.Blockdev
module Integrity = Cffs_blockdev.Integrity
module Int_tbl = Cffs_util.Keys.Int_tbl
module Alloc = Cffs_vfs.Alloc
module Errno = Cffs_vfs.Errno
module Inode = Cffs_vfs.Inode
module Fs_intf = Cffs_vfs.Fs_intf
module Bmap = Cffs_vfs.Bmap
module Filedata = Cffs_vfs.Filedata
open Errno

type config = {
  embed_inodes : bool;
  grouping : bool;
  group_blocks : int;
  group_file_blocks : int;
  readahead_blocks : int;
  dirindex_threshold : int;
}

let config_default =
  {
    embed_inodes = true;
    grouping = true;
    group_blocks = 16;
    group_file_blocks = 8;
    readahead_blocks = 0;
    dirindex_threshold = 8;
  }

let config_ffs_like = { config_default with embed_inodes = false; grouping = false }

let config_label c =
  match (c.embed_inodes, c.grouping) with
  | true, true -> "C-FFS (EI+EG)"
  | true, false -> "C-FFS (EI)"
  | false, true -> "C-FFS (EG)"
  | false, false -> "C-FFS (none)"

type t = {
  cache : Cache.t;
  sb : Csb.t;
  dir_format : Dir.format;  (** chunks or dense records, per [embed_inodes] *)
  mutable ext_free : int list;  (** free external-inode slots *)
  mutable dir_rotor : int;
  ra : Readahead.t;
      (** per-file sequential-access detector; drives adaptive read-ahead *)
  parents : int Int_tbl.t;
      (** ino -> containing-directory ino; in-memory only (the vnode-layer
          parent pointer), repopulated by lookups after a remount *)
  blocks : Alloc.map;  (** the cylinder groups' block bitmaps *)
  mutable frame_drought : bool;
      (** a whole-device scan found no free frame; reset on any block free *)
  replica_dirty : (int, unit) Hashtbl.t;
      (** replica slots (0 = superblock, 1+cg = group descriptor) whose
          primary changed since the last {!sync}; refreshed at the sync
          barrier so replication costs nothing on the alloc/free hot path *)
  namei : Cffs_namei.Namei.t;
      (** per-mount dentry + attribute caches (the namei layer wraps
          [Low] below; this is only the state it keys off) *)
  itable : Inode.Table.t;  (** decoded inodes, re-checked against their blocks *)
}

let cache t = t.cache
let superblock t = t.sb
let block_map t = t.blocks
let integrity t = Cache.integrity t.cache
let namei t = t.namei

let config t =
  {
    embed_inodes = t.sb.Csb.embed_inodes;
    grouping = t.sb.Csb.grouping;
    group_blocks = t.sb.Csb.group_blocks;
    group_file_blocks = t.sb.Csb.group_file_blocks;
    readahead_blocks = t.sb.Csb.readahead_blocks;
    dirindex_threshold = t.sb.Csb.dirindex_threshold;
  }

let label t = config_label (config t)
let bs t = t.sb.Csb.block_size
let cpb t = Cdir.chunks_per_block ~block_size:(bs t)

(* Inode flag bit: some of this file's data was group-allocated. *)
let flag_grouped = 1

let is_embedded_ino ino = ino >= Csb.embed_bit
let is_external_ino ino = ino >= Csb.ext_base && ino < Csb.embed_bit

let embed_ino t ~pblock ~chunk = Csb.embed_bit + (pblock * cpb t) + chunk
let embed_block t ino = (ino - Csb.embed_bit) / cpb t
let embed_chunk t ino = (ino - Csb.embed_bit) mod cpb t

let mtime_now t = int_of_float (Blockdev.now (Cache.device t.cache))

(* The counters behind the paper's qualitative claims: embedded inodes
   arrive with the directory block (vs falling to the external inode
   file), grouped data moves in frame-sized requests (vs per-block), and
   fragmentation erodes grouping by forcing single-block placement. *)
module Obs = Cffs_obs.Registry

let m_embedded_hits = Obs.counter "cffs.embedded_inode_hits"
let m_external_reads = Obs.counter "cffs.external_inode_reads"
let m_group_reads = Obs.counter "cffs.group_reads"
let m_readahead_reads = Obs.counter "cffs.readahead_reads"
let m_group_fills = Obs.counter "cffs.group_fills"
let m_frag_splits = Obs.counter "cffs.frag_splits"

(* ------------------------------------------------------------------ *)
(* Cylinder-group headers: free count + block bitmap. *)

let sb_block_map (sb : Csb.t) =
  Alloc.map ~bitmap:Csb.hdr_block_bitmap_off ~free:Csb.hdr_free_blocks_off
    ~origin:(Csb.cg_start sb 0) ~per_group:sb.Csb.cg_size ~groups:sb.Csb.cg_count
    ~first:(Csb.cg_data_start sb 0 - Csb.cg_start sb 0)

let header_block t cg = Csb.cg_start t.sb cg

(* Degraded-mode read of a replicated metadata block: when the primary is
   unreadable or fails its checksum, serve the replica and schedule a
   repair write — the rewrite re-tags a corrupt block, and remap-on-write
   relocates a bad sector.  The fs keeps operating; only the
   [integrity.degraded_reads] counter betrays that anything happened. *)
let read_meta_replicated t ~slot blk =
  try Cache.read t.cache blk
  with Cffs_util.Io_error.E _ as e -> (
    match Cache.integrity t.cache with
    | None -> raise e
    | Some ig -> (
        match Integrity.replica_read ig ~slot with
        | None -> raise e
        | Some data ->
            Integrity.note_degraded ();
            Cache.write t.cache ~kind:`Meta blk data;
            Hashtbl.replace t.replica_dirty slot ();
            data))

let read_header t cg = read_meta_replicated t ~slot:(1 + cg) (header_block t cg)

let write_header t cg b =
  Hashtbl.replace t.replica_dirty (1 + cg) ();
  Cache.write t.cache ~kind:`Meta_delayed (header_block t cg) b

let read_sb_block t = read_meta_replicated t ~slot:0 0

let write_sb_block t ~kind b =
  Hashtbl.replace t.replica_dirty 0 ();
  Cache.write t.cache ~kind 0 b

let cg_free_blocks t cg = Alloc.free_count t.blocks (read_header t cg)

module Groups = Alloc.Make (struct
  type nonrec t = t

  let read = read_header
  let write = write_header
end)

(* Claim a specific known-free block. *)
let claim_block t blk = Groups.claim t t.blocks blk

(* FFS-style single-block allocation: the given group first, near [hint]. *)
let alloc_near t ~cg ~hint = Groups.take_near t t.blocks ~cg ~hint

let free_block t blk =
  Groups.release t t.blocks blk;
  t.frame_drought <- false;
  Cache.invalidate t.cache blk

(* ------------------------------------------------------------------ *)
(* Group frames: aligned [group_blocks]-sized extents of a group's data
   area. *)

(* The start of the aligned frame holding [blk], or [-1] when [blk] lies
   in no frame (grouping off, a header block, or the group's ragged
   tail). *)
let frame_start (sb : Csb.t) blk =
  if not sb.Csb.grouping then -1
  else begin
    let gb = sb.Csb.group_blocks in
    let cg = Csb.cg_of_block sb blk in
    let data0 = Csb.cg_data_start sb cg in
    let rel = blk - data0 in
    if rel < 0 then -1
    else begin
      let start = data0 + (rel / gb * gb) in
      if start + gb <= Csb.cg_start sb cg + sb.Csb.cg_size then start else -1
    end
  end

let frame_of_block t blk =
  let f = frame_start t.sb blk in
  if f < 0 then None else Some f

(* Delayed-write clustering: adjacent dirty blocks travel as one request
   when they are sequential blocks of the same file (FFS-style clustering)
   or, with grouping on, when they lie in the same group frame — the "moved
   to and from the disk as a unit" of explicit grouping. *)
let clusterer_of_sb (sb : Csb.t) ~blk ~sequential =
  sequential
  ||
  let f = frame_start sb blk in
  f >= 0 && f = frame_start sb (blk - 1)

(* The first free block at or after [frame + i] in the frame, or [-1]. *)
let rec frame_free_from t b frame base_rel i =
  if i >= t.sb.Csb.group_blocks then -1
  else if Alloc.mem t.blocks b (base_rel + i) then frame_free_from t b frame base_rel (i + 1)
  else frame + i

let frame_free_block t frame =
  let cg = Alloc.group t.blocks frame in
  frame_free_from t (read_header t cg) frame (frame - Alloc.start t.blocks cg) 0

(* Find a completely free, aligned frame, preferring group [cg]. *)
let alloc_frame t ~cg =
  if t.frame_drought then None
  else begin
    let sb = t.sb in
    let gb = sb.Csb.group_blocks in
    let try_cg g =
      let b = read_header t g in
      if Alloc.free_count t.blocks b < gb then None
      else begin
        let data0_rel = Csb.cg_data_start sb g - Csb.cg_start sb g in
        let nframes = (sb.Csb.cg_size - data0_rel) / gb in
        let rec scan k =
          if k >= nframes then None
          else begin
            let base = data0_rel + (k * gb) in
            let rec all_free i =
              i >= gb || ((not (Alloc.mem t.blocks b (base + i))) && all_free (i + 1))
            in
            if all_free 0 then Some (Csb.cg_start sb g + base) else scan (k + 1)
          end
        in
        scan 0
      end
    in
    let found = Alloc.probe t.blocks ~cg try_cg in
    if Option.is_none found then t.frame_drought <- true;
    found
  end

(* ------------------------------------------------------------------ *)
(* Inode access: resident (superblock), embedded (directory chunk) or
   external (inode-file slot). *)

let sb_inode_off ino =
  if ino = Csb.root_ino then Csb.root_inode_off
  else if ino = Csb.ifile_ino then Csb.ifile_inode_off
  else invalid_arg "Cffs: not a resident inode"

let ipb t = bs t / Inode.size_bytes

let read_resident t ino = Inode.Table.decode t.itable ino (read_sb_block t) (sb_inode_off ino)

let write_resident t ino inode ~kind =
  let b = read_sb_block t in
  Inode.encode inode b (sb_inode_off ino);
  write_sb_block t ~kind b

(* Physical block of the inode-file block holding [slot], if mapped. *)
let ifile_block t slot =
  let ifile = read_resident t Csb.ifile_ino in
  Bmap.read t.cache ifile (slot / ipb t)

let read_inode t ino : Inode.t Errno.result =
  if ino = Csb.root_ino || ino = Csb.ifile_ino then Ok (read_resident t ino)
  else if is_embedded_ino ino then begin
    let pblock = embed_block t ino and chunk = embed_chunk t ino in
    if pblock <= 0 || pblock >= Csb.total_blocks t.sb || chunk >= cpb t then Error Einval
    else begin
      let b = Cache.read t.cache pblock in
      (* Only a live entry chunk (state 1) holds an inode; free chunks and
         overflow-link chunks alike answer ENOENT. *)
      if Cdir.state b chunk <> Cdir.state_entry then Error Enoent
      else begin
        let inode = Inode.Table.decode t.itable ino b (Cdir.inode_off chunk) in
        if inode.Inode.kind = Inode.Free then Error Enoent
        else begin
          Obs.incr m_embedded_hits;
          Ok inode
        end
      end
    end
  end
  else if is_external_ino ino then begin
    let slot = ino - Csb.ext_base in
    if slot >= t.sb.Csb.ext_high then Error Enoent
    else begin
      let* p = ifile_block t slot in
      match p with
      | None -> Error Enoent
      | Some p ->
          let b = Cache.read t.cache p in
          let inode = Inode.Table.decode t.itable ino b (slot mod ipb t * Inode.size_bytes) in
          if inode.Inode.kind = Inode.Free then Error Enoent
          else begin
            Obs.incr m_external_reads;
            Ok inode
          end
    end
  end
  else Error Einval

let write_inode t ino inode ~kind : unit Errno.result =
  if ino = Csb.root_ino || ino = Csb.ifile_ino then begin
    write_resident t ino inode ~kind;
    Ok ()
  end
  else if is_embedded_ino ino then begin
    let pblock = embed_block t ino in
    let b = Cache.read t.cache pblock in
    Cdir.write_inode b (embed_chunk t ino) inode;
    Cache.write t.cache ~kind pblock b;
    Ok ()
  end
  else begin
    let slot = ino - Csb.ext_base in
    let* p = ifile_block t slot in
    match p with
    | None -> Error Enoent
    | Some p ->
        let b = Cache.read t.cache p in
        Inode.encode inode b (slot mod ipb t * Inode.size_bytes);
        Cache.write t.cache ~kind p b;
        Ok ()
  end

let write_inode_raw t ino inode =
  (* Fsck rewrites inodes behind the namespace's back; whatever the namei
     layer cached about them is no longer truth. *)
  Cffs_namei.Namei.flush t.namei;
  write_inode t ino inode ~kind:`Meta

(* ------------------------------------------------------------------ *)
(* External inode allocation (the IFILE-like structure: grows as needed,
   never shrinks, blocks never move). *)

let persist_sb t =
  let b = read_sb_block t in
  Csb.encode t.sb b;
  write_sb_block t ~kind:`Meta_delayed b

let grow_ifile_to t slot =
  let ifile = read_resident t Csb.ifile_ino in
  let lblk = slot / ipb t in
  let needed = (lblk + 1) * bs t in
  if ifile.Inode.size >= needed then Ok ()
  else begin
    let alloc ~hint =
      match alloc_near t ~cg:0 ~hint with Some b -> Ok b | None -> Error Enospc
    in
    let rec grow l =
      if l > lblk then Ok ()
      else begin
        let* p = Bmap.alloc t.cache ifile l ~alloc in
        Cache.write t.cache ~kind:`Meta_delayed p (Bytes.make (bs t) '\000');
        grow (l + 1)
      end
    in
    let* () = grow (ifile.Inode.size / bs t) in
    ifile.Inode.size <- needed;
    write_resident t Csb.ifile_ino ifile ~kind:`Meta_delayed;
    Ok ()
  end

(* The inode-file block holding an external inode, when mapped. *)
let ext_ino_block t ino =
  if not (is_external_ino ino) then None
  else begin
    match ifile_block t (ino - Csb.ext_base) with
    | Ok (Some p) -> Some p
    | Ok None | Error _ -> None
  end

(* The physical home of an inode record, for soft-updates ordering. *)
let inode_home_block t ino =
  if ino = Csb.root_ino || ino = Csb.ifile_ino then Some 0
  else if is_embedded_ino ino then Some (embed_block t ino)
  else ext_ino_block t ino

let alloc_ext_ino t =
  match t.ext_free with
  | slot :: rest ->
      t.ext_free <- rest;
      Ok (Csb.ext_base + slot)
  | [] ->
      let slot = t.sb.Csb.ext_high in
      let* () = grow_ifile_to t slot in
      t.sb.Csb.ext_high <- slot + 1;
      persist_sb t;
      Ok (Csb.ext_base + slot)

let free_ext_ino t ino ~generation =
  let slot = ino - Csb.ext_base in
  let cleared = Inode.empty () in
  cleared.Inode.generation <- generation + 1;
  let* () = write_inode t ino cleared ~kind:`Meta in
  t.ext_free <- slot :: t.ext_free;
  Ok ()

(* ------------------------------------------------------------------ *)
(* Data allocation. *)

(* The cylinder group a directory's data gravitates to: the group of its
   most recent frame, else the affinity chosen at mkdir (spare.(1), stored
   +1 so 0 means unset), else the group of its first block. *)
let dir_affinity_cg t (dinode : Inode.t) =
  if dinode.Inode.spare.(0) <> 0 then Csb.cg_of_block t.sb dinode.Inode.spare.(0)
  else if dinode.Inode.spare.(1) > 0 then
    (dinode.Inode.spare.(1) - 1) mod t.sb.Csb.cg_count
  else if dinode.Inode.direct.(0) <> 0 then Csb.cg_of_block t.sb dinode.Inode.direct.(0)
  else 0

(* FFS-style directory preference: spread new directories over the groups
   with the most free space, starting from a rotor. *)
let dirpref t =
  let sb = t.sb in
  let best = ref (t.dir_rotor mod sb.Csb.cg_count, -1) in
  for i = 0 to sb.Csb.cg_count - 1 do
    let cg = (t.dir_rotor + i) mod sb.Csb.cg_count in
    let free = cg_free_blocks t cg in
    if free > snd !best then best := (cg, free)
  done;
  t.dir_rotor <- (t.dir_rotor + 1) mod sb.Csb.cg_count;
  fst !best

(* A free block in the active frame hints [spare.(i ..)], or [-1]. *)
let rec from_active t spare i =
  if i >= Inode.n_spare then -1
  else if spare.(i) = 0 then from_active t spare (i + 1)
  else begin
    let blk = frame_free_block t spare.(i) in
    if blk >= 0 then blk else from_active t spare (i + 1)
  end

(* Allocate one block inside the directory's group frames, acquiring a new
   frame when the active ones are full; falls back to ungrouped placement
   under fragmentation (this is how aging erodes grouping). *)
let alloc_grouped t ~dir_ino ~dinode =
  let spare = dinode.Inode.spare in
  let blk = from_active t spare 0 in
  if blk >= 0 then begin
    claim_block t blk;
    Ok blk
  end
  else begin
      match alloc_frame t ~cg:(dir_affinity_cg t dinode) with
      | Some frame ->
          Obs.incr m_group_fills;
          (* Most-recent frame first; the oldest hint falls off. *)
          for i = Inode.n_spare - 1 downto 1 do
            spare.(i) <- spare.(i - 1)
          done;
          spare.(0) <- frame;
          let* () = write_inode t dir_ino dinode ~kind:`Meta_delayed in
          claim_block t frame;
          Ok frame
      | None -> begin
          (* No whole frame free: this directory's data fragments. *)
          Obs.incr m_frag_splits;
          match alloc_near t ~cg:(dir_affinity_cg t dinode) ~hint:0 with
          | Some blk -> Ok blk
          | None -> Error Enospc
        end
  end

(* ------------------------------------------------------------------ *)
(* File data I/O with group-sized reads. *)

let group_read_applies t (inode : Inode.t) lblk =
  t.sb.Csb.grouping
  && (inode.Inode.kind = Inode.Directory
     || (inode.Inode.flags land flag_grouped <> 0 && lblk < t.sb.Csb.group_file_blocks))

(* Sequential read-ahead for ungrouped data (an extension: the paper's
   implementation has none).  On a miss in a sequential streak the
   adaptive detector advises a window — doubling per readahead event up
   to the configured maximum, reset on seeks — and the physically
   contiguous run of the next blocks within it travels as one request. *)
let readahead t ~ino inode lblk p =
  let window = Readahead.advise t.ra ~ino ~lblk in
  if window > 0 && not (Cache.resident_block t.cache p) then begin
    let rec run_len i =
      if i > window then i
      else begin
        match Bmap.read t.cache inode (lblk + i) with
        | Ok (Some q) when q = p + i -> run_len (i + 1)
        | Ok _ | Error _ -> i
      end
    in
    let n = run_len 1 in
    if n > 1 && Cache.read_group t.cache p n then Obs.incr m_readahead_reads
  end

(* A file block at [p] that has no logical hit is about to be read.  A
   miss on a grouped block fetches the whole frame in one request and
   installs every block by physical address; the target block then gets
   its logical identity (paper §3.2).  The frame fetch is a miss-path
   amplification: when the block itself is already resident (group read
   of a sibling, prefetch) there is no device read to amplify, so the
   rest of the frame is not faulted in synchronously.  [fetch_frame]
   answers whether [p] missed inside a frame; other misses may read
   ahead instead. *)
let fetch_frame t p =
  let frame = if Cache.resident_block t.cache p then -1 else frame_start t.sb p in
  if frame >= 0 then begin
    if Cache.read_group t.cache frame t.sb.Csb.group_blocks then Obs.incr m_group_reads;
    true
  end
  else false

let fault_in t ~ino inode lblk p =
  if not (group_read_applies t inode lblk && fetch_frame t p) then
    readahead t ~ino inode lblk p

(* The allocator for one of [ino]'s data blocks.  Small-file blocks go to
   the owning directory's frames when grouping is on and the parent is
   known; everything else gets FFS-style placement. *)
let data_alloc t ~ino (inode : Inode.t) lblk ~hint =
  let parent = match Int_tbl.find t.parents ino with d -> d | exception Not_found -> -1 in
  let grouped =
    t.sb.Csb.grouping
    && inode.Inode.kind = Inode.Regular
    && lblk < t.sb.Csb.group_file_blocks
    && parent >= 0
  in
  if grouped then begin
    match read_inode t parent with
    | Ok dinode -> (
        match alloc_grouped t ~dir_ino:parent ~dinode with
        | Ok _ as r ->
            inode.Inode.flags <- inode.Inode.flags lor flag_grouped;
            r
        | Error _ as e -> e)
    | Error _ -> begin
        match alloc_near t ~cg:0 ~hint with
        | Some b -> Ok b
        | None -> Error Enospc
      end
  end
  else begin
    let cg =
      if hint > 0 then Csb.cg_of_block t.sb hint
      else if parent < 0 then 0
      else begin
        match read_inode t parent with
        | Ok dinode -> dir_affinity_cg t dinode
        | Error _ -> 0
      end
    in
    match alloc_near t ~cg ~hint with Some b -> Ok b | None -> Error Enospc
  end

module Data = Filedata.Make (struct
  type nonrec t = t

  let cache t = t.cache
  let read_inode = read_inode
  let write_inode = write_inode
  let alloc = data_alloc
  let free = free_block
  let fault_in = fault_in
  let note t ~ino lblk = Readahead.note t.ra ~ino ~lblk
end)

let read_ino = Data.read_ino
let write_ino = Data.write_ino
let truncate_ino = Data.truncate_ino
let data_runs = Data.data_runs

let drop_logical_range t ~ino ~nblocks =
  Filedata.drop_logical t.cache ~ino ~from:0 ~until:nblocks

(* ------------------------------------------------------------------ *)
(* Directories: the linear formats and the hashed index live in {!Dir}
   and {!Dirindex}; this is their seam. *)

let chunk_ino t ~pblock (e : Cdir.entry) =
  if e.Cdir.embedded then embed_ino t ~pblock ~chunk:e.Cdir.chunk else e.Cdir.ext_ino

(* A directory block read that fetches the block's whole frame on a
   miss: index leaves are grouped like linear directory blocks. *)
let read_grouped t p =
  if t.sb.Csb.grouping then ignore (fetch_frame t p);
  Cache.read t.cache p

module Directory = Dir.Make (struct
  type nonrec t = t

  let cache t = t.cache
  let sb t = t.sb
  let format t = t.dir_format
  let embed_ino = embed_ino
  let alloc_grouped = alloc_grouped
  let alloc_near = alloc_near
  let free_block = free_block
  let write_inode = write_inode
  let inode_home_block = inode_home_block
  let affinity_cg = dir_affinity_cg
  let read_grouped = read_grouped
  let chunk_ino = chunk_ino
  let mtime_now = mtime_now
  let flush_namei t = Cffs_namei.Namei.flush t.namei
  let mapped = Data.mapped
  let dir_block = Data.dir_block
  let dir_scan = Data.dir_scan
  let dir_probe = Data.dir_probe
end)

module Index = Directory.Index

(* ------------------------------------------------------------------ *)
(* Index introspection (fsck, layout, tests). *)

let dir_hash = Dirindex.dir_hash
let dir_indexed = Index.indexed
let index_walk = Index.iter

type index_stats = {
  idx_dirs : int;
  idx_blocks : int;  (** roots + table blocks + leaves *)
  idx_leaves : int;
  idx_leaf_fill : float;  (** live entries / leaf entry capacity *)
}

let index_stats t =
  let dirs = ref 0 and blocks = ref 0 and live = ref 0 and leaves = ref 0 in
  let rec walk dir =
    match read_inode t dir with
    | Error _ -> ()
    | Ok dinode when dinode.Inode.kind = Inode.Directory ->
        (if dir_indexed t dinode then begin
           incr dirs;
           let b, l, n = Index.census t dinode in
           blocks := !blocks + b;
           leaves := !leaves + l;
           live := !live + n
         end);
        (match Directory.entries t ~dir dinode with
        | Ok entries -> List.iter (fun (_, ino) -> walk ino) entries
        | Error _ -> ())
    | Ok _ -> ()
  in
  walk Csb.root_ino;
  {
    idx_dirs = !dirs;
    idx_blocks = !blocks;
    idx_leaves = !leaves;
    idx_leaf_fill =
      (if !leaves = 0 then 0.0
       else float_of_int !live /. float_of_int (!leaves * Index.link_chunk t));
  }

(* ------------------------------------------------------------------ *)
(* Namespace operations. *)

let root _ = Csb.root_ino

(* Namespace operations match where [let*] would build a continuation
   closure per call. *)

let lookup_dir_inode t dir =
  match read_inode t dir with
  | Ok inode as r -> if inode.Inode.kind <> Inode.Directory then Error Enotdir else r
  | Error _ as e -> e

let lookup t ~dir name =
  match lookup_dir_inode t dir with
  | Error e -> Error e
  | Ok dinode -> (
      match Directory.find t ~dir dinode name with
      | Ok (Some f) ->
          Int_tbl.replace t.parents f.Dir.f_ino dir;
          Ok f.Dir.f_ino
      | Ok None -> Error Enoent
      | Error e -> Error e)

let check_name t name =
  let limit = Dir.max_name t.dir_format in
  if String.length name = 0 || String.length name > limit then Error Enametoolong
  else if String.contains name '/' || name = "." || name = ".." then Error Einval
  else Ok ()

(* Create.  Embedded: the name and the initialised inode are written in one
   synchronous directory-block write (they share a sector: atomic, no
   ordering constraint).  External: inode-file write first, then the
   directory entry, as in FFS. *)
let mknod_external t ~dir dinode slot name inode ~subdir =
  let* ino = alloc_ext_ino t in
  let* () = write_inode t ino inode ~kind:`Meta in
  (* Soft updates: initialised inode before the name. *)
  match
    Directory.add t ~dir dinode slot name (Dir.Ext ino) ~after:(ext_ino_block t ino) ~subdir
  with
  | Ok _ -> Ok ino
  | Error e ->
      (* No name reached the directory (it could not grow): the
         slot goes back, or fsck finds an orphan inode. *)
      let* () = free_ext_ino t ino ~generation:inode.Inode.generation in
      Error e

let mknod_in t ~dir dinode slot name kind =
  let inode = Inode.mk kind in
  inode.Inode.mtime <- mtime_now t;
  if kind = Inode.Directory then inode.Inode.spare.(1) <- dirpref t + 1;
  let subdir = kind = Inode.Directory in
  let r =
    if t.sb.Csb.embed_inodes then begin
      match Directory.add t ~dir dinode slot name (Dir.Embed inode) ~after:None ~subdir with
      | Ok (pblock, chunk) -> Ok (embed_ino t ~pblock ~chunk)
      | Error e -> Error e
    end
    else mknod_external t ~dir dinode slot name inode ~subdir
  in
  (match r with Ok ino -> Int_tbl.replace t.parents ino dir | Error _ -> ());
  r

let mknod t ~dir name kind =
  match check_name t name with
  | Error e -> Error e
  | Ok () -> (
      match lookup_dir_inode t dir with
      | Error e -> Error e
      | Ok dinode -> (
          match Directory.slot t ~dir dinode name with
          | Error e -> Error e
          | Ok slot -> if kind = Inode.Free then Error Einval else mknod_in t ~dir dinode slot name kind))

(* Delete.  Embedded: clearing the chunk removes name and inode in one
   synchronous write; repeated deletes in a directory overwrite the same
   block, which is where the paper's 250 % delete improvement comes from. *)
(* May the inode a remove found be removed? *)
let removable t (f : Dir.found) (inode : Inode.t) ~rmdir =
  match (inode.Inode.kind, rmdir) with
  | Inode.Directory, false -> Error Eisdir
  | Inode.Regular, true -> Error Enotdir
  | Inode.Directory, true -> (
      match Directory.live_entries t ~dir:f.f_ino inode with
      | Ok 0 -> Ok ()
      | Ok _ -> Error Enotempty
      | Error e -> Error e)
  | Inode.Regular, false -> Ok ()
  | Inode.Free, _ -> Error Enoent

(* Release what the name pointed at, once the name is gone. *)
let release_inode t (f : Dir.found) (inode : Inode.t) =
  if f.f_embedded then begin
    (* The inode died with the chunk; just release its blocks. *)
    Data.free_all t ~ino:f.f_ino inode;
    Ok ()
  end
  else if inode.Inode.kind = Inode.Directory || inode.Inode.nlink <= 1 then begin
    Data.free_all t ~ino:f.f_ino inode;
    if is_external_ino f.f_ino then begin
      (* Soft updates: the name removal before the inode free. *)
      (match ext_ino_block t f.f_ino with
      | Some iblk -> Cache.order t.cache ~first:f.f_pblock ~second:iblk
      | None -> ());
      free_ext_ino t f.f_ino ~generation:inode.Inode.generation
    end
    else Ok ()
  end
  else begin
    (match ext_ino_block t f.f_ino with
    | Some iblk -> Cache.order t.cache ~first:f.f_pblock ~second:iblk
    | None -> ());
    inode.Inode.nlink <- inode.Inode.nlink - 1;
    write_inode t f.f_ino inode ~kind:`Meta
  end

let remove_found t ~dir dinode (f : Dir.found) name (inode : Inode.t) =
  (* Remove the name (and, when embedded, the inode with it). *)
  let b = Directory.clear t f name in
  let parent =
    if inode.Inode.kind = Inode.Directory then begin
      dinode.Inode.nlink <- dinode.Inode.nlink - 1;
      write_inode t dir dinode ~kind:`Meta
    end
    else Ok ()
  in
  match parent with
  | Error e -> Error e
  | Ok () -> (
      (* A dying indexed directory surrenders its table and leaf blocks;
         the root goes with the file blocks below. *)
      if inode.Inode.kind = Inode.Directory then Index.free_blocks t inode;
      match release_inode t f inode with
      | Error e -> Error e
      | Ok () ->
          Int_tbl.remove t.parents f.f_ino;
          Index.maybe_demote t ~dir dinode ~leaf:b)

let remove t ~dir name ~rmdir =
  match check_name t name with
  | Error e -> Error e
  | Ok () -> (
      match lookup_dir_inode t dir with
      | Error e -> Error e
      | Ok dinode -> (
          match Directory.find t ~dir dinode name with
          | Error e -> Error e
          | Ok None -> Error Enoent
          | Ok (Some f) -> (
              match read_inode t f.Dir.f_ino with
              | Error e -> Error e
              | Ok inode -> (
                  match removable t f inode ~rmdir with
                  | Error e -> Error e
                  | Ok () -> remove_found t ~dir dinode f name inode))))

(* Externalize an embedded inode (needed before a second link can exist):
   move it to an inode-file slot and rewrite its directory entry as a
   reference.  The file's inode number changes. *)
let externalize t ~dir (f : Dir.found) (inode : Inode.t) =
  let* new_ino = alloc_ext_ino t in
  let* () = write_inode t new_ino inode ~kind:`Meta in
  (* Rewrite the chunk in place as an external reference, keeping the name. *)
  let b = Cache.read t.cache f.f_pblock in
  let* () =
    match
      Cdir.fold b ~init:None ~f:(fun acc e ->
          if e.Cdir.chunk = f.f_chunk then Some e.Cdir.name else acc)
    with
    | None -> Error Enoent
    | Some name ->
        Cdir.set_external b f.f_chunk name new_ino;
        Cache.write t.cache ~kind:`Meta f.f_pblock b;
        Ok ()
  in
  drop_logical_range t ~ino:f.f_ino ~nblocks:((inode.Inode.size + bs t - 1) / bs t);
  (match Int_tbl.find_opt t.parents f.f_ino with
  | Some d ->
      Int_tbl.remove t.parents f.f_ino;
      Int_tbl.replace t.parents new_ino d
  | None -> Int_tbl.replace t.parents new_ino dir);
  Ok new_ino

let hardlink t ~dir name ~ino =
  let* () = check_name t name in
  let* dinode = lookup_dir_inode t dir in
  let* slot = Directory.slot t ~dir dinode name in
  let* inode = read_inode t ino in
  if inode.Inode.kind = Inode.Directory then Error Eisdir
  else if inode.Inode.nlink >= Inode.link_max then Error Emlink
  else begin
    let* ino =
      if is_embedded_ino ino then begin
        (* Find where the inode is embedded: its position is its number. *)
        match Int_tbl.find_opt t.parents ino with
        | None -> Error Einval
        | Some src_dir ->
            externalize t ~dir:src_dir
              {
                Dir.f_pblock = embed_block t ino;
                f_ino = ino;
                f_embedded = true;
                f_chunk = embed_chunk t ino;
              }
              inode
      end
      else Ok ino
    in
    let* inode = read_inode t ino in
    inode.Inode.nlink <- inode.Inode.nlink + 1;
    let* () = write_inode t ino inode ~kind:`Meta in
    let* _ = Directory.add t ~dir dinode slot name (Dir.Ext ino) ~after:None ~subdir:false in
    Ok ()
  end

let rename t ~sdir ~sname ~ddir ~dname =
  let* () = check_name t sname in
  let* () = check_name t dname in
  let* sdinode = lookup_dir_inode t sdir in
  let* found = Directory.find t ~dir:sdir sdinode sname in
  match found with
  | None -> Error Enoent
  | Some f ->
      let* inode = read_inode t f.Dir.f_ino in
      let* ddinode = lookup_dir_inode t ddir in
      let* dest = Directory.probe t ~dir:ddir ddinode dname in
      let* target =
        match dest with
        | `Absent slot -> Ok (Some (ddinode, slot))
        | `Found df when df.Dir.f_ino = f.f_ino -> Ok None
        | `Found df ->
            let* dst = read_inode t df.f_ino in
            if dst.Inode.kind = Inode.Directory then Error Eexist
            else begin
              let* () = remove t ~dir:ddir dname ~rmdir:false in
              let* ddinode = lookup_dir_inode t ddir in
              let* slot = Directory.slot t ~dir:ddir ddinode dname in
              Ok (Some (ddinode, slot))
            end
      in
      match target with
      | None -> Ok () (* both names already link the file: nothing to do *)
      | Some (ddinode, slot) ->
          (* Place the entry at the destination first, then clear the source, so
             the file never becomes unreachable. *)
          let carried = if f.f_embedded then Dir.Embed inode else Dir.Ext f.f_ino in
          let was_indexed = dir_indexed t ddinode in
          let* dst_blk, chunk =
            Directory.add t ~dir:ddir ddinode slot dname carried ~after:None ~subdir:false
          in
          (* Adding the name may have promoted the directory: every entry,
             the source's too, moved into index leaves and the linear
             blocks were freed.  The source is cleared where it now is. *)
          let* f =
            if sdir = ddir && (not was_indexed) && dir_indexed t ddinode then
              match Directory.find t ~dir:sdir ddinode sname with
              | Ok (Some f) -> Ok f
              | Ok None -> Error Enoent
              | Error e -> Error e
            else Ok f
          in
          let new_ino =
            if f.f_embedded then embed_ino t ~pblock:dst_blk ~chunk else f.f_ino
          in
          (* Clear the source entry (do not touch the target inode: it moved). *)
          ignore (Directory.clear t f sname);
          (* Soft updates: the new name must reach the disk before the old one
             disappears, or a crash loses the file. *)
          Cache.order t.cache ~first:dst_blk ~second:f.f_pblock;
          if new_ino <> f.f_ino then
            drop_logical_range t ~ino:f.f_ino
              ~nblocks:((inode.Inode.size + bs t - 1) / bs t);
          Int_tbl.remove t.parents f.f_ino;
          Int_tbl.replace t.parents new_ino ddir;
          if inode.Inode.kind = Inode.Directory && sdir <> ddir then begin
            sdinode.Inode.nlink <- sdinode.Inode.nlink - 1;
            let* () = write_inode t sdir sdinode ~kind:`Meta in
            let* ddinode = lookup_dir_inode t ddir in
            ddinode.Inode.nlink <- ddinode.Inode.nlink + 1;
            write_inode t ddir ddinode ~kind:`Meta
          end
          else Ok ()

let readdir t ~dir =
  let* dinode = lookup_dir_inode t dir in
  let* entries = Directory.entries t ~dir dinode in
  List.iter (fun (_, ino) -> Int_tbl.replace t.parents ino dir) entries;
  Ok entries

let stat_of t ino (inode : Inode.t) =
  {
    Fs_intf.st_ino = ino;
    st_kind = inode.Inode.kind;
    st_size = inode.Inode.size;
    st_nlink = inode.Inode.nlink;
    st_blocks = Bmap.count t.cache inode;
  }

let stat_ino t ino =
  match read_inode t ino with Ok inode -> Ok (stat_of t ino inode) | Error e -> Error e

(* The bulk stat operation the paper's embedded-inode layout makes free:
   each directory block already carries the inodes of the (non-linked)
   files it names, so one pass over the directory's blocks yields every
   (name, stat) pair without touching the external inode file.  Only
   externalized (multi-link) entries cost an inode fetch — and on the
   no-embed configuration every entry does, which is the honest FFS-like
   cost the stat benchmark exposes. *)
let readdir_plus t ~dir =
  let* dinode = lookup_dir_inode t dir in
  if t.sb.Csb.embed_inodes then begin
    let acc = ref [] in
    let emit ~pblock b (e : Cdir.entry) =
      if e.Cdir.embedded then begin
        let ino = embed_ino t ~pblock ~chunk:e.Cdir.chunk in
        let inode = Cdir.read_inode b e.Cdir.chunk in
        Obs.incr m_embedded_hits;
        Int_tbl.replace t.parents ino dir;
        acc := (e.Cdir.name, stat_of t ino inode) :: !acc
      end
      else begin
        match read_inode t e.Cdir.ext_ino with
        | Ok inode ->
            Int_tbl.replace t.parents e.Cdir.ext_ino dir;
            acc := (e.Cdir.name, stat_of t e.Cdir.ext_ino inode) :: !acc
        | Error _ -> ()
      end
    in
    (* An indexed directory streams leaves just the same: each leaf page
       still carries its entries' inodes, so bulk stat stays one pass with
       no external inode fetches. *)
    let* () = Directory.walk t ~dir dinode emit in
    Ok (List.rev !acc)
  end
  else begin
    let* entries = readdir t ~dir in
    Ok
      (List.filter_map
         (fun (name, ino) ->
           match stat_ino t ino with
           | Ok st -> Some (name, st)
           | Error _ -> None)
         entries)
  end

(* Refresh the on-disk replica of every slot whose primary changed since
   the last sync.  Runs before the cache flush so the subsequent
   {!Cache.flush} persists both the primaries and the updated checksum
   region in one barrier.  A slot whose replica write fails stays dirty
   and is retried at the next sync. *)
let refresh_replicas t =
  match Cache.integrity t.cache with
  | None -> ()
  | Some ig ->
      let slots = Hashtbl.fold (fun s () acc -> s :: acc) t.replica_dirty [] in
      List.iter
        (fun slot ->
          let blk = if slot = 0 then 0 else header_block t (slot - 1) in
          match Cache.read t.cache blk with
          | data ->
              if Integrity.replica_write ig ~slot data then
                Hashtbl.remove t.replica_dirty slot
          | exception Cffs_util.Io_error.E _ -> ())
        slots

let sync t =
  refresh_replicas t;
  Cache.flush t.cache

let rescan_ext_free t =
  let free = ref [] in
  for slot = t.sb.Csb.ext_high - 1 downto 0 do
    match read_inode t (Csb.ext_base + slot) with
    | Error Enoent -> free := slot :: !free
    | Ok _ | Error _ -> ()
  done;
  t.ext_free <- !free

let remount t =
  Cache.remount t.cache;
  Int_tbl.reset t.parents;
  Readahead.reset t.ra;
  t.frame_drought <- false;
  rescan_ext_free t

(* Is a block currently allocated (or fs metadata)?  Blocks outside the
   cylinder groups — superblock aside — belong to no file system object.
   Used by scrub to walk only allocated blocks and by fault harnesses to
   pick victims that carry no acknowledged data. *)
let block_in_use t blk = blk = 0 || Alloc.allocated t.blocks ~read:(read_header t) blk

let usage t =
  let free_blocks = ref 0 in
  for cg = 0 to t.sb.Csb.cg_count - 1 do
    free_blocks := !free_blocks + cg_free_blocks t cg
  done;
  {
    Fs_intf.total_blocks = Csb.total_blocks t.sb;
    free_blocks = !free_blocks;
    total_inodes = 0;
    free_inodes = 0;
  }

(* ------------------------------------------------------------------ *)
(* Grouping-quality metric (aging experiment). *)

let grouped_fraction ?(under = "/") t =
  (* Frame occupancy is global: a frame shared with any other directory's
     blocks is not well-grouped, whoever owns them.  So build the frame maps
     from a full walk, then score only the blocks under [under]. *)
  let frame_dirs : (int, int list) Hashtbl.t = Hashtbl.create 256 in
  let frame_blocks : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let subtree_blocks : int list ref = ref [] in
  let file_blocks inode =
    min ((inode.Inode.size + bs t - 1) / bs t) t.sb.Csb.group_file_blocks
  in
  let rec walk ~scoring dir =
    match read_inode t dir with
    | Error _ -> ()
    | Ok dinode -> begin
        match Directory.entries t ~dir dinode with
        | Error _ -> ()
        | Ok entries ->
            List.iter
              (fun (_, ino) ->
                match read_inode t ino with
                | Error _ -> ()
                | Ok inode -> begin
                    match inode.Inode.kind with
                    | Inode.Directory -> walk ~scoring ino
                    | Inode.Regular ->
                        for l = 0 to file_blocks inode - 1 do
                          match Bmap.read t.cache inode l with
                          | Ok (Some p) ->
                              if scoring then subtree_blocks := p :: !subtree_blocks
                              else begin
                                match frame_of_block t p with
                                | Some frame ->
                                    let dirs =
                                      Option.value ~default:[]
                                        (Hashtbl.find_opt frame_dirs frame)
                                    in
                                    if not (List.mem dir dirs) then
                                      Hashtbl.replace frame_dirs frame (dir :: dirs);
                                    Hashtbl.replace frame_blocks frame
                                      (1
                                      + Option.value ~default:0
                                          (Hashtbl.find_opt frame_blocks frame))
                                | None -> ()
                              end
                          | Ok None | Error _ -> ()
                        done
                    | Inode.Free -> ()
                  end)
              entries
      end
  in
  walk ~scoring:false Csb.root_ino;
  let start =
    match Cffs_vfs.Path.split under with
    | Error _ -> None
    | Ok parts ->
        List.fold_left
          (fun acc name ->
            match acc with
            | None -> None
            | Some dir -> begin
                match lookup t ~dir name with Ok ino -> Some ino | Error _ -> None
              end)
          (Some Csb.root_ino) parts
  in
  (match start with Some ino -> walk ~scoring:true ino | None -> ());
  let total = List.length !subtree_blocks in
  if total = 0 then 1.0
  else begin
    (* Well-grouped: the block shares its frame with at least one other
       small-file block, and everything in the frame belongs to one
       directory — i.e. a group read would fetch useful co-located data. *)
    let good =
      List.fold_left
        (fun acc p ->
          match frame_of_block t p with
          | Some frame
            when List.length (Option.value ~default:[] (Hashtbl.find_opt frame_dirs frame)) = 1
                 && Option.value ~default:0 (Hashtbl.find_opt frame_blocks frame) >= 2 ->
              acc + 1
          | Some _ | None -> acc)
        0 !subtree_blocks
    in
    float_of_int good /. float_of_int total
  end

(* ------------------------------------------------------------------ *)
(* Online regrouping: the copy-forward-then-switch move protocol.

   The regrouper (Cffs_fsck.Regroup) repacks broken small files — regular
   files of at most [group_file_blocks] blocks whose data no longer sits in
   a single group frame — back into frames.  The pieces that must see the
   allocator and the raw inode live here; pass orchestration (candidate
   walk, cursor, batching, fault accounting) lives in the fsck library.

   A move is split into four steps so the orchestrator can impose the
   crash-ordering barrier appropriate to the write policy:

     prepare   claim destination blocks inside one frame and write the
               copied data into the cache (nothing references them yet);
     commit    switch the inode's direct pointers to the destinations —
               one inode record, one sector-atomic write;
     finish    free the superseded source blocks;
     abandon   free the claimed destinations instead (fault/ENOSPC path).

   Under [Journaled] the orchestrator runs prepare/commit/finish for a
   whole batch and syncs once: the claims, pointer switches and frees
   commit as a single logged transaction (the copied data home-writes
   before the commit record, per the journal's barrier), so every crash
   prefix replays to entirely-old or entirely-new layout.  Under the other
   policies it syncs between prepare and commit (data durable before any
   pointer names it) and between commit and finish (the switch durable
   before the old blocks can be reused); a crash can then leak
   claimed-but-unreferenced blocks, which fsck repair reclaims, but no
   pointer ever names a block whose contents are not on the media. *)

type move_plan = {
  mv_ino : int;
  mv_frame : int;  (* destination frame start *)
  mv_moves : (int * int * int) list;  (* (lblk, old physical, new physical) *)
}

let move_plan_frame p = p.mv_frame
let move_plan_blocks p = List.length p.mv_moves

let frame_free_count t frame =
  let sb = t.sb in
  let cg = Csb.cg_of_block sb frame in
  let b = read_header t cg in
  let base_rel = frame - Csb.cg_start sb cg in
  let n = ref 0 in
  for i = 0 to sb.Csb.group_blocks - 1 do
    if not (Alloc.mem t.blocks b (base_rel + i)) then incr n
  done;
  !n

let regroup_prepare ?(dir_census = []) t ~dir ~ino =
  let sb = t.sb in
  if not sb.Csb.grouping then Ok `Ineligible
  else begin
    let* inode = read_inode t ino in
    let* dinode = read_inode t dir in
    let nblocks = (inode.Inode.size + bs t - 1) / bs t in
    let limit = min sb.Csb.group_file_blocks Inode.n_direct in
    if inode.Inode.kind <> Inode.Regular || nblocks < 1 || nblocks > limit then
      Ok `Ineligible
    else begin
      let olds = Array.init nblocks (fun l -> inode.Inode.direct.(l)) in
      if Array.exists (fun p -> p = 0) olds then Ok `Ineligible (* holes *)
      else begin
        let frames = Array.map (frame_of_block t) olds in
        let resident =
          match frames.(0) with
          | Some f -> Array.for_all (fun g -> g = Some f) frames
          | None -> false
        in
        (* Candidate destinations: the directory's remembered frames, the
           caller's census of sibling frames, plus any frame already
           holding some of this file's blocks (moving only the outliers).
           Entries must be genuine frame starts — [spare] also carries the
           mkdir affinity hint, which is not one.  Selection prefers the
           frame already holding the most of the directory's other data
           ([dir_census], explicit grouping's whole point), then the one
           left tightest after the move.  Either way the sprawl drains:
           sibling-heavy frames fill up and half-used ones empty out —
           fewest-copies would leave every file marooned where it is. *)
        let candidates =
          List.sort_uniq compare
            (List.filter
               (fun f -> f <> 0 && frame_of_block t f = Some f)
               (Array.to_list dinode.Inode.spare
               @ List.map fst dir_census
               @ List.filter_map Fun.id (Array.to_list frames)))
        in
        let inplace f =
          Array.fold_left (fun acc g -> if g = Some f then acc + 1 else acc) 0 frames
        in
        (* Sibling blocks in [f]: the directory's small-file data there,
           not counting this file's own. *)
        let sib f =
          (match List.assoc_opt f dir_census with Some n -> n | None -> 0)
          - inplace f
        in
        let feasible =
          List.filter_map
            (fun f ->
              let need = nblocks - inplace f in
              if need > 0 && frame_free_count t f >= need then
                Some (-sib f, frame_free_count t f - need, need, f)
              else None)
            candidates
        in
        let dest =
          if resident then begin
            match frames.(0) with
            | None -> Ok None
            | Some home ->
                (* Consolidation: a file already wholly inside a frame
                   still moves when a sibling frame offers strictly
                   better company (more of its directory's data) or, at
                   equal company, is strictly tighter than its home.
                   Strict improvement keeps repeated passes polarizing
                   the directory's frames instead of cycling. *)
                let home_sib = sib home in
                let home_free = frame_free_count t home in
                let better =
                  List.filter
                    (fun (negsib, _, _, f) ->
                      f <> home
                      && (-negsib > home_sib
                         || (-negsib = home_sib
                            && frame_free_count t f < home_free)))
                    feasible
                in
                (match List.sort compare better with
                | (_, _, _, f) :: _ -> Ok (Some f)
                | [] -> Ok None)
          end
          else
            match List.sort compare feasible with
            | (_, _, _, f) :: _ -> Ok (Some f)
            | [] -> begin
                (* Allocate a fresh frame (becoming the directory's
                   most-recent hint, as [alloc_grouped] would) only when
                   no existing frame can hold the whole file. *)
                match alloc_frame t ~cg:(dir_affinity_cg t dinode) with
                | Some frame ->
                    for i = Inode.n_spare - 1 downto 1 do
                      dinode.Inode.spare.(i) <- dinode.Inode.spare.(i - 1)
                    done;
                    dinode.Inode.spare.(0) <- frame;
                    let* () = write_inode t dir dinode ~kind:`Meta_delayed in
                    Ok (Some frame)
                | None -> Error Enospc
              end
        in
        let* dest = dest in
        match dest with
        | None -> Ok `Resident
        | Some frame ->
          let claimed = ref [] in
          let unwind () = List.iter (fun b -> free_block t b) !claimed in
          try
            let moves = ref [] in
            Array.iteri
              (fun l old ->
                if frames.(l) <> Some frame then begin
                  match frame_free_block t frame with
                  | -1 -> raise Exit
                  | np ->
                      claim_block t np;
                      claimed := np :: !claimed;
                      (* Copy forward: prefer the logically indexed cached
                         copy; otherwise read the source block (transient
                         faults retry inside the cache; a persistent fault
                         raises and the whole move unwinds). *)
                      let data =
                        match Cache.find_logical t.cache ~ino ~lblk:l with
                        | Some b -> Bytes.copy b
                        | None -> Bytes.copy (Cache.read t.cache old)
                      in
                      Cache.write t.cache ~kind:`Data np data;
                      moves := (l, old, np) :: !moves
                end)
              olds;
            Ok (`Plan { mv_ino = ino; mv_frame = frame; mv_moves = List.rev !moves })
          with
          | Exit ->
              unwind ();
              Error Enospc
          | Cffs_util.Io_error.E _ ->
              unwind ();
              Error Eio
      end
    end
  end

let regroup_commit t plan =
  let* inode = read_inode t plan.mv_ino in
  let stale =
    inode.Inode.kind <> Inode.Regular
    || List.exists
         (fun (l, old, _) -> l >= Inode.n_direct || inode.Inode.direct.(l) <> old)
         plan.mv_moves
  in
  if stale then Error Einval
  else begin
    List.iter (fun (l, _, np) -> inode.Inode.direct.(l) <- np) plan.mv_moves;
    inode.Inode.flags <- inode.Inode.flags lor flag_grouped;
    let* () = write_inode t plan.mv_ino inode ~kind:`Meta in
    (* Soft updates: the copied data must reach the media no later than
       the pointer switch that names it. *)
    (match inode_home_block t plan.mv_ino with
    | Some home ->
        List.iter
          (fun (_, _, np) -> Cache.order t.cache ~first:np ~second:home)
          plan.mv_moves
    | None -> ());
    List.iter
      (fun (l, _, np) ->
        Cache.drop_logical t.cache ~ino:plan.mv_ino ~lblk:l;
        Cache.set_logical t.cache np ~ino:plan.mv_ino ~lblk:l)
      plan.mv_moves;
    Ok ()
  end

let regroup_finish t plan =
  List.iter (fun (_, old, _) -> free_block t old) plan.mv_moves

let regroup_abandon t plan =
  List.iter (fun (_, _, np) -> free_block t np) plan.mv_moves

(* ------------------------------------------------------------------ *)
(* Formatting and mounting. *)

let make cache sb ~namei =
  Cache.set_clusterer cache (clusterer_of_sb sb);
  {
    cache;
    sb;
    dir_format = Dir.format ~embed_inodes:sb.Csb.embed_inodes;
    ext_free = [];
    dir_rotor = 0;
    ra = Readahead.create ~max_window:sb.Csb.readahead_blocks ();
    parents = Int_tbl.create 1024;
    blocks = sb_block_map sb;
    frame_drought = false;
    replica_dirty = Hashtbl.create 16;
    namei = Cffs_namei.Namei.create ~config:namei ();
    itable = Inode.Table.create ();
  }

let format ?(cg_size = 2048) ?(config = config_default) ?policy ?(cache_blocks = 4096)
    ?(integrity = false) ?(spare_blocks = 64)
    ?(namei = Cffs_namei.Namei.config_default) dev =
  let block_size = Blockdev.block_size dev in
  let ig = if integrity then Some (Integrity.format ~spare_blocks dev) else None in
  let usable =
    match ig with
    | Some ig -> Integrity.data_blocks ig
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
    Csb.mk ~block_size ~nblocks ~cg_size ~group_blocks:config.group_blocks
      ~embed_inodes:config.embed_inodes ~grouping:config.grouping
      ~group_file_blocks:config.group_file_blocks
      ~readahead_blocks:config.readahead_blocks
      ~dirindex_threshold:config.dirindex_threshold ()
  in
  let cache = Cache.create ?policy dev ~capacity_blocks:cache_blocks in
  Cache.set_integrity cache ig;
  (match jr with Some j -> Cache.set_journal cache j | None -> ());
  let t = make cache sb ~namei in
  for cg = 0 to sb.Csb.cg_count - 1 do
    let b = Bytes.make block_size '\000' in
    Alloc.format t.blocks b;
    Cache.write cache ~kind:`Meta (header_block t cg) b;
    Hashtbl.replace t.replica_dirty (1 + cg) ()
  done;
  let sbb = Bytes.make block_size '\000' in
  Csb.encode sb sbb;
  let root = Inode.mk Inode.Directory in
  Inode.encode root sbb Csb.root_inode_off;
  let ifile = Inode.mk Inode.Regular in
  Inode.encode ifile sbb Csb.ifile_inode_off;
  Cache.write cache ~kind:`Meta 0 sbb;
  Hashtbl.replace t.replica_dirty 0 ();
  (* seed every replica slot, then flush (which persists the tag region);
     a journaled format additionally checkpoints, so the fresh image is
     fully home-written with an empty log *)
  refresh_replicas t;
  Cache.flush cache;
  Cache.checkpoint cache;
  t

let mount ?policy ?(cache_blocks = 4096)
    ?(namei = Cffs_namei.Namei.config_default) dev =
  let ig = Integrity.attach dev in
  let usable =
    match ig with
    | Some ig -> Integrity.data_blocks ig
    | None -> Blockdev.nblocks dev
  in
  (* Mounting is recovery: probing the journal replays every committed
     transaction before the superblock is even read.  An on-disk journal
     also decides the policy — a journaled image must not be written under
     any discipline that bypasses its log. *)
  let jr = Journal.attach ?integ:ig dev ~usable in
  let policy = match jr with Some _ -> Some Cache.Journaled | None -> policy in
  let cache = Cache.create ?policy dev ~capacity_blocks:cache_blocks in
  Cache.set_integrity cache ig;
  (match jr with Some j -> Cache.set_journal cache j | None -> ());
  let sb_bytes =
    try Cache.read cache 0
    with Cffs_util.Io_error.E _ as e -> (
      (* Degraded mount: the primary superblock is damaged; decode the
         replica, serve it, and queue a repair of block 0. *)
      match ig with
      | None -> raise e
      | Some ig -> (
          match Integrity.replica_read ig ~slot:0 with
          | None -> raise e
          | Some data ->
              Integrity.note_degraded ();
              Cache.write cache ~kind:`Meta 0 data;
              data))
  in
  match Csb.decode sb_bytes with
  | None -> None
  | Some sb ->
      let t = make cache sb ~namei in
      rescan_ext_free t;
      Some t

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
  let prefix = "cffs"
  let namei = namei
end)

include Vfs
