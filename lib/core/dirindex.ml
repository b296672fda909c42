module Cache = Cffs_cache.Cache
module Codec = Cffs_util.Codec
module Inode = Cffs_vfs.Inode
module Errno = Cffs_vfs.Errno
module Bmap = Cffs_vfs.Bmap
module Filedata = Cffs_vfs.Filedata
module Obs = Cffs_obs.Registry
open Errno

(* Hashed directory index.

   A directory that outgrows [dirindex_threshold] linear blocks is
   promoted: its inode then maps exactly one block — the index root —
   and every entry lives in a leaf cdir page reached by physical number
   through an extendible-hash table:

     root    magic @0; table-block physical numbers (u32 each) @8;
             global depth (u32) in the LAST sector (@bs-8) — a torn
             root write therefore lands new table pointers before the
             depth that makes them live
     table   bs/4 leaf physical numbers, one per hash slot
     leaf    an ordinary cdir page whose last chunk is reserved as an
             overflow link (state 2) chaining same-bucket leaves once
             the table cannot grow further

   An entry whose name hashes to h lives under slot [h mod 2^depth]
   (low bits, so doubling appends mirrored slots).  Cold lookup at any
   size is root + table + leaf = 3 block reads; with the directory's
   own inode block that is the ≤4 the scale experiments assert.
   Embedded inodes keep positional numbers, so a split or promotion
   renumbers the entries it moves — rename set that precedent; the
   namei layer is flushed whenever it happens.

   Crash ordering (DESIGN.md §17): a split writes the new leaf N, then
   the repointed table slots T, then the old leaf O with the moved
   chunks cleared.  Enumeration and lookup route strictly through the
   table and filter entries by slot, so after any prefix {}, {N},
   {N,T} the visible name set is exactly the pre-split set — nothing
   dangles, nothing doubles. *)

let magic = 0x43444958 (* "CDIX" *)
let tbl_off = 8
let chain_limit = 4096

(* Inode flag bit: this directory uses the hashed index format — its only
   mapped block is the index root; leaves and table blocks are reached
   through it by physical number. *)
let flag = 4

(* FNV-1a, 32 bits: cheap, with the low-bit diffusion slot selection
   needs for short names. *)
let dir_hash name =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff)
    name;
  !h

let m_promotions = Obs.counter "dirindex.promotions"
let m_demotions = Obs.counter "dirindex.demotions"
let m_splits = Obs.counter "dirindex.leaf_splits"
let m_doublings = Obs.counter "dirindex.doublings"
let m_chains = Obs.counter "dirindex.overflow_chains"
let m_lookups = Obs.counter "dirindex.indexed_lookups"
let m_inserts = Obs.counter "dirindex.indexed_inserts"

module type FS = sig
  type t

  val cache : t -> Cache.t
  val sb : t -> Csb.t
  val alloc_grouped : t -> dir_ino:int -> dinode:Inode.t -> int Errno.result
  val alloc_near : t -> cg:int -> hint:int -> int option
  val free_block : t -> int -> unit
  val write_inode : t -> int -> Inode.t -> kind:Cache.kind -> unit Errno.result
  val inode_home_block : t -> int -> int option
  val affinity_cg : t -> Inode.t -> int
  val read_grouped : t -> int -> bytes
  val chunk_ino : t -> pblock:int -> Cdir.entry -> int
  val mtime_now : t -> int
  val flush_namei : t -> unit
end

module Make (F : FS) = struct
  let bs t = (F.sb t).Csb.block_size
  let cpb t = Cdir.chunks_per_block ~block_size:(bs t)
  let nblocks t (dinode : Inode.t) = (dinode.Inode.size + bs t - 1) / bs t
  let read t p = Cache.read (F.cache t) p
  let write t p b = Cache.write (F.cache t) ~kind:`Meta p b
  let order t ~first ~second = Cache.order (F.cache t) ~first ~second
  let depth_off t = bs t - 8
  let slots_per_tbl t = bs t / 4
  let max_tables t = (bs t - 16) / 4

  (* Largest global depth whose slot table fits the root's pointer area. *)
  let max_depth t =
    let cap = max_tables t * slots_per_tbl t in
    let rec go d = if 1 lsl (d + 1) <= cap then go (d + 1) else d in
    go 0

  let indexed t (dinode : Inode.t) =
    (F.sb t).Csb.embed_inodes
    && dinode.Inode.kind = Inode.Directory
    && dinode.Inode.flags land flag <> 0

  (* The index root is an indexed directory's only mapped block. *)
  let root t (dinode : Inode.t) =
    let root = dinode.Inode.direct.(0) in
    if root <= 0 || root >= Csb.total_blocks (F.sb t) then Error Eio
    else if Codec.get_u32 (read t root) 0 = magic then Ok root
    else Error Eio

  let depth_of t b = Codec.get_u32 b (depth_off t)
  let table_pblock b j = Codec.get_u32 b (tbl_off + (4 * j))

  let leaf_of_slot t rb slot =
    let spt = slots_per_tbl t in
    let tbuf = read t (table_pblock rb (slot / spt)) in
    Codec.get_u32 tbuf (4 * (slot mod spt))

  (* Chunk [cpb-1] of every leaf is reserved for the overflow link, so an
     insert can never displace (and thereby silently renumber) a live
     entry to make room for one. *)
  let link_chunk t = cpb t - 1
  let leaf_next t b = Cdir.get_overflow b (link_chunk t)

  let alloc t ~cg ~hint =
    match F.alloc_near t ~cg ~hint with Some b -> Ok b | None -> Error Enospc

  (* Leaves are grouped exactly like linear directory blocks: they carry
     the same embedded inodes, so they belong in the directory's frames
     and stream in frame-sized requests.  Root and table blocks use plain
     placement — two cached blocks per directory that re-read from
     memory on every operation. *)
  let read_leaf = F.read_grouped

  (* Lookup and insert take results apart with [match], not [let*], and
     walk chains in functor-level functions: inside the functor a local
     closure captures every functor-level function it calls, so each one
     would cost the per-name path several words more. *)
  let rec find_in t name p hops =
    if p = 0 || hops > chain_limit then Ok None
    else begin
      let b = read_leaf t p in
      match Cdir.find b name with
      | Some e -> Ok (Some (p, e))
      | None -> (
          match leaf_next t b with
          | Some next -> find_in t name next (hops + 1)
          | None -> Ok None)
    end

  let find t dinode name =
    Obs.incr m_lookups;
    match root t dinode with
    | Error e -> Error e
    | Ok root ->
        let rb = read t root in
        let slot = dir_hash name land ((1 lsl depth_of t rb) - 1) in
        find_in t name (leaf_of_slot t rb slot) 0

  (* A leaf's local depth: while both depth-(l-1) buddy slot classes still
     map to this same leaf, its effective depth is lower than l. *)
  let local_depth t rb ~depth ~slot =
    let me = leaf_of_slot t rb slot in
    let rec go l =
      if l = 0 then 0
      else begin
        let half = 1 lsl (l - 1) in
        let base = slot land (half - 1) in
        if leaf_of_slot t rb base = me && leaf_of_slot t rb (base + half) = me
        then go (l - 1)
        else l
      end
    in
    go depth

  (* Moving a chunk renumbers its embedded inode (positional numbers);
     whatever the block cache indexed under the old number must go. *)
  let drop_renumbered t b ~pblock (e : Cdir.entry) =
    if e.Cdir.embedded then begin
      let inode = Cdir.read_inode b e.Cdir.chunk in
      Filedata.drop_logical (F.cache t) ~ino:(F.chunk_ino t ~pblock e) ~from:0
        ~until:((inode.Inode.size + bs t - 1) / bs t)
    end

  (* Split the full leaf serving [slot] at local depth [l]: entries whose
     hash has bit [l] set move — keeping their chunk positions — to a new
     leaf N; the table slots of the odd-bit-[l] half of O's slot class
     repoint to N; only then are the moved chunks cleared from O.  See
     the crash-ordering argument above. *)
  let split t ~dir dinode rb ~depth ~slot ~l =
    let o_pb = leaf_of_slot t rb slot in
    let o_buf = read_leaf t o_pb in
    let* n_pb = F.alloc_grouped t ~dir_ino:dir ~dinode in
    let n_buf = Bytes.make (bs t) '\000' in
    let moved = ref [] in
    Cdir.iter o_buf (fun e ->
        if (dir_hash e.Cdir.name lsr l) land 1 = 1 then begin
          drop_renumbered t o_buf ~pblock:o_pb e;
          Bytes.blit o_buf (Cdir.chunk_off e.Cdir.chunk) n_buf
            (Cdir.chunk_off e.Cdir.chunk) Cdir.chunk_bytes;
          moved := e.Cdir.chunk :: !moved
        end);
    write t n_pb n_buf;
    let spt = slots_per_tbl t in
    let base = slot land ((1 lsl l) - 1) lor (1 lsl l) in
    let step = 1 lsl (l + 1) in
    let touched = Hashtbl.create 4 in
    let s = ref base in
    while !s < 1 lsl depth do
      let tb = table_pblock rb (!s / spt) in
      let tbuf =
        match Hashtbl.find_opt touched tb with
        | Some b -> b
        | None ->
            let b = read t tb in
            Hashtbl.replace touched tb b;
            b
      in
      Codec.set_u32 tbuf (4 * (!s mod spt)) n_pb;
      s := !s + step
    done;
    Hashtbl.iter
      (fun tb tbuf ->
        write t tb tbuf;
        (* Soft updates: the new leaf before any pointer naming it... *)
        order t ~first:n_pb ~second:tb)
      touched;
    List.iter (fun c -> Cdir.clear o_buf c) !moved;
    write t o_pb o_buf;
    (* ...and the repointing before the old copies disappear. *)
    Hashtbl.iter (fun tb _ -> order t ~first:tb ~second:o_pb) touched;
    if !moved <> [] then F.flush_namei t;
    Obs.incr m_splits;
    Ok ()

  (* Double the table: depth d+1's new high-bit slots mirror their low
     buddies, so every lookup lands where it did before.  New table
     blocks are durable before the root write, and the depth lives in the
     root's last sector — even a torn root write publishes the pointers
     before the depth that makes them live. *)
  let double t root_pb rb ~depth =
    let spt = slots_per_tbl t in
    let old_slots = 1 lsl depth in
    let rb' = Bytes.copy rb in
    let* () =
      if 2 * old_slots <= spt then begin
        (* Still within table block 0: mirror in place. *)
        let tb = table_pblock rb 0 in
        let tbuf = read t tb in
        for s = 0 to old_slots - 1 do
          Codec.set_u32 tbuf (4 * (old_slots + s)) (Codec.get_u32 tbuf (4 * s))
        done;
        write t tb tbuf;
        order t ~first:tb ~second:root_pb;
        Ok ()
      end
      else begin
        let old_tbl = old_slots / spt in
        let rec mirror j =
          if j >= 2 * old_tbl then Ok ()
          else begin
            let src = table_pblock rb (j - old_tbl) in
            let* p = alloc t ~cg:(Csb.cg_of_block (F.sb t) root_pb) ~hint:src in
            write t p (Bytes.copy (read t src));
            order t ~first:p ~second:root_pb;
            Codec.set_u32 rb' (tbl_off + (4 * j)) p;
            mirror (j + 1)
          end
        in
        mirror old_tbl
      end
    in
    Codec.set_u32 rb' (depth_off t) (depth + 1);
    write t root_pb rb';
    Obs.incr m_doublings;
    Ok ()

  (* Grow a bucket chain: the new (empty) leaf is durable before the link
     that makes it reachable. *)
  let extend_chain t ~dir dinode last_pb =
    let* n_pb = F.alloc_grouped t ~dir_ino:dir ~dinode in
    write t n_pb (Bytes.make (bs t) '\000');
    let lb = read_leaf t last_pb in
    Cdir.set_overflow lb (link_chunk t) ~next:n_pb;
    write t last_pb lb;
    order t ~first:n_pb ~second:last_pb;
    Obs.incr m_chains;
    Ok ()

  (* Find (or make room for) a free chunk for [name]: the slot's leaf,
     else the first free chunk down its chain, else split / double /
     chain until one exists.  Every round strictly adds capacity on this
     hash path, so the bound only turns a logic bug into an error instead
     of a hang. *)
  let rec free_in t p hops =
    if hops > chain_limit then `Bad
    else begin
      let b = read_leaf t p in
      match Cdir.find_free ~limit:(link_chunk t) b with
      | Some c -> `Room (p, b, c)
      | None -> (
          match leaf_next t b with
          | Some next -> free_in t next (hops + 1)
          | None -> `Full p)
    end

  let rec attempt t ~dir dinode h rounds =
    if rounds > 4 * (max_depth t + 2) then Error Eio
    else begin
      match root t dinode with
      | Error e -> Error e
      | Ok root_pb -> (
          let rb = read t root_pb in
          let depth = depth_of t rb in
          let slot = h land ((1 lsl depth) - 1) in
          let primary = leaf_of_slot t rb slot in
          match free_in t primary 0 with
          | `Bad -> Error Eio
          | `Room (p, b, c) -> Ok (p, b, c)
          | `Full last -> (
              let chained = leaf_next t (read_leaf t primary) <> None in
              let grown =
                if chained then extend_chain t ~dir dinode last
                else begin
                  let l = local_depth t rb ~depth ~slot in
                  if l < depth then split t ~dir dinode rb ~depth ~slot ~l
                  else if depth < max_depth t then double t root_pb rb ~depth
                  else extend_chain t ~dir dinode last
                end
              in
              match grown with
              | Error e -> Error e
              | Ok () -> attempt t ~dir dinode h (rounds + 1)))
    end

  let reserve t ~dir dinode name =
    Obs.incr m_inserts;
    attempt t ~dir dinode (dir_hash name) 0

  (* Enumerate an indexed directory by slot.  A leaf reachable from many
     slots (local depth < global) surfaces each entry once, because an
     entry is emitted only for the slot its hash selects at the global
     depth — the same filter that hides crash prefixes of a split.
     [meta] sees every table block and each distinct leaf once; [bad]
     sees unreadable or out-of-range pointers. *)
  let iter t (dinode : Inode.t) ~entry ~meta ~bad =
    match (try root t dinode with Cffs_util.Io_error.E _ -> Error Eio) with
    | Error _ -> if dinode.Inode.direct.(0) <> 0 then bad dinode.Inode.direct.(0)
    | Ok root_pb ->
        let rb = read t root_pb in
        let depth = depth_of t rb in
        let nslots = 1 lsl depth in
        let spt = slots_per_tbl t in
        let ntbl = max 1 (nslots / spt) in
        let tbl_bufs = Array.make ntbl None in
        for j = 0 to ntbl - 1 do
          let p = table_pblock rb j in
          meta p;
          match read t p with
          | b -> tbl_bufs.(j) <- Some b
          | exception Cffs_util.Io_error.E _ -> bad p
        done;
        let total = Csb.total_blocks (F.sb t) in
        let seen = Hashtbl.create 64 in
        for slot = 0 to nslots - 1 do
          let rec walk p hops =
            if p <> 0 && hops <= chain_limit then begin
              if p < 0 || p >= total then bad p
              else begin
                match read_leaf t p with
                | exception Cffs_util.Io_error.E _ -> bad p
                | b ->
                    if not (Hashtbl.mem seen p) then begin
                      Hashtbl.replace seen p ();
                      meta p
                    end;
                    Cdir.iter b (fun e ->
                        if dir_hash e.Cdir.name land (nslots - 1) = slot then
                          entry ~pblock:p b e);
                    (match leaf_next t b with
                    | Some next -> walk next (hops + 1)
                    | None -> ())
              end
            end
          in
          match tbl_bufs.(slot / spt) with
          | Some tb -> walk (Codec.get_u32 tb (4 * (slot mod spt))) 0
          | None -> ()
        done

  let count t dinode =
    let n = ref 0 in
    iter t dinode ~entry:(fun ~pblock:_ _ _ -> incr n) ~meta:ignore ~bad:ignore;
    !n

  (* Release an indexed directory's table and leaf blocks on rmdir; the
     root itself is in the inode's block map and freed with it. *)
  let free_blocks t dinode =
    if indexed t dinode then
      iter t dinode ~entry:(fun ~pblock:_ _ _ -> ()) ~meta:(F.free_block t) ~bad:ignore

  (* One indexed directory's blocks (root included), leaves and live
     entries, for the namespace-wide census. *)
  let census t dinode =
    let ntbl =
      match (try root t dinode with Cffs_util.Io_error.E _ -> Error Eio) with
      | Ok p -> max 1 ((1 lsl depth_of t (read t p)) / slots_per_tbl t)
      | Error _ -> 0
    in
    let metas = ref 0 and live = ref 0 in
    iter t dinode
      ~entry:(fun ~pblock:_ _ _ -> incr live)
      ~meta:(fun _ -> incr metas)
      ~bad:ignore;
    (1 + !metas, max 0 (!metas - ntbl), !live)

  (* ---------------------------------------------------------------- *)
  (* Rebuild and switch.  Promotion and demotion both copy every chunk
     forward into fresh pages (hash buckets, or linear pages), write each
     page ordered before the inode's home block, then [switch] the inode
     over in one sector-atomic write.  The old blocks are freed only after
     the switch — a crash before it leaks unreferenced blocks (fsck repair
     reclaims them), never entries. *)

  let take t b ~pblock (e : Cdir.entry) =
    drop_renumbered t b ~pblock e;
    Bytes.sub b (Cdir.chunk_off e.Cdir.chunk) Cdir.chunk_bytes

  (* A fresh page in the directory's frames holding the first [room] of
     [chunks]; returns it with the chunks left over. *)
  let lay t ~dir dinode ~room chunks =
    let* p = F.alloc_grouped t ~dir_ino:dir ~dinode in
    let b = Bytes.make (bs t) '\000' in
    let rec place i = function
      | c :: rest when i < room ->
          Bytes.blit c 0 b (Cdir.chunk_off i) Cdir.chunk_bytes;
          place (i + 1) rest
      | rest -> rest
    in
    Ok (p, b, place 0 chunks)

  let publish t ~home p b =
    write t p b;
    match home with Some h -> order t ~first:p ~second:h | None -> ()

  (* The switch: one inode record, one sector-atomic write, mapping
     [blocks] in order and flagged [indexed] or not.  Every embedded
     entry was renumbered with its move, so namei is flushed. *)
  let switch t ~dir (dinode : Inode.t) ~blocks ~indexed ~old ~counter =
    Filedata.drop_logical (F.cache t) ~ino:dir ~from:0 ~until:(nblocks t dinode);
    Array.fill dinode.Inode.direct 0 Inode.n_direct 0;
    List.iteri (fun i p -> dinode.Inode.direct.(i) <- p) blocks;
    dinode.Inode.indirect <- 0;
    dinode.Inode.dindirect <- 0;
    dinode.Inode.size <- List.length blocks * bs t;
    dinode.Inode.flags <-
      (if indexed then dinode.Inode.flags lor flag else dinode.Inode.flags land lnot flag);
    dinode.Inode.mtime <- F.mtime_now t;
    let* () = F.write_inode t dir dinode ~kind:`Meta in
    List.iter (F.free_block t) old;
    F.flush_namei t;
    Obs.incr counter;
    Ok ()

  (* Promote a linear directory, whose blocks [linear] walks, to the
     indexed format: buckets, then the table, then the root. *)
  let promote t ~dir (dinode : Inode.t) ~linear =
    let entries = ref [] in
    let* () =
      linear (fun ~pblock b ->
          Cdir.iter b (fun e ->
              entries := (dir_hash e.Cdir.name, take t b ~pblock e) :: !entries))
    in
    let n = List.length !entries in
    let old = ref [] in
    Bmap.iter (F.cache t) dinode
      ~data:(fun p -> old := p :: !old)
      ~meta:(fun p -> old := p :: !old);
    (* Start around half-full so the first splits are a while away. *)
    let rec depth_for d =
      if d >= max_depth t || (1 lsl d) * 8 >= n then d else depth_for (d + 1)
    in
    let depth = depth_for 3 in
    let nslots = 1 lsl depth in
    let buckets = Array.make nslots [] in
    List.iter
      (fun (h, chunk) ->
        let s = h land (nslots - 1) in
        buckets.(s) <- chunk :: buckets.(s))
      !entries;
    let cg = F.affinity_cg t dinode in
    let home = F.inode_home_block t dir in
    let room = link_chunk t in
    (* One leaf per slot; an over-full bucket (hash pileup) chains at
       birth rather than displacing anyone. *)
    let rec write_bucket chunks =
      let* p, b, rest = lay t ~dir dinode ~room chunks in
      let* () =
        match rest with
        | [] -> Ok ()
        | rest ->
            let* next = write_bucket rest in
            Cdir.set_overflow b room ~next;
            Obs.incr m_chains;
            Ok ()
      in
      publish t ~home p b;
      Ok p
    in
    let leaves = Array.make nslots 0 in
    let rec fill_slots s =
      if s >= nslots then Ok ()
      else begin
        let* p = write_bucket buckets.(s) in
        leaves.(s) <- p;
        fill_slots (s + 1)
      end
    in
    let* () = fill_slots 0 in
    let spt = slots_per_tbl t in
    let ntbl = max 1 (nslots / spt) in
    let tbls = Array.make ntbl 0 in
    let rec fill_tbls j =
      if j >= ntbl then Ok ()
      else begin
        let* p = alloc t ~cg ~hint:0 in
        let b = Bytes.make (bs t) '\000' in
        for k = 0 to min spt nslots - 1 do
          Codec.set_u32 b (4 * k) leaves.((j * spt) + k)
        done;
        publish t ~home p b;
        tbls.(j) <- p;
        fill_tbls (j + 1)
      end
    in
    let* () = fill_tbls 0 in
    let* root = alloc t ~cg ~hint:0 in
    let rb = Bytes.make (bs t) '\000' in
    Codec.set_u32 rb 0 magic;
    Array.iteri (fun j p -> Codec.set_u32 rb (tbl_off + (4 * j)) p) tbls;
    Codec.set_u32 rb (depth_off t) depth;
    publish t ~home root rb;
    switch t ~dir dinode ~blocks:[ root ] ~indexed:true ~old:!old ~counter:m_promotions

  (* Demote an indexed directory back to linear cdir pages — for a
     directory that emptied out under unlink churn instead of waiting
     for rmdir to reclaim its index. *)
  let demote t ~dir (dinode : Inode.t) =
    let* root_pb = root t dinode in
    let chunks = ref [] and old = ref [] in
    iter t dinode
      ~entry:(fun ~pblock b e -> chunks := take t b ~pblock e :: !chunks)
      ~meta:(fun p -> old := p :: !old)
      ~bad:ignore;
    let chunks = List.rev !chunks in
    let nblocks = max 1 ((List.length chunks + cpb t - 1) / cpb t) in
    if nblocks > Inode.n_direct then
      (* Can't happen below the demotion watermark; refuse rather than
         build a linear directory needing indirect blocks. *)
      Ok ()
    else begin
      let home = F.inode_home_block t dir in
      let rec write_pages n rest acc =
        if n >= nblocks then Ok (List.rev acc)
        else begin
          let* p, b, rest = lay t ~dir dinode ~room:(cpb t) rest in
          publish t ~home p b;
          write_pages (n + 1) rest (p :: acc)
        end
      in
      let* pages = write_pages 0 chunks [] in
      let* () =
        switch t ~dir dinode ~blocks:pages ~indexed:false ~old:(root_pb :: !old)
          ~counter:m_demotions
      in
      List.iteri (fun lblk p -> Cache.set_logical (F.cache t) p ~ino:dir ~lblk) pages;
      Ok ()
    end

  (* Unlink hook: demotion is lazy — only an unlink that leaves its leaf
     page empty pays for the full live-entry count, and only a count at or
     below half the promotion threshold triggers the rewrite (hysteresis:
     re-promotion needs the directory to fill the full threshold of linear
     blocks again, so churn around the boundary cannot flap). *)
  let maybe_demote t ~dir dinode ~leaf =
    let thr = (F.sb t).Csb.dirindex_threshold in
    if
      (not (indexed t dinode))
      || thr <= 0
      || Cdir.fold leaf ~init:false ~f:(fun _ _ -> true)
      || count t dinode > cpb t * max 1 (thr / 2)
    then Ok ()
    else demote t ~dir dinode
end
