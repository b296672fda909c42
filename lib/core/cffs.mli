(** C-FFS: the Co-locating Fast File System (Ganger & Kaashoek, USENIX '97).

    Two techniques, each independently switchable so the paper's four
    configurations can be compared:

    {b Embedded inodes} ([embed_inodes]): the inode of most files lives in
    the directory, inside the same 256-byte chunk as its name ({!Cdir}).
    One directory read delivers the inodes of everything the directory
    names; create and delete each collapse to a single synchronous write
    because name and inode share a sector and update atomically.  Files
    with more than one link are {e externalized} into a growable,
    IFILE-like external inode file whose blocks never move.  With the flag
    off, every inode is external — physically separate from the directory,
    like FFS's inode tables.

    {b Explicit grouping} ([grouping]): the data blocks of small files
    named by the same directory are co-located in {e group frames} —
    aligned extents of [group_blocks] contiguous blocks owned by one
    directory — and move between memory and disk as single scatter/gather
    requests.  A directory tracks its active frames in its inode; a read
    miss on a grouped block fetches the whole frame and installs every
    block in the buffer cache by physical address (the logical identity is
    attached lazily — hence the dual-indexed cache).  When no whole frame
    is free the allocator falls back to single-block placement, which is
    how aging erodes grouping.

    Directories have no physical "." / ".." entries (the VFS resolves
    those), so a create touches exactly one directory block.

    Embedded inode numbers are positional
    ([Csb.embed_bit + block·chunks + chunk]); renaming a file therefore
    changes its inode number — the trade-off the paper accepts by letting
    fsck find inodes through the directory hierarchy. *)

module Csb = Csb
module Cdir = Cdir

type config = {
  embed_inodes : bool;
  grouping : bool;
  group_blocks : int;  (** frame size in blocks (default 16 = 64 KB) *)
  group_file_blocks : int;
      (** only the first this-many blocks of a file are grouped (default 8) *)
  readahead_blocks : int;
      (** sequential read-ahead window for ungrouped file data.  The paper's
          implementation "does not support prefetching"; this is the obvious
          extension, off (0) by default so the standard experiments stay
          paper-faithful.  See the read-ahead ablation. *)
  dirindex_threshold : int;
      (** linear directory blocks before promotion to the hashed index
          (default 8, i.e. 128 entries at 4 KB blocks — past the paper's
          100-files-per-directory benchmarks, which stay linear); 0
          disables promotion, which keeps images byte-identical to the
          pre-index format. *)
}

val config_default : config
(** Both techniques on, 64 KB frames, 32 KB small-file threshold. *)

val config_ffs_like : config
(** Both techniques off: the paper's "conventional" configuration. *)

val config_label : config -> string
(** ["C-FFS (EI+EG)"], ["C-FFS (EI)"], ["C-FFS (EG)"] or ["C-FFS (none)"]. *)

type t

val format :
  ?cg_size:int ->
  ?config:config ->
  ?policy:Cffs_cache.Cache.policy ->
  ?cache_blocks:int ->
  ?integrity:bool ->
  ?spare_blocks:int ->
  ?namei:Cffs_namei.Namei.config ->
  Cffs_blockdev.Blockdev.t ->
  t
(** [?namei] configures the per-mount dentry/attribute cache (default
    {!Cffs_namei.Namei.config_default}; pass
    {!Cffs_namei.Namei.config_disabled} for uncached resolution).
    [?integrity] (default [false]) formats the tail of the device as an
    {!Cffs_blockdev.Integrity} region — per-block checksums, a
    [?spare_blocks]-block remap pool (default 64) and a replicated remap
    table — and shrinks the file system to the remaining data blocks.
    The superblock and every cylinder-group header get a replica slot;
    replicas are refreshed at each {!sync}. *)

val mount :
  ?policy:Cffs_cache.Cache.policy ->
  ?cache_blocks:int ->
  ?namei:Cffs_namei.Namei.config ->
  Cffs_blockdev.Blockdev.t ->
  t option
(** Detects an integrity region automatically ({!Cffs_blockdev.Integrity.attach}).
    If the primary superblock is damaged but its replica is intact, the
    mount proceeds degraded from the replica and queues a repair. *)

val cache : t -> Cffs_cache.Cache.t
val superblock : t -> Csb.t
val config : t -> config

val namei : t -> Cffs_namei.Namei.t
(** The mount's dentry/attribute cache state (for tests and telemetry). *)

val integrity : t -> Cffs_blockdev.Integrity.t option
(** The integrity layer the cache routes through, if the volume has one. *)

val block_in_use : t -> int -> bool
(** Is [blk] allocated (per the cylinder-group bitmaps)?  Block 0 and the
    group headers count as in use; blocks outside the file system do not.
    Scrub uses this to walk only blocks whose contents matter. *)

val read_inode : t -> int -> Cffs_vfs.Inode.t Cffs_vfs.Errno.result
(** Direct inode access (embedded, external or resident), for fsck and
    tests. *)

val write_inode_raw : t -> int -> Cffs_vfs.Inode.t -> unit Cffs_vfs.Errno.result
(** Overwrite an inode in place (synchronously), bypassing the namespace —
    for fsck repairs only. *)

val read_header : t -> int -> bytes
(** Cylinder group [cg]'s header block.  An unreadable primary is served
    from its replica on an integrity volume (and queued for rewrite);
    otherwise the read raises {!Cffs_util.Io_error.E}. *)

val block_map : t -> Cffs_vfs.Alloc.map
(** The groups' block bitmaps inside those headers. *)

val chunk_ino : t -> pblock:int -> Cdir.entry -> int
(** The inode number a directory entry names: positional for an inode
    embedded in chunk [e.chunk] of directory block [pblock], else the
    external number the entry carries. *)

val is_embedded_ino : int -> bool
val frame_of_block : t -> int -> int option
(** Start of the aligned group frame containing a block, if the block lies
    in a frame-aligned region of its cylinder group. *)

val frame_free_count : t -> int -> int
(** Free blocks inside the frame starting at the given block — the room a
    compaction plan can still place siblings into. *)

(** {1 Online regrouping support}

    The copy-forward-then-switch move protocol behind
    [Cffs_fsck.Regroup]: destination blocks are claimed inside one group
    frame and the data copied forward ({!regroup_prepare}); the inode's
    direct pointers are switched in a single sector-atomic inode write
    ({!regroup_commit}); only then are the source blocks freed
    ({!regroup_finish}).  The orchestrator places sync barriers between
    the steps (or, under [Journaled], around a whole batch, which then
    commits as one logged transaction), so every crash prefix leaves
    either the old or the new layout — never a torn file.
    {!regroup_abandon} is the unwind path: it releases the claimed
    destinations of a prepared-but-never-committed move. *)

type move_plan

val regroup_prepare :
  ?dir_census:(int * int) list ->
  t ->
  dir:int ->
  ino:int ->
  [ `Plan of move_plan | `Resident | `Ineligible ] Cffs_vfs.Errno.result
(** [`Resident]: the file already lies wholly in one frame and no sibling
    frame offers strictly better company.
    [`Ineligible]: not a small regular file the protocol covers (too many
    blocks, holes, grouping off).  [Error Enospc]: no frame can hold the
    file; [Error Eio]: a source block failed persistently mid-copy (the
    claimed destinations were released).
    [dir_census] maps frame starts to the number of data blocks the
    directory's small files keep there.  It widens the destination
    candidates beyond the directory's remembered [spare] frames and the
    file's own, and drives placement: the feasible frame with the most
    sibling data wins (then the tightest), so a directory's files pack
    back together instead of each marooning itself in a fresh frame.
    A resident file is re-homed only for a {e strict} improvement in
    (sibling data, tightness) — repeated passes polarize a directory's
    frames rather than cycle. *)

val regroup_commit : t -> move_plan -> unit Cffs_vfs.Errno.result
(** Switch the inode's block pointers to the plan's destinations and remap
    the cache's logical identities.  [Error Einval] if the inode no longer
    matches the plan (the destinations are then still claimed — abandon). *)

val regroup_finish : t -> move_plan -> unit
(** Free the superseded source blocks of a committed move. *)

val regroup_abandon : t -> move_plan -> unit
(** Free the claimed destination blocks of a move that will not commit. *)

val move_plan_frame : move_plan -> int
(** Destination frame start. *)

val move_plan_blocks : move_plan -> int
(** Blocks the plan copies (source blocks already in the destination frame
    stay in place and are not counted). *)

val grouped_fraction : ?under:string -> t -> float
(** Fraction of regular-file data blocks currently placed inside a frame
    together only with blocks of files from the same directory — the
    grouping-quality metric the aging experiment reports.  Computed by a
    namespace walk from [under] (default the root); intended for
    experiments, not hot paths. *)

(** {1 Hashed directory index}

    A directory that outgrows [dirindex_threshold] linear blocks is
    promoted to a bucketed format: its inode maps a single root block
    holding an extendible-hash table of leaf cdir pages addressed by
    physical block number, so lookup / create / unlink touch O(1)
    blocks at any size (root + table + leaf; with the directory's
    inode block, at most four reads cold).  Leaves are ordinary
    {!Cdir} pages — embedded inodes stay byte-compatible — except that
    the last chunk of each is reserved as an overflow link chaining
    same-bucket leaves once the table is at maximum depth.  A full
    leaf splits in place with new-leaf → table → old-leaf write
    ordering; enumeration filters entries by slot, so every crash
    prefix resolves the exact pre-split name set (DESIGN.md §17). *)

val dir_hash : string -> int
(** The 32-bit FNV-1a name hash the index buckets by (exposed so tests
    can mine collisions). *)

val dir_indexed : t -> Cffs_vfs.Inode.t -> bool
(** Does this directory inode use the indexed format? *)

val index_walk :
  t ->
  Cffs_vfs.Inode.t ->
  entry:(pblock:int -> bytes -> Cdir.entry -> unit) ->
  meta:(int -> unit) ->
  bad:(int -> unit) ->
  unit
(** Walk an indexed directory: [entry] sees each live entry exactly once
    (with the leaf it lives in), [meta] every table block and each
    distinct leaf once (the root is in the inode's block map and not
    reported), [bad] every unreadable or out-of-range pointer.  This is
    the walk fsck, layout and the tests share. *)

type index_stats = {
  idx_dirs : int;
  idx_blocks : int;  (** roots + table blocks + leaves *)
  idx_leaves : int;
  idx_leaf_fill : float;  (** live entries / leaf entry capacity *)
}

val index_stats : t -> index_stats
(** Namespace-wide index census (layout introspection; walks every
    directory). *)

include Cffs_vfs.Fs_intf.S with type t := t
