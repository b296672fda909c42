(** The multi-volume layer: one logical block device over N simulated
    spindles.

    A volume presents the ordinary {!Cffs_blockdev.Blockdev} interface (the
    composite device built by {!Cffs_blockdev.Blockdev.multi}) while mapping
    block ranges onto independent drives, each with its own tagged command
    queue — so FSCAN scheduling, coalescing and fault isolation apply
    per-spindle, and batched drains overlap across spindles.

    Two multi-drive layouts, both aligned to the file systems' shared
    geometry (block 0 is the superblock; cylinder group [g] spans
    [stripe_unit] blocks starting at [1 + g * stripe_unit]):

    - {b Striped}: group-aligned striping.  Chunk [g] goes wholly to spindle
      [g mod drives], so a directory's group frames stay on one spindle
      (preserving the paper's single-request group reads) while sibling
      directories spread across the array.
    - {b Meta_split}: metadata/data separation, CFS-style.  Spindle 0 is the
      dedicated metadata volume: the superblock plus the first
      [meta_per_chunk] blocks of every chunk (the cg header, and for FFS the
      inode table); each chunk's data remainder goes to data spindle
      [1 + (g mod (drives - 1))].

    The layout is chosen at mkfs and not recorded on disk: the logical
    block space is self-contained, and crash images materialized from a
    volume are ordinary flat device images, so mount and fsck work on them
    unchanged. *)

type layout = Single | Striped | Meta_split

val layout_name : layout -> string
(** ["single"], ["striped"], ["meta-split"]. *)

val layout_of_name : string -> layout option

type t = {
  dev : Cffs_blockdev.Blockdev.t;
      (** the device the file system mounts: the composite, or the single
          plain device when [drives = 1] *)
  subs : Cffs_blockdev.Blockdev.t array;
      (** the spindles ([[||]] when [drives = 1]) *)
  drives : int;
  layout : layout;
  stripe_unit : int;  (** blocks per chunk; use the file system's cg span *)
  meta_per_chunk : int;  (** head-of-chunk blocks on the metadata spindle *)
}

val plan :
  layout ->
  drives:int ->
  stripe_unit:int ->
  meta_per_chunk:int ->
  caps:int array ->
  (int * int * int * int) list
(** The extent table [(lstart, len, sub, pstart)] for the given layout over
    spindles of the given block capacities, as {!Cffs_blockdev.Blockdev.multi}
    consumes it.  Chunks are assigned until some spindle is full, so the
    logical size is the largest whole-chunk space the array supports.
    Raises [Invalid_argument] on a meaningless shape ([drives < 2],
    [stripe_unit <= meta_per_chunk], a spindle too small for one chunk). *)

val create :
  ?profile:Cffs_disk.Profile.t ->
  ?scheduler:Cffs_disk.Scheduler.policy ->
  ?host_overhead:float ->
  ?block_size:int ->
  ?stripe_unit:int ->
  ?meta_per_chunk:int ->
  drives:int ->
  layout:layout ->
  unit ->
  t
(** Timed volume: [drives] fresh simulated drives of [profile] (default the
    testbed's Seagate ST31200, C-LOOK per-spindle queues, 4 KB blocks,
    [stripe_unit] defaulting to the file systems' default cg span of 2048
    blocks).  [drives = 1] yields a plain single-drive device regardless of
    [layout]. *)

val create_memory :
  ?stripe_unit:int ->
  ?meta_per_chunk:int ->
  block_size:int ->
  nblocks:int ->
  drives:int ->
  layout:layout ->
  unit ->
  t
(** Untimed volume over memory spindles, for unit tests and the crash
    harness: the array is sized so the logical space covers at least
    [nblocks]. *)

(** Per-spindle activity, for the telemetry [volume] section. *)
type spindle = {
  spindle : int;
  s_reads : int;
  s_writes : int;
  s_read_sectors : int;
  s_write_sectors : int;
  s_busy_s : float;
  s_seek_s : float;
  s_rotation_s : float;
  s_transfer_s : float;
  s_pending : int;  (** requests queued, not yet serviced *)
}

val spindles : Cffs_blockdev.Blockdev.t -> spindle list
(** Live per-spindle counters of a composite device ([[]] for a plain
    device). *)
