(** Data-integrity layer: block checksums, bad-sector remapping, and
    metadata replicas over a {!Blockdev}.

    The layer carves a reserved area from the tail of the device:

    {v [ data blocks | checksum region | spare pool | map A | map B ] v}

    - the {b checksum region} is the at-rest encoding of the device's
      per-block CRC-32 tags (4 bytes per block; see {!Blockdev.enable_tags}),
      rewritten by {!flush_tags} at sync barriers and reloaded on
      {!attach} of a cold image;
    - the {b spare pool} backs transparent bad-sector remapping
      ({!write} remaps a sticky [Bad_sector] to a fresh spare and persists
      the mapping before acknowledging) and metadata-replica slots
      ({!replica_write});
    - the {b remap table} maps both remapped blocks and replica slots to
      spares, generation-stamped and kept as two copies (last two blocks
      of the device) written in order, so every crash point leaves at
      least one copy with a valid embedded CRC.

    File systems address only [data_blocks] blocks; every {!read} verifies
    each block against its tag and raises {!Cffs_util.Io_error.E} with
    cause [Checksum_mismatch] on damage. *)

type t

val format : ?spare_blocks:int -> Blockdev.t -> t
(** Initialise the reserved area on a fresh device (default 64 spares) and
    enable tag maintenance.  Raises [Invalid_argument] if the device is
    too small or [spare_blocks] exceeds one map block's capacity. *)

val attach : Blockdev.t -> t option
(** Detect and load an integrity-formatted device: picks the newest valid
    remap-table copy, reloads remaps/replicas, and — for a cold image —
    reloads the checksum region into the device's tag table.  [None] if no
    valid table is found (not integrity-formatted, or both copies
    destroyed). *)

val device : t -> Blockdev.t

val data_blocks : t -> int
(** Blocks usable by the file system ([< Blockdev.nblocks]). *)

val read_views : t -> int -> int -> Blockdev.view array
(** Verified read of [n] data blocks as one view per block (see
    {!Blockdev.read_views}): translates remapped blocks (splitting the
    request when remapping broke contiguity) and checks every block's tag
    in place; the buffer cache's read path.  Raises [Checksum_mismatch]
    on damage; transient faults propagate for the cache to retry.
    End each view with [Blockdev.own] or [Blockdev.release]; on a failed
    check every view is released before the raise. *)

val write : t -> int -> bytes -> unit
(** Write with transparent remap-on-write: a sticky [Bad_sector] allocates
    a spare, redirects the block there, and persists the table — the write
    succeeds and every later access follows the mapping.  Raises only when
    the spare pool is exhausted or the device is dead. *)

val write_units : t -> (int * bytes list) list -> unit
(** Scatter/gather batch with remap translation; remapped blocks travel as
    their own requests.  Faults propagate (the cache's per-block fallback
    retries through {!write}, which remaps). *)

val flush_tags : t -> unit
(** Rewrite the checksum region from the live tag table.  Call at sync
    barriers so a cold {!attach} sees tags as of the last sync. *)

(** {1 Remap introspection} *)

val remapped : t -> int -> bool
val phys : t -> int -> int
val remap_count : t -> int
val spare_left : t -> int
val generation : t -> int

(** {1 Metadata replicas}

    Slot-addressed single-block copies of critical metadata (slot
    assignment is the file system's: C-FFS uses slot 0 for the superblock
    and [1 + cg] for each cylinder-group descriptor). *)

val replica_write : t -> slot:int -> bytes -> bool
(** Write (allocating a spare for the slot on first use).  [false] when the
    spare pool is exhausted and the slot has no block yet — the slot simply
    stays unreplicated; the caller may retry after spares are freed. *)

val replica_read : t -> slot:int -> bytes option
(** Verified read; [None] if the slot is unassigned, unreadable, or fails
    its checksum. *)

val replica_phys : t -> slot:int -> int option
val replica_count : t -> int

(** {1 Scrub support} *)

type verdict = Verified | Untagged | Mismatch | Unreadable

val verify_block : t -> int -> verdict
(** Probe one data block on the media (through the remap table), without
    raising: [Untagged] blocks were never written under tags. *)

val rewrite_block : t -> int -> bytes -> unit
(** Restore known-good contents (remaps if the sector is bad). *)

val repair_map_copies : t -> bool
(** Re-persist both remap-table copies if either is damaged or stale;
    returns whether a repair was needed. *)

val note_degraded : unit -> unit
(** Count one degraded-mode read on [integrity.degraded_reads] (called by
    layers that serve a replica or partial group after primary failure). *)
