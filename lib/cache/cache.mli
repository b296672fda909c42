(** Buffer cache with dual indexing, as C-FFS requires.

    The cache is indexed by {e physical} disk address (like the original UNIX
    buffer cache) {e and} by higher-level logical identity (inode, logical
    block), like SunOS's integrated cache [Gingell87, Moran87].  Explicit
    grouping needs this: when a group read fetches many blocks, C-FFS
    "inserts these blocks into the cache based on physical disk address and
    an invalid file/offset identity"; the logical identity is attached
    lazily when a file access first maps to the block (paper §3.2).

    Block buffers: a miss, a group read or a prefetch installs the
    device's views of the blocks ({!Cffs_blockdev.Blockdev.read_views},
    {!Cffs_blockdev.Blockdev.drain_views}) and copies nothing.  A view
    becomes a private buffer the first time the cache hands its block
    out ({!read}, {!find_logical}); {!read_into} and {!find_logical_into}
    copy bytes out and leave it a view.  The cache ends every view it
    holds: when the entry is rewritten ({!write}), evicted (counted as
    [cache.evicted_unused]), invalidated or dropped ({!remount},
    {!crash}).  Dirty entries are always private, and no view leaves the
    cache.  Writebacks hand the cache's buffers to the device, which
    copies them into the media; the cache keeps ownership.

    Write policies model the paper's three integrity regimes:
    - [Write_through]: every write goes to the device immediately;
    - [Sync_metadata]: metadata writes are synchronous (FFS's integrity
      discipline), data writes are delayed until {!flush};
    - [Delayed]: all writes are delayed — the paper's emulation of soft
      updates ("we emulate it by using delayed writes for all metadata
      updates [Ganger94]");
    and two that go beyond it: [Soft_updates] (real ordering) and
    [Journaled] (a write-ahead metadata log, see {!Journal}). *)

type t

type policy =
  | Write_through
  | Sync_metadata
  | Delayed
  | Soft_updates
      (** all writes delayed, but update {e order} is preserved: blocks
          reach the device respecting the dependencies the file system
          declares with {!order}.  This is the real mechanism of
          [Ganger95] (which the paper only emulates with [Delayed]): the
          performance of delayed writes with the integrity invariants of
          synchronous metadata. *)
  | Journaled
      (** all writes delayed; at each {!flush} (the sync barrier) the
          dirty metadata is committed to a write-ahead log as one CRC-
          sealed transaction — strictly after the barrier's data home-
          writes — and home-written lazily at checkpoints.  Mounting
          replays committed transactions, so every crash prefix recovers
          to the last acknowledged sync.  Requires a {!Journal.t} attached
          with {!set_journal}; without one the policy degrades to
          [Delayed]. *)

val policy_name : policy -> string
(** Canonical snake_case spelling ([e.g.] ["sync_metadata"]), shared by
    the CLI, Crashmc's column labels and telemetry JSON. *)

val policy_of_name : string -> policy option
(** Inverse of {!policy_name}; also accepts hyphenated/space-separated
    spellings and the shorthands ["sync"], ["soft"], ["journal"]. *)

val all_policies : policy list
(** All five policies, in declaration order. *)

type kind = [ `Meta | `Data | `Meta_delayed ]
(** [`Meta_delayed] marks metadata whose loss is tolerable enough that
    even [Sync_metadata] (FFS's discipline) writes it delayed — indirect
    pointer blocks, inode timestamp updates — but that a journal must
    still log as metadata: under [Journaled] it commits with the rest of
    the transaction instead of being home-written before it. *)

type stats = {
  mutable phys_hits : int;
  mutable logical_hits : int;
  mutable misses : int;
  mutable sync_writes : int;
  mutable delayed_writes : int;
  mutable writebacks : int;  (** dirty blocks pushed out at flush/eviction *)
  mutable evictions : int;
}

type clusterer = blk:int -> sequential:bool -> bool
(** Flush-time write clustering policy: may dirty block [blk] travel in
    one disk request with the {e physically adjacent} dirty block
    [blk - 1]?  [sequential] says whether the two hold consecutive logical
    blocks of one file.  This is where the file systems differ: FFS
    merges only sequential blocks of a single file ([McVoy91] clustering);
    C-FFS additionally merges blocks of the same explicit group.  Default:
    never — each dirty block is its own request. *)

val create : ?policy:policy -> Cffs_blockdev.Blockdev.t -> capacity_blocks:int -> t

val set_clusterer : t -> clusterer -> unit
val device : t -> Cffs_blockdev.Blockdev.t

val set_integrity : t -> Cffs_blockdev.Integrity.t option -> unit
(** Route all device I/O through an integrity layer: misses become
    verified reads (a damaged block raises [Checksum_mismatch] → [EIO]),
    writebacks transparently remap sticky bad sectors, group reads degrade
    to per-block fetches when one member is damaged (only the damaged
    block's file sees [EIO], not the whole group), and {!flush} re-encodes
    the at-rest checksum region as part of the sync barrier. *)

val integrity : t -> Cffs_blockdev.Integrity.t option

val set_journal : t -> Journal.t -> unit
(** Attach the write-ahead log the [Journaled] policy commits to.  The
    file system attaches it at format/mount time; the journal's region
    lies beyond the file system's own blocks. *)

val journal : t -> Journal.t option

val checkpoint : t -> unit
(** Home-write every journal-committed metadata block and, once no dirty
    metadata remains, empty the log.  A no-op unless [Journaled] with a
    journal attached.  {!flush} checkpoints automatically when the log
    passes half full; an orderly {!remount} checkpoints so the cold image
    needs no replay. *)

val policy : t -> policy
val set_policy : t -> policy -> unit
val stats : t -> stats
val capacity : t -> int
val resident : t -> int
val dirty_count : t -> int

val pinned_count : t -> int
(** Buffers whose writeback failed: they stay dirty and are never evicted
    or dropped, so no acknowledged data is lost to a device fault; every
    flush retries them. *)

val resident_block : t -> int -> bool
(** Is the block in the cache (without touching recency)? *)

val read : t -> int -> bytes
(** [read t blk] returns the cached block, reading it from the device on a
    miss.  The returned buffer is the cache's own: after mutating it, call
    {!write} to record the new contents (and dirtiness).

    Device faults: a [Transient] read error is retried a bounded number of
    times with backoff (counted as [blockdev.retries]); a persistent
    failure re-raises {!Cffs_util.Io_error.E}, which the VFS layer turns
    into [EIO].  Failed {e writes} never raise from the cache — the buffer
    is kept dirty and pinned instead (see {!pinned_count}). *)

val read_into : t -> int -> src_off:int -> bytes -> dst_off:int -> len:int -> unit
(** [read_into t blk ~src_off dst ~dst_off ~len] is {!read} for a reader
    that only copies bytes out: it copies [len] bytes of the block from
    [src_off] into [dst] at [dst_off], with the same hit/miss accounting,
    events and recency, but never makes a private copy of the block — a
    block still held as a device view stays one. *)

val read_group : t -> int -> int -> bool
(** [read_group t blk n] fetches [n] contiguous blocks as a single disk
    request and installs each under its physical identity, as the
    device's view of it (no copy until the block is handed out).  Blocks
    already resident when the data arrives (possibly dirty) keep their
    cached contents.  If every block is already resident, no disk request
    is issued and the call returns [false]; [true] means a group request
    went to the device. *)

val prefetch : t -> (int * int) list -> unit
(** [prefetch t runs] submits every non-resident sub-range of the given
    physically contiguous [(start, nblocks)] runs as tagged asynchronous
    reads, drains the device queue once, and installs what arrived as
    clean blocks.  Many runs (many files, many streams) share one drain,
    so the queue's scheduler and coalescer see them all together.  Each
    block is installed when its completion is handled, unless it became
    resident meanwhile.  Read faults are swallowed and counted
    ([cache.prefetch_failed]) — the affected blocks simply stay
    non-resident.  With an integrity layer attached, falls back to
    verified {!read_group} per run, swallowing a failed run the same way.
    Only an out-of-range run raises. *)

val find_logical_exn : t -> ino:int -> lblk:int -> bytes
(** Logical-identity lookup; a hit needs no block-map consultation at all.
    Raises [Not_found] on a miss; neither outcome allocates. *)

val find_logical : t -> ino:int -> lblk:int -> bytes option
(** {!find_logical_exn} as an option. *)

val find_logical_into :
  t -> ino:int -> lblk:int -> src_off:int -> bytes -> dst_off:int -> len:int -> bool
(** {!find_logical} that copies bytes out as {!read_into} does; [false]
    (and nothing copied) on a miss. *)

val set_logical : t -> int -> ino:int -> lblk:int -> unit
(** Attach a logical identity to a resident physical block (no-op if the
    block is not resident). *)

val drop_logical : t -> ino:int -> lblk:int -> unit
(** Detach a logical identity (truncate/delete). *)

val order : t -> first:int -> second:int -> unit
(** [order t ~first ~second] (Soft_updates only; a no-op otherwise) requires
    that block [first] reaches the device no later than block [second].  If
    the new constraint would complete a cycle — the classic soft-updates
    aggregation problem — no edge is recorded; instead [first] and its
    prerequisite closure are written out immediately, in dependency order,
    so every {e registered} constraint still holds and [first] is clean
    before [second] can be flushed. *)

val write : t -> kind:kind -> int -> bytes -> unit
(** [write t ~kind blk data] records new contents for [blk].  Whether the
    device write happens now or at {!flush} is decided by the policy and
    [kind].  [data] is captured by reference; it must be exactly one block. *)

val flush : t -> unit
(** Push all dirty blocks to the device as one scheduler-ordered batch;
    adjacent dirty blocks coalesce into scatter/gather requests exactly as
    the configured {!clusterer} allows.  Under [Soft_updates] the batch is
    split into dependency waves: a block is written only after everything it
    was {!order}ed behind. *)

val flush_limit : t -> int -> int
(** [flush_limit t n] flushes at most [n] dirty blocks (block-at-a-time, no
    clustering) and returns how many were written — crash-injection tests
    use this to stop a flush midway.  Under [Soft_updates] the chosen blocks
    respect the declared ordering, so a crash after any prefix preserves the
    integrity invariants. *)

val invalidate : t -> int -> unit
(** Drop a block without writing it back (block freed). *)

val remount : t -> unit
(** Flush, then drop every cached block and logical mapping, and clear the
    drive's on-board cache: the cold-cache state the paper creates between
    benchmark phases. *)

val crash : t -> unit
(** Drop all cached state {e without} flushing — what a power failure leaves
    on the device is exactly what was written so far. *)

(** Typed notification of every cache decision, for tests and trace sinks.
    One event fires per logical action, before the device I/O it implies:
    [Read_miss] precedes the device read, [Writeback] the batch write.
    Aggregate counts are also maintained as [cache.*] registry metrics. *)
type event =
  | Read_hit of { blk : int; logical : bool }
      (** [logical] distinguishes a {!find_logical} hit from a physical one. *)
  | Read_miss of { blk : int; nblocks : int }
      (** [nblocks > 1] for group fetches ({!read_group}). *)
  | Write of { blk : int; sync : bool }
  | Writeback of { blk : int; nblocks : int }
      (** One flushed unit — a scatter/gather run of dirty blocks. *)
  | Evict of { blk : int }
  | Flush of { nblocks : int }  (** A {!flush} that pushed [nblocks] out. *)
  | Order of { first : int; second : int }
      (** An {!order} constraint was declared while [first] was dirty and
          was {e registered} as a dependency edge.  Declarations resolved
          by the cycle-breaking forced write are not reported: no ordering
          promise is recorded for them, so ordering property tests can
          treat every reported constraint as binding. *)

val set_observer : t -> (event -> unit) option -> unit
