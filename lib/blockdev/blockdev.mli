(** Block device: the file systems' view of storage.

    Presents fixed-size blocks over one or more spindles — simulated
    {!Cffs_disk.Drive}s (timed) or plain memory (untimed, for unit tests) —
    behind an extent table.  A plain device is the one-spindle case under
    the identity extent; {!multi} maps N spindles.  Either way there is one
    pipeline: each spindle has its own tagged queue, ordered by the
    configured scheduling policy (C-LOOK by default) as the paper's driver
    queue would, and contiguous multi-block transfers become single disk
    requests — the scatter/gather capability explicit grouping depends
    on.

    {b Block buffers.}  Inside, data travels as one buffer per block.  A
    read copies nothing: it yields one {!view} per block — read-only
    access to the media store's own buffer for that block — and the views
    move by pointer through coalesced dispatches, composite fragments and
    completions.  A view keeps the block's contents as of the read's
    service time: each store slot counts its outstanding views, and a
    write to a viewed block installs a fresh slot and buffer instead of
    changing the viewed one (copy on write; with no view outstanding it
    writes in place).  Whoever holds a view ends it exactly once, with
    {!own} (a private copy) or {!release}.  {!read_views} and
    {!drain_views} are the view form the buffer cache uses; {!read} and
    {!drain} are owning adapters that copy each block once and release
    its view, so their callers never see a store buffer.

    A write copies each block once, from the caller's buffer into the
    media store, which owns its copies: changing a buffer after the write
    has been serviced never changes the media.  Until then the device may
    alias the caller's buffers (a synchronous call returns only after
    servicing).  {!submit_write_blocks} and {!write_batch_units} are the
    block form; {!write} and {!submit_write} are contiguous adapters that
    split at the edge, and the write observer is handed contiguous bytes
    likewise. *)

type t

(** What the fault injector decides about one request.  [Torn k] (writes
    only) persists the first [k] 512-byte sectors of the request and then
    fails with [Power_cut] — a tear is only ever caused by losing power
    mid-request.  [Fail c] persists nothing and raises
    {!Cffs_util.Io_error.E} with cause [c]. *)
type outcome = Proceed | Torn of int | Fail of Cffs_util.Io_error.cause

type injector = Cffs_util.Io_error.op -> blk:int -> nblocks:int -> outcome

type write_observer = blk:int -> data:bytes -> torn:int option -> unit
(** Called once per write request that persisted anything, after the store:
    [blk] is the request's first block, [data] the full intended payload
    (one or more whole blocks), [torn] the number of sectors that actually
    reached the media when the request tore ([None] when it completed).
    [data] may alias the writer's buffer: copy it to keep it. *)

val of_drive :
  ?policy:Cffs_disk.Scheduler.policy ->
  ?host_overhead:float ->
  Cffs_disk.Drive.t ->
  block_size:int ->
  t
(** Timed device.  [block_size] must be a positive multiple of 512.
    [host_overhead] (seconds, default 0.5 ms) is the host-side cost charged
    per disk request — driver, SCSI command set-up and interrupt handling on
    a mid-90s CPU.  It advances the clock before the drive services the
    request, so it also produces the rotational slip a real host induces. *)

val memory : block_size:int -> nblocks:int -> t
(** Untimed in-memory device. *)

val multi : subs:t array -> extents:(int * int * int * int) list -> t
(** [multi ~subs ~extents] builds a composite device presenting one logical
    block space mapped onto the spindles of the given one-spindle
    subdevices by an extent table.  Each extent is [(lstart, len, sub, pstart)]: logical
    blocks [lstart, lstart+len) live at physical blocks [pstart, pstart+len)
    of subdevice [sub].  Extents must tile the logical space contiguously
    from 0 and must not overlap on any subdevice; subdevices must share one
    block size and must not themselves be composites.

    Each spindle keeps its own tagged queue, so scheduling, coalescing and
    fault isolation apply per-spindle; the device clock is the {e maximum}
    of the spindle clocks (spindles service their queues concurrently), and
    every submission, drain and {!advance} first syncs every spindle to that
    clock — so batched drains overlap across spindles while dependent
    operations serialize.  Requests are split at extent boundaries and
    reassembled on completion; a fragment failure fails only its parent.

    {!set_injector} / {!set_write_observer} always see {e logical}
    addresses, whichever spindle serviced the request, so {!Faultdev} and
    {!Integrity} attach to a composite unchanged, and a materialized crash
    image is an ordinary flat device image (power cuts stop every spindle
    at one global request boundary — the injector goes dead for all of
    them).  The subdevices share their spindles with the composite: read
    their stats, but submit no I/O to them directly. *)

val subdevices : t -> t array
(** The subdevices a composite was built from ([[||]] for plain devices) —
    for per-spindle telemetry and tests; submitting I/O directly to a
    subdevice that also serves a composite is not supported. *)

val block_size : t -> int
val nblocks : t -> int

val set_injector : t -> injector option -> unit
(** Install (or clear) the fault-decision hook consulted once per request.
    {!Faultdev} is the intended client; tests may install their own.  A
    hook runs while its spindle's dispatch group is being serviced, so it
    must not submit I/O to the device itself. *)

val set_write_observer : t -> write_observer option -> unit
(** Install (or clear) the per-write-request notification hook; like the
    injector, it must not submit I/O to the device. *)

(** {2 Integrity tags}

    Out-of-band per-block CRC tags, the software analogue of T10-DIF /
    520-byte-sector protection information.  When enabled, every fully
    persisted block atomically records the CRC-32 of its new contents; a
    torn request leaves the {e old} tag behind, and
    {!corrupt_block} leaves the tag stale — both making the damage
    detectable.  The device only {e stores} tags; verification and the
    at-rest on-disk encoding live in {!Integrity}. *)

val enable_tags : t -> unit
(** Start maintaining tags (idempotent; off by default — untagged devices
    pay no overhead). *)

val tags_enabled : t -> bool

val tag : t -> int -> int option
(** The recorded tag for a block, or [None] if the block was never written
    while tags were enabled (unverifiable, treated as trusted). *)

val set_tag : t -> int -> int -> unit
(** Install a tag directly — used by {!Integrity} to reload the at-rest
    checksum region into the live table after {!load_file}. *)

(** {2 Views} *)

type view
(** A read-only view of one block as the media held it when the read
    that produced it was serviced.  Later writes to the block never change
    it.  End every view once, with {!own} or {!release}; a view not yet
    ended makes the next write to its block allocate a fresh buffer. *)

val no_view : view
(** A placeholder that is no view of any block ([own] gives an empty
    buffer, [release] does nothing); compare with [==]. *)

val read_views : t -> int -> int -> view array
(** [read_views t blk n] reads [n] consecutive blocks as one request and
    returns one view per block, copying nothing.  Unwritten blocks read as
    zeros (one shared zero view).  Raises like {!read}. *)

val own : view -> bytes
(** [own v] ends view [v] and returns a fresh private copy of its
    bytes. *)

val release : view -> unit
(** [release v] ends view [v] without copying.  Ending a view whose
    block was rewritten, restored or corrupted since changes nothing the
    store still uses. *)

val blit_view : view -> src_off:int -> bytes -> dst_off:int -> len:int -> unit
(** Copy [len] of the view's bytes from [src_off] into a buffer, leaving
    the view open. *)

val view_crc : view -> int
(** CRC-32 of the view's bytes, computed in place. *)

val read : t -> int -> int -> bytes
(** [read t blk n] reads [n] consecutive blocks as one request.  Unwritten
    blocks read as zeros.  Raises {!Cffs_util.Io_error.E} with cause
    [Out_of_bounds] when the range lies outside the device, or with the
    injector's cause when the configured fault layer fails the request.
    The contiguous owning form of {!read_views}. *)

(** {2 The tagged-queue pipeline}

    All I/O flows through a tagged command queue ({!Cffs_disk.Ioqueue}):
    submissions join an arrival FIFO, are promoted into a window of at
    most the configured depth, and dispatch in scheduler order —
    optionally coalescing physically adjacent same-kind requests into one
    contiguous transfer.  The synchronous operations above are submit +
    drain of a single tag, and {!write_batch_units} submits every unit
    before draining, so per-mount depth/policy/coalescing settings govern
    the whole I/O path.  Each queued request is a record from its
    spindle's free list, reused from submit until its result reaches the
    waiter; a synchronous call takes its result without a completion,
    and the completions {!drain} and {!drain_views} return are the
    caller's own records.  Defaults preserve the classic behaviour: an
    unbounded window (the scheduler sees whole batches), the policy given
    to {!of_drive} (FIFO for memory devices), and no coalescing.  On a
    composite the settings apply to every spindle's queue. *)

type 'a completion = {
  cq_tag : Cffs_disk.Ioqueue.tag;
  cq_op : Cffs_util.Io_error.op;
  cq_blk : int;
  cq_nblocks : int;
  cq_result : ('a, Cffs_util.Io_error.t) result;
      (** [Ok data] for reads, empty for writes.  A failed request reports
          its error here — it is {e not} raised; only the failed tag's
          waiter is affected. *)
}
(** Completion of one tagged request, its data in either form. *)

type cqe = bytes completion
(** A completion with contiguous data ([Ok Bytes.empty] for writes). *)

val set_queue :
  t ->
  ?depth:int ->
  ?policy:Cffs_disk.Scheduler.policy ->
  ?coalesce:bool ->
  unit ->
  unit
(** Reconfigure the mount's queue: window depth (>= 1), scheduling policy
    and adjacent-request coalescing.  Omitted settings are unchanged. *)

val queue_depth : t -> int
val queue_policy : t -> Cffs_disk.Scheduler.policy
val queue_coalesce : t -> bool

val pending : t -> int
(** Requests submitted but not yet serviced. *)

val submit_read : t -> int -> int -> Cffs_disk.Ioqueue.tag
(** [submit_read t blk n] enqueues a read of [n] consecutive blocks.
    Raises {!Cffs_util.Io_error.E} ([Out_of_bounds]) on a bad range;
    device faults are reported on the completion, not raised. *)

val submit_write : t -> int -> bytes -> Cffs_disk.Ioqueue.tag
(** [submit_write t blk data] enqueues a write of
    [length data / block_size] consecutive blocks. *)

val submit_write_blocks : t -> int -> bytes array -> Cffs_disk.Ioqueue.tag
(** [submit_write_blocks t blk blocks] enqueues one write request of the
    one-block buffers [blocks] at [blk, blk + length blocks): the block
    form of {!submit_write}.  The device aliases the buffers until the
    request is serviced. *)

val drain : t -> cqe list
(** Service everything pending, spindle by spindle, and return all
    completions (submission faults included) in completion order.  A
    [Power_cut] outcome stops its spindle: later queued requests there fail
    with [Power_cut] without touching the media.  A coalesced dispatch that fails with a retryable
    cause is re-serviced member by member, so only the tag covering the
    fault fails.  The contiguous owning form of {!drain_views}. *)

val drain_views : t -> view array completion list
(** {!drain} with each read's data as one {!view} per block, which the
    caller must end, and [Ok [||]] for writes. *)

val reset_queue : t -> int
(** Tear the queue down: every pending request fails its waiter with
    [Power_cut] (reported by the next {!drain}) without touching the
    media.  Returns how many were discarded. *)

val write : t -> int -> bytes -> unit
(** [write t blk data] writes [length data / block_size] consecutive blocks
    as one request, synchronously.  Raises {!Cffs_util.Io_error.E} on
    out-of-bounds ranges and injected faults, like {!read}. *)

val write_batch_units : t -> (int * bytes list) list -> unit
(** [write_batch_units t units] writes each unit — a physically contiguous
    run [(first_block, blocks)] — as a single scatter/gather request, in
    scheduler order.  Each request persists as it is serviced.  On each
    spindle the first failed unit stops the rest of that spindle's share
    (those waiters fail with [Power_cut]), so an injected fault mid-batch
    leaves exactly the already-serviced prefix on the media; the first real
    fault is raised as {!Cffs_util.Io_error.E}.  This is the block form of
    writing: the device copies each block buffer once, into the media
    store, and keeps none of them after the call returns. *)

val store_raw : t -> int -> bytes -> keep_sectors:int option -> unit
(** [store_raw t blk data ~keep_sectors] deposits data directly in the
    store: no request accounting, no injector, no observer.  With
    [keep_sectors = Some k] only the first [k] sectors land (a recorded
    tear).  This is the journal-replay primitive {!Faultdev.materialize}
    uses to rebuild crash images. *)

val now : t -> float
(** Simulated time: the latest spindle clock (memory spindles only move
    by {!advance}). *)

val advance : t -> float -> unit
(** Account CPU/think time on every spindle. *)

val stats : t -> Cffs_disk.Request.Stats.s
(** A fresh sum of the spindles' request counters.  Both media count
    reads/writes/sectors uniformly; the timing fields ([busy_time],
    [seek_time], ...) stay zero for memory spindles, which have no
    mechanics to account. *)

val drive : t -> Cffs_disk.Drive.t option
(** The first spindle's drive ([None] for memory); a composite's other
    drives are reached through {!subdevices}. *)

val flush_device_cache : t -> unit
(** Drop every drive's on-board cache (cold-cache measurements). *)

(** Raw stored contents, for crash simulation: a snapshot captures exactly
    the blocks that reached the device — and their integrity tags, which
    live with the media — so restoring yields a device whose contents are
    the snapshot (queued/cached data above the device is lost, which is
    the crash semantics).  Images are flat, in logical block space, so an
    image of a composite restores onto a plain device and vice versa. *)
type image

val snapshot : t -> image
val restore : t -> image -> unit
val blocks_written : image -> int
(** Number of distinct blocks present in the image. *)

val write_torn : t -> int -> bytes -> keep_sectors:int -> unit
(** [write_torn t blk data ~keep_sectors] simulates a write interrupted by a
    power failure: only the first [keep_sectors] 512-byte sectors of the
    block reach the media; the rest keeps its previous contents.  Sectors
    themselves are atomic — the assumption C-FFS builds its name+inode
    atomicity on. *)

val corrupt_block : t -> int -> Cffs_util.Prng.t -> unit
(** Overwrite one block with random bytes (media-corruption injection for
    fsck tests). *)

val save_file : t -> string -> unit
(** Write the device contents to a raw image file of [nblocks x block_size]
    bytes (sparse where blocks were never written). *)

val load_file : ?block_size:int -> string -> t
(** Load a raw image file into a fresh memory device; the block count is the
    file size divided by [block_size] (default 4096).  All-zero blocks are
    not materialised.  Raises [Sys_error]/[Invalid_argument] on unusable
    files. *)
