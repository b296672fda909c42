(** On-board (drive-level) segmented read cache with sequential prefetch.

    Mirrors the behaviour the paper relies on ("the disk prefetches
    sequential disk data into its on-board cache") with a physically honest
    model: after a read, the drive keeps reading ahead {e at media rate}
    while the mechanism is otherwise idle, so the prefetched window grows
    with elapsed wall-clock time and is destroyed when the head repositions
    for an unrelated request.  A read that falls entirely inside a cached
    window is a hit and costs no repositioning. *)

type t

val create : segments:int -> segment_sectors:int -> t

val settle : t -> gain:int -> max_lba:int -> unit
(** Let idle/bus time pass in which the media rate reads [gain] sectors:
    every open segment's prefetch frontier advances by [gain], up to the
    segment capacity. *)

val hit : t -> lba:int -> sectors:int -> bool
(** Containment check; touches the segment's recency on hit.  Call {!settle}
    first. *)

val streaming : t -> lba:int -> sectors:int -> int
(** [streaming t ~lba ~sectors] checks whether the request joins an active
    prefetch stream: [lba] falls inside an {e open} segment but the request
    extends past its frontier.  Returns [cached >= 0], the number of
    leading sectors already buffered, and extends the segment to cover the
    request (the head keeps streaming — no seek, no rotational loss).
    Returns [-1] otherwise.  No call allocates. *)

val close_open : t -> unit
(** The head repositioned: all prefetch activity stops (cached contents
    remain valid). *)

val install : t -> lba:int -> sectors:int -> unit
(** Record a media read of [lba, lba+sectors); the new segment is open, i.e.
    prefetch continues from its end as time passes.  Evicts the
    least-recently-used segment if full. *)

val invalidate : t -> lba:int -> sectors:int -> unit
(** Drop any segment overlapping a written range. *)

val clear : t -> unit
