(** Tagged command queue: the sliding-window model behind the async I/O
    pipeline.

    Submissions join an unbounded arrival FIFO and are promoted, in FIFO
    order, into a window of at most [depth] tagged in-flight requests.
    {!take} selects the next dispatch from the window under the configured
    scheduling policy, optionally coalescing physically adjacent same-kind
    window entries into one contiguous dispatch group.

    Reordering is bounded by two invariants:
    - {b overlap order}: a request never dispatches before an
      earlier-submitted overlapping request when either is a write;
    - {b bounded starvation}: scheduling is sweep-based (FSCAN): the
      window is frozen as a sweep set and served to completion in policy
      order; entries promoted later wait for the next sweep, so no window
      entry is passed over more than [2 * depth] times.

    Cost, for a window of W entries: {!submit} is O(1); promoting an
    entry into the window costs O(log W) plus the overlapping entries it
    must wait for; {!take} costs O(log W) per dispatched entry plus the
    waiting entries it releases (SSTF also scans the entries on the
    nearest cylinders); {!clear} is O(W).  {!pending} and {!is_empty} are
    O(1). *)

type tag = int

(** A queued request's record.  Records outlive their requests: a
    dispatched or cleared record stays valid until its owner hands it to
    {!recycle}, and the queue then rewrites it for a later submission.
    The fields after [passes] are the queue's own links, as slots of its
    arena. *)
type 'a item = private {
  mutable tag : tag;
  req : Request.t;  (** the record's own request, rewritten at each submission *)
  mutable payload : 'a;
  mutable seq : int;  (** submission order *)
  submitted : Cffs_obs.Registry.cell;
      (** caller clock at submit, for wait accounting *)
  mutable passes : int;
      (** times passed over by the scheduler; set when the item leaves
          the queue (by {!take} or {!clear}) *)
  mutable slot : int;
  mutable sweep : int;
  mutable promoted : int;
  mutable deps : int;
  mutable dependents : int list;
  mutable older : int;
  mutable newer : int;
  mutable pri : int;
  mutable span_l : int;
  mutable span_r : int;
  mutable ready_l : int;
  mutable ready_r : int;
  mutable start_l : int;
  mutable start_r : int;
  mutable end_l : int;
  mutable end_r : int;
}

type 'a t

val create :
  ?depth:int -> ?policy:Scheduler.policy -> ?coalesce:bool -> unit -> 'a t
(** Defaults: unbounded depth, FCFS, no coalescing — a plain FIFO until
    configured otherwise. *)

val depth : 'a t -> int
val policy : 'a t -> Scheduler.policy
val coalesce : 'a t -> bool
val set_depth : 'a t -> int -> unit
val set_policy : 'a t -> Scheduler.policy -> unit
val set_coalesce : 'a t -> bool -> unit

val pending : 'a t -> int
(** Arrival queue plus window. *)

val is_empty : 'a t -> bool

val submit : 'a t -> Request.t -> 'a -> now:float -> tag
(** Enqueue a request with its payload; returns its unique tag.  The
    request's fields are copied into the item's own [req]. *)

(** {2 Records}

    The allocation-free form of {!submit} and {!take}.  Each queue keeps a
    small free list of records (at most 64): {!acquire} takes one (or
    builds one), {!enqueue} queues it, {!dispatch} hands out a group, and
    the owner passes each record to {!recycle} once the request's result
    has reached its waiter. *)

val acquire : 'a t -> (unit -> 'a) -> 'a item
(** A record for {!enqueue}: a recycled one, its payload as its last
    owner left it, or a new one with payload [make ()]. *)

val enqueue :
  'a t ->
  'a item ->
  Request.kind ->
  lba:int ->
  sectors:int ->
  now:Cffs_obs.Registry.cell ->
  unit
(** Queue an acquired record for the request [kind, lba, sectors],
    stamped with [now]'s time; its new tag is in [tag]. *)

val dispatch : 'a t -> geom:Geometry.t option -> current_cyl:int -> int
(** {!take} without building its list: the size of the next dispatch
    group (0 when the queue is empty), whose items {!dispatched} reads
    until the next {!dispatch}, {!take} or {!clear}. *)

val dispatched : 'a t -> int -> 'a item
(** [dispatched t i] is item [i] of the last dispatch group, in lba
    order. *)

val recycle : 'a t -> 'a item -> unit
(** Return a record that has left the queue to the free list.  The
    caller must not use it again.  Raises [Invalid_argument] if the
    record is already free. *)

val take :
  'a t -> geom:Geometry.t option -> current_cyl:int -> 'a item list option
(** Next dispatch group under the policy, or [None] when empty.  A group
    is a single item unless coalescing merged adjacent entries, in which
    case items are sorted by lba and form one contiguous range.  [geom]
    maps lba to cylinder; [None] (memory device) uses the lba itself. *)

val clear : 'a t -> 'a item list
(** Empty the queue (teardown / power cut), returning the undispatched
    items in submission order so their waiters can be failed. *)
