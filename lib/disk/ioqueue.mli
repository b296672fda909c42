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

type 'a item = {
  tag : tag;
  req : Request.t;
  payload : 'a;
  seq : int;  (** submission order *)
  submitted_at : float;  (** caller clock at submit, for wait accounting *)
  mutable passes : int;
      (** times passed over by the scheduler; set when the item leaves
          the queue (by {!take} or {!clear}) *)
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
(** Enqueue a request with its payload; returns its unique tag. *)

val take :
  'a t -> geom:Geometry.t option -> current_cyl:int -> 'a item list option
(** Next dispatch group under the policy, or [None] when empty.  A group
    is a single item unless coalescing merged adjacent entries, in which
    case items are sorted by lba and form one contiguous range.  [geom]
    maps lba to cylinder; [None] (memory device) uses the lba itself. *)

val clear : 'a t -> 'a item list
(** Empty the queue (teardown / power cut), returning the undispatched
    items in submission order so their waiters can be failed. *)
