(** The disk mechanism simulator.

    A drive services one request at a time (the paper's testbed issues
    synchronous SCSI commands) and advances a simulated clock by the service
    time: controller overhead + seek + rotational latency + media transfer,
    with head/cylinder switch costs for multi-track transfers.  Rotational
    position is derived from the clock, so think-time between requests
    changes which sector is under the head — exactly the effect that makes
    adjacent placement pay off. *)

type t

val create : Profile.t -> t
val profile : t -> Profile.t
val geometry : t -> Geometry.t

val now : t -> float
(** Current simulated time in seconds. *)

val clock : t -> Cffs_obs.Registry.cell
(** The live clock, in seconds: reading its [v] is {!now} and adding to
    it is {!advance}, without the box a float result or argument of a
    call costs. *)

val advance : t -> float -> unit
(** Let non-disk (CPU) time pass. *)

val current_cyl : t -> int

val service : t -> Request.t -> float
(** Service a request, advancing the clock; returns the service time. *)

val serve : t -> Request.t -> unit
(** {!service} without its result, which would be boxed: the form the
    block device's per-request path calls. *)

val stats : t -> Request.Stats.s
(** A fresh copy of the drive's counters. *)

val seek_time : t -> int -> float
(** Expose the fitted seek curve: seconds for a distance in cylinders. *)

val total_sectors : t -> int

val flush_cache : t -> unit
(** Drop the on-board cache (used when simulating a remount/cold cache). *)
