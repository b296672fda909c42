(** Seek-time model.

    Three-point curve in the style of disk simulators such as DiskSim:
    [t(d) = a·sqrt(d-1) + b·(d-1) + c] for a seek of [d] cylinders, fitted so
    that the single-cylinder, average (taken at one third of a full-stroke,
    the mean distance of uniformly random seeks) and full-stroke times match
    the drive profile.  The square-root term captures the
    acceleration-dominated short-seek regime the paper highlights
    ("seeking a single cylinder generally costs a full millisecond, and this
    cost rises quickly for slightly longer distances" [Worthington95]). *)

type t

val of_profile : Profile.t -> t

val time : t -> int -> float
(** [time t d] is the seek time in seconds for a distance of [d] cylinders.
    [time t 0 = 0.]. *)

val time_into : t -> int -> Cffs_obs.Registry.cell -> unit
(** [time_into t d c] stores [time t d] in [c] without boxing it. *)

val average : t -> samples:int -> float
(** Monte-Carlo check of the model's average seek time over uniformly random
    cylinder pairs (seconds); used by tests to validate the fit. *)
