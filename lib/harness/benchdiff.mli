(** Benchmark gate: require two telemetry JSON documents to agree exactly.

    Flattens every scalar leaf of both documents — number, string, bool
    or null — to a dotted path (array elements keyed by their
    [phase]/[stream]/[label]/[metric]/[config]/[name] field when present,
    else by index) and reports every leaf whose value differs and every
    path present in only one document.  The simulation is deterministic,
    so any such change means a simulated result moved. *)

exception Duplicate_path of string
(** Two leaves of one document flatten to the same path. *)

type change = {
  path : string;
  before : Cffs_obs.Json.t option;  (** [None]: absent from the baseline *)
  after : Cffs_obs.Json.t option;  (** [None]: absent from the candidate *)
}

type result = {
  leaves : int;  (** distinct paths across both documents *)
  changes : change list;  (** baseline order, then paths new in the candidate *)
}

val flatten : Cffs_obs.Json.t -> (string * Cffs_obs.Json.t) list
(** The scalar leaves in document order.  Raises {!Duplicate_path}. *)

val diff : Cffs_obs.Json.t -> Cffs_obs.Json.t -> result
(** [diff baseline candidate].  Raises {!Duplicate_path}. *)

val clean : result -> bool

val pp : Format.formatter -> result -> unit
(** The leaves that changed, grouped by top-level section (busiest
    first), each as [path  a -> b] with the relative change of a
    number. *)
