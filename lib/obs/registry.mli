(** Process-wide metrics registry.

    Every subsystem registers named metrics once at module initialisation
    and bumps them on the hot path with no allocation and no lookup.
    Names follow the [subsystem.metric] scheme ([drive.reads],
    [cache.misses], [cffs.op.lookup_s]); the registry rejects anything
    outside [[A-Za-z0-9._-]].

    Four metric kinds:
    - {b counters} — monotonic ints (request counts, hits, misses);
    - {b fcounters} — monotonic floats (accumulated seconds of seek time);
    - {b gauges} — instantaneous floats (resident blocks);
    - {b histograms} — log₂-scale latency histograms with a 1 µs floor,
      tracking count/sum/min/max plus 64 buckets, good for percentiles
      over nine decades without storing samples.

    The registry is global state, like the simulated clock it observes:
    experiments that want isolation bracket their run with {!snapshot}
    and {!diff} (see [Env.measured]) or call {!reset}. *)

type counter

(** A float-only record.  OCaml stores its field unboxed, so code that
    holds a cell updates it in place ([c.v <- c.v +. x]) without
    allocating.  A float passed to a function of another module is boxed,
    and so is a float stored into a mutable field of a mixed record; the
    per-request hot paths therefore keep their float state in cells and
    write the registry's own cells ({!fcell}, {!gcell}) directly. *)
type cell = { mutable v : float }

type fcounter
type gauge
type histogram

val counter : string -> counter
(** Register (or fetch, if already registered) a counter.
    @raise Invalid_argument if the name is malformed or already
    registered as a different kind. *)

val fcounter : string -> fcounter
val gauge : string -> gauge
val histogram : string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val fadd : fcounter -> float -> unit
val set : gauge -> float -> unit

val fcell : fcounter -> cell
(** The fcounter's own value cell: adding to its [v] is {!fadd}. *)

val gcell : gauge -> cell
(** The gauge's own value cell: writing its [v] is {!set}. *)

val observe : histogram -> float -> unit
(** Record one latency sample, in seconds.  Negative and NaN samples are
    clamped to 0. *)

val observe_cell : histogram -> cell -> unit
(** [observe_cell h c] is [observe h c.v] without boxing the sample. *)

val counter_name : counter -> string
val counter_value : counter -> int
val fcounter_value : fcounter -> float

(** {1 Snapshots} *)

type hist_snapshot = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : int array;
}

type datum =
  | Counter of int
  | Fcounter of float
  | Gauge of float
  | Histogram of hist_snapshot

type snapshot = (string * datum) list
(** Sorted by metric name; values are copies, immune to later bumps. *)

val snapshot : unit -> snapshot

val diff : snapshot -> snapshot -> snapshot
(** [diff now before]: per-metric deltas for counters, fcounters and
    histogram counts/sums/buckets.  Gauges pass through from [now].
    Histogram min/max are taken from [now] (extremes don't subtract). *)

val filter : prefix:string -> snapshot -> snapshot
val reset : unit -> unit

val get_counter : snapshot -> string -> int
(** 0 if absent (so readers need no special-casing for subsystems that
    were never exercised). *)

val get_fcounter : snapshot -> string -> float
val get_gauge : snapshot -> string -> float
val get_histogram : snapshot -> string -> hist_snapshot option

val hist_mean : hist_snapshot -> float

val hist_percentile : hist_snapshot -> float -> float
(** [hist_percentile h p] for [p] in [0..100], linearly interpolated
    within the owning bucket and clamped to the observed [min]/[max]. *)

(** {1 Exporters} *)

val to_table : ?title:string -> ?drop_zero:bool -> snapshot -> Cffs_util.Tablefmt.t
(** Human-readable table; metrics that never fired are dropped by
    default. *)

val hist_to_json : hist_snapshot -> Json.t
val to_json : snapshot -> Json.t

val to_json_lines : snapshot -> string
(** One [{"metric":name,"value":...}] object per line. *)
