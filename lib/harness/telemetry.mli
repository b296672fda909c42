(** Machine-readable telemetry over the small-file benchmark.

    Runs the paper's headline workload on a pair of configurations
    (conventional vs full C-FFS by default) and packages everything the
    obs layer collected — per-phase device measures, per-op latency
    histograms, the full counter delta, the layout introspector's view of
    freshly populated images ([grouping]), per-op-class latency
    attribution ([latency_breakdown]), and sampled time-series curves
    ([timeseries]) — into one JSON document with schema
    ["cffs-telemetry-v2"].  [cffs_cli stats --json] emits this document
    and the bench gate compares it with [bench/baseline.json], so every
    change to a simulated number shows in a diffable format (see
    {!Benchdiff}). *)

type config_run = {
  label : string;
  results : Cffs_workload.Smallfile.result list;
  delta : Cffs_obs.Registry.snapshot;
      (** registry delta over the run (counters, fcounters, histograms) *)
  timeseries : Cffs_obs.Json.t;
      (** {!Cffs_obs.Sampler.to_json} output captured during the run *)
}

val split_delta :
  Cffs_obs.Registry.snapshot ->
  (string * Cffs_obs.Json.t) list * (string * Cffs_obs.Json.t) list
(** Split a registry delta into (per-op latency histograms, non-zero
    counters), each already rendered to JSON.  Shared by every
    [cffs-telemetry-v2] emitter. *)

val run_config :
  ?sample_interval_s:float ->
  nfiles:int ->
  file_bytes:int ->
  policy:Cffs_cache.Cache.policy ->
  Setup.fs_kind ->
  config_run
(** Format a fresh filesystem, run the small-file benchmark under an
    installed sampler (default period 0.5 s of simulated time), and
    capture the registry delta. *)

val layout_of_populated :
  ?nfiles:int ->
  ?files_per_dir:int ->
  policy:Cffs_cache.Cache.policy ->
  file_bytes:int ->
  Setup.fs_kind ->
  Cffs_fsck.Layout.report
(** Format a fresh image, populate it with small files (default 120 of
    [file_bytes] across a few directories), and run the layout
    introspector on the result — the ["grouping"] section's per-image
    evidence. *)

val latency_breakdown_json :
  Cffs_obs.Registry.snapshot -> Cffs_obs.Json.t
(** The ["latency_breakdown"] section over a registry delta: for each of
    [cffs]/[ffs] and each op class (lookup/create/unlink/read/write), the
    count, total, p50/p95/p99, and the per-component attribution
    (seek/rotation/transfer/overhead/cachehit/host, plus overlapping
    queue_wait and the residual other).  Every key is present even when an
    op class never ran. *)

val default_pair : Setup.fs_kind list
(** [C-FFS (none); C-FFS (EI+EG)] — the comparison the paper's Tables 2–4
    make. *)

val counters_json : Cffs_obs.Registry.snapshot -> string list -> Cffs_obs.Json.t
(** The named counters of a snapshot as an object, every key present
    (zeros included) — the contract of the document's always-present
    counter sections, so consumers can assert on the keys whether or not
    the run used the subsystem. *)

val integrity_counter_names : string list
(** The keys of the ["integrity"] section, in order: checksum failures,
    remaps, degraded reads and scrub progress. *)

val journal_counter_names : string list
(** The keys of the ["journal"] section, in order: write-ahead-log
    traffic (records, commits, revokes), recovery (replays,
    replayed/discarded transactions) and checkpoint pressure (checkpoints,
    cumulative lag in log blocks, overflow syncs). *)

val namei_counter_names : string list
(** The keys of the ["namei"] section, in order. *)

val regroup_counter_names : string list
(** The keys of the ["regroup"] section, in order: compaction traffic
    (passes, files scanned/moved, blocks copied) and fault handling (IO
    skips, ENOSPC aborts, cursor resumes and writes). *)

val dirindex_counter_names : string list
(** The keys of the ["dirindex"] section, in order: promotions, leaf
    splits, table doublings, overflow chains, and indexed lookup/insert
    traffic. *)

val spindle_json : Cffs_volume.Volume.spindle -> Cffs_obs.Json.t
(** One spindle's counters (reads/writes, sectors, busy/seek/rotation/
    transfer seconds, queued requests) as a JSON object. *)

val volume_json :
  ?scale:Experiments.scale ->
  ?drives:int list ->
  ?layout:Cffs_volume.Volume.layout ->
  unit ->
  Cffs_obs.Json.t
(** The ["volume"] section: the A9 spindle-scaling sweep
    ({!Experiments.volume_scaling}) — striped 1/2/4-drive points and the
    meta-split contrast, each with per-spindle counters — plus the
    headline [small_read_speedup].  Always present in the document, so
    the benchdiff gate can track multi-spindle scaling across changes.
    [?drives] / [?layout] reshape the sweep ([cffs stats --drives N
    --vol-layout L]); the defaults are what bench/baseline.json
    records. *)

val document :
  ?nfiles:int ->
  ?file_bytes:int ->
  ?policy:Cffs_cache.Cache.policy ->
  ?configs:Setup.fs_kind list ->
  ?sample_interval_s:float ->
  ?mclient_files_per_stream:int ->
  ?mclient_large_mb:int ->
  ?vol_drives:int list ->
  ?vol_layout:Cffs_volume.Volume.layout ->
  unit ->
  Cffs_obs.Json.t
(** The telemetry document.  Defaults: 400 files (the quick scale) of
    1 KB under sync-metadata, over {!default_pair}; the mclient knobs
    scale the concurrency experiment down for fast schema tests;
    [?vol_drives] / [?vol_layout] reshape the ["volume"] sweep (see
    {!volume_json}). *)

val statbench_document :
  ?scale:Experiments.scale ->
  ?entries:int ->
  ?depth:int ->
  ?drives:int ->
  ?vol_layout:Cffs_volume.Volume.layout ->
  unit ->
  Cffs_obs.Json.t
(** The stat-heavy benchmark as a [cffs-telemetry-v2] document: FFS and
    C-FFS (EI+EG), each with the namei caches off and on
    ({!Experiments.run_statbench} sizing, default {!Experiments.quick}),
    plus the derived warm repeated-stat speedup per file system.
    [?entries] / [?depth] (default 0 = skipped) add the namespace-scaling
    [bigdir_cold] / [deep_warm] phases to every run; [?drives] /
    [?vol_layout] (default 1 / striped) put every instance on a
    multi-spindle volume. *)

val print_human :
  ?nfiles:int ->
  ?file_bytes:int ->
  ?policy:Cffs_cache.Cache.policy ->
  ?configs:Setup.fs_kind list ->
  unit ->
  unit
(** The same data as tables on stdout. *)
