(** One entry point per table and figure of the paper's evaluation (the
    experiment ids follow DESIGN.md), plus the ablations.  Each function
    runs its experiment on freshly formatted simulated disks and renders a
    plain-text table; [run_all] prints the lot. *)

(** Experiment sizing: [full] reproduces the paper's parameters (10000
    small files, etc.); [quick] is for tests and smoke runs. *)
type scale = {
  smallfile_files : int;
  sweep_cap_bytes : int;  (** total payload cap for the file-size sweep *)
  aging_ops : int;
  aging_points : float list;  (** target utilizations *)
  aging_seed : int;  (** PRNG seed for the aging churn (reproducible runs) *)
  decay_ops : int;
      (** operations for the decay-and-recovery time series ([fig8_decay]);
          10^5+ at full scale *)
  app_spec : Cffs_workload.Appbench.spec;
  large_mb : int;
  fig2_samples : int;
  mclient : Cffs_workload.Mclient.params;  (** multi-client workload sizing *)
  stat_dirs : int;  (** stat-heavy workload tree width *)
  stat_files_per_dir : int;
  stat_repeats : int;  (** warm stat sweeps *)
  stat_cache_blocks : int;
      (** buffer cache for the namei ablation — deliberately smaller than
          the tree's metadata working set, so uncached warm resolution
          pays disk time *)
  dirindex_entries : int list;
      (** flat-directory sizes for the A8 linear-vs-indexed ablation
          ([1000; 10_000; 100_000; 1_000_000] at full scale) *)
}

val full : scale
val quick : scale

val table1_drives : unit -> Cffs_util.Tablefmt.t
(** E1 / paper Table 1: characteristics of the three 1996 drives. *)

val fig2_access_time : scale -> Cffs_util.Tablefmt.t
(** E2 / Figure 2: average access time vs request size per drive. *)

val table2_setup_drive : unit -> Cffs_util.Tablefmt.t
(** E3 / Table 2: the experimental-setup drive (Seagate ST31200). *)

val smallfile :
  scale -> Cffs_cache.Cache.policy -> Cffs_util.Tablefmt.t * Cffs_util.Tablefmt.t
(** E4+E5 (sync) / E6 (delayed): the LFS small-file benchmark over the five
    configurations.  Returns (throughput table, disk-requests-per-file
    table). *)

val fig7_size_sweep : scale -> Cffs_util.Tablefmt.t
(** E7: small-file throughput vs file size, C-FFS vs the no-technique
    baseline. *)

val fig8_aging : scale -> Cffs_util.Tablefmt.t
(** E8: aging — cold-read throughput and grouping quality vs utilization. *)

val fig8_decay : scale -> Cffs_util.Tablefmt.t
(** E8 over time: grouping quality sampled on the simulated clock while
    the churn runs (installed-sampler time series with a grouped-fraction
    probe), at the highest utilization in [scale.aging_points] for
    [scale.decay_ops] operations — and then while an online regroup pass
    ({!Cffs_fsck.Regroup}) repairs the damage, so the curve shows decay
    {e and} recovery. *)

val table3_apps : scale -> Cffs_util.Tablefmt.t
(** E9 / software-development applications, with % improvement. *)

val table_dirsize : unit -> Cffs_util.Tablefmt.t
(** E10: directory-size cost of embedded inodes, and what one directory
    read delivers. *)

val table_large : scale -> Cffs_util.Tablefmt.t
(** E12: large-file sequential bandwidth is unchanged by the techniques. *)

val ablation_scheduler : scale -> Cffs_util.Tablefmt.t
(** A1: disk-scheduling policy under the flush-heavy create phase. *)

val ablation_group_size : scale -> Cffs_util.Tablefmt.t
(** A2: group-frame size sweep. *)

val table_breakdown : scale -> Cffs_util.Tablefmt.t
(** Where the time goes: per-phase seek / rotation / transfer split for the
    no-technique baseline vs full C-FFS — the mechanism behind every other
    table (co-location converts positioning time into transfer time). *)

val ablation_readahead : scale -> Cffs_util.Tablefmt.t
(** A3: file-system-level sequential read-ahead (the paper's future-work
    prefetching, our extension): large-file cold-read bandwidth vs window. *)

val run_mclient :
  ?config:Cffs.config ->
  ?drives:int ->
  ?vol_layout:Cffs_volume.Volume.layout ->
  scale ->
  qdepth:int ->
  sched:Cffs_disk.Scheduler.policy ->
  coalesce:bool ->
  Cffs_workload.Mclient.result
(** One multi-client run on a fresh C-FFS instance (default: the
    no-technique configuration, where the queue has the most headroom)
    with the given queue configuration.  [?drives] / [?vol_layout]
    (defaults 1 / striped) put the instance on a multi-spindle volume. *)

val ablation_concurrency : scale -> Cffs_util.Tablefmt.t
(** A4: the multi-client workload over queue depth × scheduling policy
    (the async-pipeline extension): aggregate and per-class throughput,
    observed queue depth, service-wait percentiles, coalescing. *)

(** One A9 measurement: the multi-client workload on a volume of
    [vp_drives] spindles, with the per-spindle counters the run left
    behind (empty on a single plain drive). *)
type vol_point = {
  vp_drives : int;
  vp_layout : Cffs_volume.Volume.layout;
  vp_result : Cffs_workload.Mclient.result;
  vp_spindles : Cffs_volume.Volume.spindle list;
}

type volume_scaling = {
  vol_points : vol_point list;
      (** group-aligned striping over [1; 2; 4] spindles *)
  vol_meta_split : vol_point option;
      (** the metadata/data-separation contrast at the widest point *)
  vol_speedup : float;
      (** small-file read throughput, widest striped point over one
          drive — the A9 headline (near-linear: >= 3x at 4 drives) *)
}

val volume_point :
  ?config:Cffs.config ->
  ?qdepth:int ->
  scale ->
  drives:int ->
  layout:Cffs_volume.Volume.layout ->
  vol_point
(** One A9 point: the multi-client workload (deep C-LOOK queue with
    coalescing) on a fresh full-C-FFS instance over [drives] spindles. *)

val volume_scaling :
  ?config:Cffs.config ->
  ?drives:int list ->
  ?layout:Cffs_volume.Volume.layout ->
  scale ->
  volume_scaling
(** Run the A9 sweep (default: full C-FFS over 1/2/4 striped spindles
    plus a 4-spindle meta-split contrast) and return the raw
    measurements — the scaling acceptance criterion is asserted over
    this record by the test suite.  [?layout] swaps which layout the
    sweep points use; [vol_meta_split] then holds the {e other} layout
    at the widest point (each point's JSON names its layout, so the
    contrast stays self-describing). *)

val ablation_volume : scale -> Cffs_util.Tablefmt.t
(** A9: spindles per volume — small-file read throughput vs drive count
    under group-aligned striping, with the meta-split contrast and the
    per-spindle busy-time spread.  The streams read files of exactly the
    grouping threshold (8 blocks) with no large stream, so the phase is
    data-dominated and every drive owns whole directories. *)

val run_statbench :
  ?policy:Cffs_cache.Cache.policy ->
  ?entries:int ->
  ?depth:int ->
  ?drives:int ->
  ?vol_layout:Cffs_volume.Volume.layout ->
  scale ->
  fs:Setup.fs_kind ->
  namei:Cffs_namei.Namei.config ->
  Cffs_workload.Statbench.result list * Cffs_obs.Registry.snapshot
(** One stat-heavy run on a fresh instance with a
    [scale.stat_cache_blocks]-block buffer cache (default write policy:
    the testbed's [Sync_metadata]), returning the per-phase results and
    the registry delta over the run.  [?entries] / [?depth] enable the
    optional namespace-scaling phases ({!Cffs_workload.Statbench.run}'s
    [bigdir_cold] / [deep_warm]); [?drives] / [?vol_layout] put the
    instance on a multi-spindle volume.  Un-indexed configurations (FFS,
    or C-FFS with [dirindex_threshold = 0]) clamp [entries] to the A8
    linear cap (10^5): a linear populate is quadratic and infeasible past
    it, so only the indexed configurations carry the full count. *)

val ablation_journal : scale -> Cffs_util.Tablefmt.t
(** A6: write-policy churn ablation — smallfile create/delete throughput
    and the multi-client small-file aggregate across all five write
    policies on full C-FFS, headlined by [journaled] (sequential log
    appends at sync-metadata crash safety). *)

val ablation_namei : scale -> Cffs_util.Tablefmt.t
(** A5: the dentry/attribute cache ({!Cffs_namei.Namei}, our extension)
    on/off across FFS, C-FFS (none) and C-FFS (EI+EG) under the
    stat-heavy workload — per-phase times, warm stat rate and namei hit
    rates. *)

(** A7 measurements: the online regrouper's recovery, one field set per
    layout (fresh / aged / aged-then-regrouped).  Residency is the layout
    introspector's whole-image group residency after planting an identical
    create-only probe tree on each layout (so the fresh row's residency is
    measured rather than assumed). *)
type regroup_recovery = {
  fresh_read_s : float;  (** smallfile cold-read files/s *)
  fresh_reqs_per_file : float;
  fresh_residency : float;
  aged_read_s : float;
  aged_reqs_per_file : float;
  aged_residency : float;
  regrouped_read_s : float;
  regrouped_reqs_per_file : float;
  regrouped_residency : float;
  regroup_outcome : Cffs_fsck.Regroup.outcome option;
      (** the last regrouping pass before the regrouped row was measured,
          with [moved] and [blocks_copied] summed over all the passes *)
  regroup_passes : int;  (** passes run to convergence (0 for no regrouping) *)
}

val regroup_recovery : scale -> regroup_recovery
(** Run the three A7 layouts and return the raw measurements (the recovery
    acceptance criterion — regrouped reads within ~10% of fresh, residency
    strictly increased — is asserted over this record by the test suite). *)

val ablation_regroup : scale -> Cffs_util.Tablefmt.t
(** A7: fresh vs aged vs aged+regrouped — group residency, smallfile read
    throughput (absolute and vs fresh) and the multi-client small-file
    aggregate. *)

val dirindex_cell :
  entries:int -> Cffs.config -> float * float * float * int * int
(** One A8 cell: populate a fresh C-FFS instance's single flat directory
    with [entries] empty files under the given config (behind a generous
    cache with delayed writeback, so the create/s column compares
    directory formats rather than eviction patterns), sync, then remount
    the same device behind a deliberately small 512-block cache and
    cold-stat a 200-name stride sample.  Returns
    [(create_per_sec, cold_stat_per_sec, device_read_requests_per_name,
      promotions, leaf_splits)]. *)

val ablation_dirindex : scale -> Cffs_util.Tablefmt.t
(** A8: hashed directory index — one flat directory per cell, linear
    ([dirindex_threshold = 0]) vs indexed (default config) over
    [scale.dirindex_entries].  Linear rows past 10^5 entries are omitted:
    a linear create scans the whole directory to prove the name absent,
    so populating is quadratic and a 10^6-entry linear populate is
    infeasible — which is itself the result. *)

val run_all : scale -> unit
(** Print every table above (E4 in both integrity modes). *)
