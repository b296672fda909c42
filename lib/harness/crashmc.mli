(** Crash model checker: the harness behind [cffs_cli crashtest].

    Runs a deterministic create/write/delete small-file workload against a
    memory-backed device with a {!Cffs_blockdev.Faultdev} journal attached,
    samples crash points (power cut at a write-request boundary, plus torn
    variants of multi-sector boundary requests), materializes each crashed
    image, remounts it, runs fsck check → repair → check → repair, and
    asserts:

    - {b embedded-inode integrity} — no dangling directory entry ever names
      an embedded inode, at any crash point (the paper's §3.1 claim: a
      name and its inode share one sector-atomic directory chunk);
    - {b fsck convergence} — the post-repair check is clean and a second
      repair fixes nothing, on every crashed image;
    - {b mountability} — every crash prefix yields a mountable image;
    - {b durability} — every file synced before the crash point reads back
      byte-identical after repair, and a C-FFS image that carries an
      integrity layer scrubs ({!Cffs_fsck.Scrub.run_to_completion}) with
      no block lost.  If the sweep's base image carries an integrity
      layer, every crash image must attach one; a volume formatted
      without one is not scrubbed.

    FFS under [Delayed] metadata is {e expected} to produce dangling
    entries (the baseline failure mode the embedded layout eliminates);
    these are counted but are not violations — fsck must still repair
    them.

    [Journaled] is held to a stronger standard: mount-time replay alone —
    no repair — must land every crash prefix on a perfectly clean state
    (the pre-repair check reports {e zero} problems of any kind) with all
    acknowledged syncs intact; any pre-repair finding counts as a
    violation. *)

type fs_sel = Ffs_sel | Cffs_sel

val fs_label : fs_sel -> string
val policy_label : Cffs_cache.Cache.policy -> string

val all_policies : Cffs_cache.Cache.policy list

type outcome = {
  fs : fs_sel;
  policy : Cffs_cache.Cache.policy;
  points : int;  (** crash images explored, torn variants included *)
  torn_points : int;
  journal_entries : int;  (** write requests the fault-free run persisted *)
  dangling_states : int;  (** images whose first check found a dangling entry *)
  embedded_dangles : int;  (** dangling entries naming an embedded inode *)
  dup_states : int;  (** images with a doubly-claimed block *)
  unmountable : int;
  unconverged : int;
  unclean_states : int;
      (** images whose pre-repair check reported any problem at all; a
          violation under [Journaled] only *)
  durability_failures : int;
      (** synced files lost, plus images whose scrub lost a block or
          that lost the base image's integrity layer *)
  dir_errors : int;
      (** duplicate or dangling names seen by the pre-repair enumeration
          of the watched directory ({!run_dirindex} only); always a
          violation *)
  repairs : int;  (** problems repaired, summed over images *)
  durable_reads : int;  (** synced files verified, summed over images *)
  violations : string list;  (** human-readable notes, capped *)
}

val run_config : ?seed:int -> ?points:int -> fs_sel -> Cffs_cache.Cache.policy -> outcome
(** Run the workload once under the given configuration and explore up to
    [points] request-boundary crash images plus up to [points / 4] torn
    variants of multi-sector boundary requests (defaults: 200 points,
    seed 1). *)

val run_regroup : ?seed:int -> ?points:int -> Cffs_cache.Cache.policy -> outcome
(** The regroup phase: age a C-FFS image with create/delete churn, sync,
    snapshot every file, then power-cut at sampled request boundaries
    (plus torn variants) {e while an online regroup pass}
    ({!Cffs_fsck.Regroup}) compacts it.  Every snapshot file was
    acknowledged before the pass began, so at {e every} crash prefix the
    whole tree must read back byte-identical (each file wholly old or
    wholly new layout — the copy-forward-then-switch guarantee), the image
    must mount, and fsck must converge; under [Journaled] every prefix
    must additionally be clean before any repair, and since that volume is
    formatted with an integrity layer, every image is scrubbed too.
    Raises [Failure] if the
    scenario itself is vacuous (the pass moved nothing) or the pass failed
    to raise group residency on the live image. *)

val dirindex_matrix : Cffs_cache.Cache.policy list
(** The policies the dirindex phase covers: [Sync_metadata],
    [Soft_updates] and [Journaled].  [Delayed] is excluded — it makes no
    intra-operation ordering promise, so a crash may legitimately land a
    table pointer before the leaf it names. *)

val run_dirindex :
  ?seed:int -> ?points:int -> Cffs_cache.Cache.policy -> outcome
(** The dirindex phase: format C-FFS with a low promotion threshold,
    grow one directory past promotion, sync, then power-cut at sampled
    request boundaries (plus torn variants) {e while a create burst
    splits its leaves}.  At every crash prefix the image must mount, the
    directory must enumerate duplicate-free with every listed name
    answering a stat ([dir_errors] counts failures — the split
    protocol's new-leaf-before-table-switch-before-cleanup ordering),
    every pre-burst file must read back byte-identical, and fsck must
    converge; under [Journaled] every prefix must additionally be clean
    before any repair.  Raises [Failure] if the scenario is vacuous (the
    directory never promoted or the burst forced no leaf split). *)

val run_dirindex_switch :
  ?seed:int -> ?points:int -> [ `Promote | `Demote ] -> Cffs_cache.Cache.policy -> outcome
(** The switch phase: grow a directory under a low promotion threshold,
    sync, then power-cut at sampled request boundaries (plus torn
    variants) of the one operation that switches its format: the create
    that promotes it to the index, or the unlink that demotes it back to
    linear pages.  Every prefix must mount, enumerate the directory
    duplicate-free with every listed name answering a stat, read back
    every file synced before the operation, and converge under fsck;
    under [Journaled] it must also be clean before any repair.  Raises
    [Failure] if [dirindex.promotions] (resp. [dirindex.demotions]) did
    not move while the journal was attached. *)

val run_checkpoint : unit -> outcome
(** The checkpoint phase, under [Journaled] on an integrity-formatted
    volume: acknowledge 24 two-KB files (every fifth unlinked again), sync,
    then power-cut at up to 200 request boundaries (plus torn variants),
    sampled from a fixed seed, of a journal checkpoint and of a second, create-only batch of 12 files
    and its sync.  Every first-batch file must read back at every prefix,
    the second batch once its sync is on the media; every image must
    replay clean and scrub with no loss.  Not part of {!document}. *)

val default_matrix : (fs_sel * Cffs_cache.Cache.policy) list
(** Both file systems under every cache policy. *)

val run :
  ?seed:int ->
  ?points:int ->
  ?matrix:(fs_sel * Cffs_cache.Cache.policy) list ->
  unit ->
  outcome list

val total_violations : outcome list -> int
(** Embedded dangles + unmountable + unconverged + durability failures +
    directory-enumeration errors, plus (under [Journaled]) unclean
    pre-repair states. *)

val fault_drill : unit -> unit
(** Exercise the live error path (transient read retries, a sticky bad
    sector) so retry and io-error counters appear in the registry. *)

val document :
  ?seed:int ->
  ?points:int ->
  ?matrix:(fs_sel * Cffs_cache.Cache.policy) list ->
  unit ->
  Cffs_obs.Json.t
(** Matrix run (default: the full matrix) plus the regroup phase
    ({!run_regroup} under [Journaled] and [Sync_metadata]) plus the
    dirindex phase ({!run_dirindex} over {!dirindex_matrix}) plus
    {!fault_drill}, packaged as a [cffs-telemetry-v2] document with
    benchmark ["crashtest"]. *)

val print_human :
  ?seed:int ->
  ?points:int ->
  ?matrix:(fs_sel * Cffs_cache.Cache.policy) list ->
  unit ->
  unit
(** Table on stdout; exits non-zero if any invariant was violated. *)
