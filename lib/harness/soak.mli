(** Self-healing soak: sustained faults against an integrity-formatted
    C-FFS volume, asserting zero acknowledged-data loss.

    Each round creates small files, marks sticky bad sectors (one under a
    freshly written file — its writeback must remap — and several on
    blocks carrying no acknowledged data), syncs (acknowledging the
    round's writes and bounding the fault journal with a barrier), then
    corrupts one replicated-metadata block — the primary on even rounds
    (the next access must degrade to the replica), the replica on odd
    rounds (the final scrub must refresh it) — and byte-verifies every
    acknowledged file.  Transient read faults fire throughout at
    [transient_rate].

    The run ends with a scrub to convergence, a post-scrub verify, and a
    cold remount of the materialized media (remap table, replicas and
    checksum region reloaded from disk) with a final verify.

    Violations are collected, not raised: an empty [violations] list is
    the pass condition.  Everything is deterministic in [seed].

    Power cuts through a journal checkpoint or a regroup pass on an
    integrity-formatted volume are crash sweeps, so they live in
    {!Crashmc} ({!Crashmc.run_checkpoint}, {!Crashmc.run_regroup}). *)

type outcome = {
  rounds : int;
  files_acknowledged : int;  (** model files alive at the end *)
  reads_verified : int;  (** byte-compared reads over the whole run *)
  bad_sectors_marked : int;
  corruptions_injected : int;  (** metadata primaries/replicas damaged *)
  checksum_failures : int;  (** [integrity.checksum_failures] delta *)
  remaps : int;  (** [integrity.remaps] delta *)
  degraded_reads : int;  (** [integrity.degraded_reads] delta *)
  scrub_lost : int;  (** blocks the final scrub could not recover *)
  max_journal_entries : int;  (** in-memory fault-journal high-water mark *)
  violations : string list;
}

val run :
  ?seed:int ->
  ?rounds:int ->
  ?files_per_round:int ->
  ?file_bytes:int ->
  ?transient_rate:float ->
  ?bad_per_round:int ->
  unit ->
  outcome
(** Defaults: seed 42, 6 rounds of 40 one-KB files, transient read rate
    1e-3, 3 random bad sectors per round (plus the one forced under a
    live file). *)

val pp : Format.formatter -> outcome -> unit
val to_string : outcome -> string
