(** Crash-safe online regrouper: incremental group compaction.

    Walks the namespace the way the layout introspector does, selects
    {e broken} small files — regular files of at most [group_file_blocks]
    blocks whose data is not wholly inside one group frame — and migrates
    their blocks back into frames with C-FFS's copy-forward-then-switch
    move protocol ({!Cffs.regroup_prepare} / [commit] / [finish]).  The
    pass imposes the barrier discipline the mounted write policy needs:

    - [Journaled]: a whole batch (claims, copies, pointer switches, frees)
      commits as one logged transaction at a single sync, so every crash
      prefix replays to entirely-old or entirely-new layout;
    - otherwise: sync after the copies (data durable before any pointer
      names it), sync after the switches (each one sector-atomic), and
      only then free the sources.  A crash can leak claimed destination
      blocks, which fsck repair reclaims; no file is ever torn.

    Robustness: a source block that fails persistently mid-copy skips just
    that file (counted in [skipped_io]; the claimed destinations are
    released); a file no frame can host is counted ([no_room]) and left
    for a later pass, and a pass in which {e nothing} fit ends cleanly as
    [No_space] with the image fsck-clean;
    the cursor file ({!cursor_path}) records the last completed directory
    so a crashed or budget-capped pass resumes instead of restarting.
    Files move in barrier groups of 8.  Source reads are prefetched
    through the async ioqueue four runs per drain, bounding the
    regrouper's share of the device queue so foreground traffic
    interleaves.  Registry counters live under [regroup.*]. *)

type spec = {
  max_moves : int option;  (** stop after this many file moves *)
  measure : bool;
      (** run the layout introspector before and after the pass to fill
          [residency_before]/[residency_after] (default on; tests and
          harnesses that crash mid-pass turn it off) *)
}

val default_spec : spec

val cursor_path : string
(** ["/.regroup"]: the checkpoint file (last completed directory path).
    Present only while a pass is incomplete; never itself regrouped. *)

type status =
  | Completed  (** full pass; cursor removed *)
  | Move_budget  (** [max_moves] reached; cursor kept for resumption *)
  | No_space
      (** clean ENOSPC end: broken files existed but not one could be
          placed; cursor kept *)

type outcome = {
  status : status;
  resumed : bool;  (** the pass continued from an existing cursor *)
  dirs_walked : int;
  scanned : int;  (** small-file candidates examined *)
  broken : int;  (** of those, not wholly inside one frame *)
  moved : int;  (** files migrated *)
  blocks_copied : int;
  skipped_io : int;  (** files skipped on a persistent source-read fault *)
  no_room : int;  (** broken files no frame could host (left for later) *)
  ineligible : int;  (** candidates the move protocol does not cover *)
  residency_before : float;  (** [Layout] group residency, when measured *)
  residency_after : float;
}

val run : ?spec:spec -> Cffs.t -> outcome
(** One regrouping pass over the whole namespace (resuming from the
    cursor if one exists).  Ends with a {!Cffs.sync}; on [Completed] the
    cursor file is gone and the image is fsck-clean. *)

val status_name : status -> string
val to_json : outcome -> Cffs_obs.Json.t
val pp : Format.formatter -> outcome -> unit
val to_string : outcome -> string
