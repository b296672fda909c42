(** The namespace subsystem: a hash-indexed dentry cache (positive and
    negative entries, bounded LRU) and an attribute cache keyed by inode,
    interposed between {!Cffs_vfs.Pathfs} and a file system's LOW layer.

    The point, per the paper: one directory read delivers every embedded
    inode the directory names — {!Make}'s [readdir_plus] hook warms both
    caches from that single read, so the [ls -l] / repeated-[stat] shapes
    stop paying a directory walk per name.

    Coherence rules (the hard part — see DESIGN.md §13): every namespace
    or attribute mutation invalidates before its result is observable;
    rename performs a whole-directory epoch bump on both directories
    (embedded inode numbers are positional, so rename renumbers the moved
    inode); hardlink flushes (externalization renumbers a file named
    elsewhere); remount flushes (a cached entry never outlives the
    on-disk truth it mirrors). *)

type config = {
  enabled : bool;
  capacity : int;  (** max dentry entries, positive + negative together *)
  attr_capacity : int;  (** max attribute entries *)
  negative : bool;  (** cache failed lookups (ENOENT) *)
}

val config_default : config
(** Enabled, 4096 dentries, 4096 attrs, negative caching on. *)

val config_disabled : config

(** Per-mount cache state.  Create one per file-system instance and hand
    it to {!Make} via [SOURCE.namei]; two mounts never share entries. *)
type t

val create : ?config:config -> unit -> t
val config : t -> config
val enabled : t -> bool

val dentry_count : t -> int
(** Live dentry entries (positive + negative); never exceeds
    [config.capacity]. *)

val attr_count : t -> int
(** Live attribute entries; never exceeds [config.attr_capacity]. *)

val shortcut_count : t -> int
(** Live full-path shortcut entries (see {!Resolver}); never exceeds
    [config.capacity]. *)

val flush : t -> unit
(** Drop everything (remount, fsck repair, externalization). *)

type state = t

module type SOURCE = sig
  include Cffs_vfs.Fs_intf.LOW

  val namei : t -> state
  (** The mount's cache state (so two instances never share entries). *)
end

module Make (F : SOURCE) : SOURCE with type t = F.t
(** The caching interposer.  [lookup] and [stat_ino] are served from the
    caches ([namei.dentry_hits] / [namei.attr_hits] / ...); failed
    lookups insert negative entries; [readdir] and [readdir_plus] warm
    the caches; every mutation invalidates as described above.  The
    result carries [F.namei] on, so {!Resolver} can walk through it. *)

module Resolver (F : SOURCE) : Cffs_vfs.Pathfs.RESOLVER with type t = F.t
(** The full-path shortcut cache, for {!Cffs_vfs.Pathfs.MakeWith}: whole
    resolutions keyed by the canonical path, validated against
    per-directory namespace generations recorded at insert (any create,
    remove or rename in any directory the walk passed through
    invalidates the shortcut — [namei.shortcut_stale]).  Hits skip the
    component walk entirely ([namei.shortcut_hits] /
    [namei.shortcut_negative_hits]); misses walk through [F.lookup] and
    so still benefit from the dentry cache.  Negative shortcuts are
    cached only for ENOENT at the final component, gated by
    [config.negative]. *)
