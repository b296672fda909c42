(** The path-level stack every file system in this repo exports:

    {v Pathfs (path ops, full-path shortcut cache)
         -> Namei (dentry / attribute caches)
           -> Obs_low (spans, latency attribution, EIO mapping)
             -> the file system's raw inode operations v}

    Callers see the inode operations through the namei layer — a direct
    mutation must not leave a stale cache entry behind — and [label],
    [root], [data_runs], [sync] and [usage] as the raw, uninstrumented
    functions. *)

module type SOURCE = sig
  include Cffs_vfs.Obs_low.SOURCE

  val namei : t -> Namei.t
  (** The mount's cache state. *)
end

module Make (F : SOURCE) : Cffs_vfs.Fs_intf.S with type t := F.t
