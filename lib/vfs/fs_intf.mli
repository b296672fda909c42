(** The file-system interfaces.

    {!LOW} is what a concrete file system implements (inode-level
    operations); {!Pathfs.MakeWith}, inside the one stack lib/namei's
    [Stack.Make] builds for every file system, lifts it to the path-based
    {!S} that workloads, examples and benchmarks program against, so every
    workload runs unchanged on FFS and on any C-FFS configuration. *)

type stat = {
  st_ino : int;
  st_kind : Inode.kind;
  st_size : int;
  st_nlink : int;
  st_blocks : int;  (** allocated data blocks (including indirect blocks) *)
}

type fs_usage = {
  total_blocks : int;
  free_blocks : int;
  total_inodes : int;  (** 0 when inodes are dynamically allocated *)
  free_inodes : int;
}

exception Too_small of { need_blocks : int; have_blocks : int }
(** Raised by a file system's [format] when the blocks it is given
    ([have_blocks]) cannot hold one cylinder group; [need_blocks] is the
    least that can. *)

module type LOW = sig
  type t

  val label : t -> string
  (** Human-readable configuration name, e.g. ["C-FFS (EI+EG)"]. *)

  val root : t -> int
  (** Inode number of the root directory. *)

  val lookup : t -> dir:int -> string -> int Errno.result
  val mknod : t -> dir:int -> string -> Inode.kind -> int Errno.result
  val remove : t -> dir:int -> string -> rmdir:bool -> unit Errno.result
  val hardlink : t -> dir:int -> string -> ino:int -> unit Errno.result
  val rename : t -> sdir:int -> sname:string -> ddir:int -> dname:string -> unit Errno.result
  val readdir : t -> dir:int -> (string * int) list Errno.result

  val readdir_plus : t -> dir:int -> (string * stat) list Errno.result
  (** Names together with the attributes of the inodes they name, in one
      pass over the directory.  With embedded inodes the stats are decoded
      straight out of the directory blocks (one directory read delivers
      them all, the paper's §3.1 claim); with external inodes each entry
      costs an inode fetch — the asymmetry the stat-heavy benchmark
      exposes. *)

  val stat_ino : t -> int -> stat Errno.result
  val read_ino : t -> ino:int -> off:int -> len:int -> bytes Errno.result
  val write_ino : t -> ino:int -> off:int -> bytes -> unit Errno.result
  val truncate_ino : t -> ino:int -> size:int -> unit Errno.result

  val data_runs : t -> ino:int -> (int * int) list Errno.result
  (** The file's data blocks as physically contiguous [(start, nblocks)]
      runs, in logical order (holes omitted; [Eisdir] on directories).
      This is the map a prefetcher needs to turn one file into a handful
      of large tagged reads. *)

  val sync : t -> unit
  (** Push all delayed writes to the device. *)

  val remount : t -> unit
  (** [sync], then drop all in-memory caches (cold-cache point). *)

  val usage : t -> fs_usage
end

(** Path-based interface: all paths are absolute, ["/"]-separated. *)
module type S = sig
  include LOW

  val resolve : t -> string -> int Errno.result
  val create : t -> string -> unit Errno.result
  val mkdir : t -> string -> unit Errno.result
  val mkdir_p : t -> string -> unit Errno.result
  val unlink : t -> string -> unit Errno.result
  val rmdir : t -> string -> unit Errno.result
  val link : t -> existing:string -> target:string -> unit Errno.result
  val rename_path : t -> src:string -> dst:string -> unit Errno.result
  val stat : t -> string -> stat Errno.result
  val exists : t -> string -> bool
  val truncate : t -> string -> int -> unit Errno.result
  (** Set a file's size: shrinking frees blocks past the new end and zeroes
      the cut tail; growing extends with a hole. *)

  val read : t -> string -> off:int -> len:int -> bytes Errno.result
  val write : t -> string -> off:int -> bytes -> unit Errno.result

  val file_runs : t -> string -> (int * int) list Errno.result
  (** {!LOW.data_runs} by path: the physically contiguous block runs
      backing a file, for batched prefetch. *)

  val read_file : t -> string -> bytes Errno.result
  val write_file : t -> string -> bytes -> unit Errno.result
  (** Create (if needed), truncate, write. *)

  val append_file : t -> string -> bytes -> unit Errno.result
  val list_dir : t -> string -> string list Errno.result
  (** Names only, sorted, ["."]/[".."] excluded. *)

  val list_dir_plus : t -> string -> (string * stat) list Errno.result
  (** {!LOW.readdir_plus} by path: names with their attributes, sorted,
      ["."]/[".."] excluded — the [ls -l] shape. *)
end

(** A file system packaged with its state, so heterogeneous configurations
    can sit in one list. *)
type packed = Packed : (module S with type t = 'a) * 'a -> packed

val packed_label : packed -> string
