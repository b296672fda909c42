(** C-FFS directory operations: find, the create probe, insert (growing
    the directory, or promoting it to the hashed index), enumeration and
    entry removal, over either the linear format a mount picks or a
    {!Dirindex}.  The file system supplies {!FS}: the index's seam plus
    its directory block walk. *)

type format
(** A linear directory block format: {!Cdir} chunks, or dense
    {!Ffs.Dirent} records naming external inodes. *)

val format : embed_inodes:bool -> format

val max_name : format -> int
(** The longest name the format stores. *)

type found = {
  f_pblock : int;  (** the block holding the entry *)
  f_ino : int;
  f_embedded : bool;
  f_chunk : int;  (** chunk format only *)
}

(** What a new entry carries: an inode to embed, or an external inode's
    number. *)
type carried = Embed of Cffs_vfs.Inode.t | Ext of int

module type FS = sig
  include Dirindex.FS

  val format : t -> format
  (** The mount's linear format. *)

  val embed_ino : t -> pblock:int -> chunk:int -> int
  (** The positional number of the inode embedded in a chunk. *)

  val mapped : t -> Cffs_vfs.Inode.t -> int -> int Cffs_vfs.Errno.result
  (** {!Cffs_vfs.Filedata.Make}'s walk helpers. *)

  val dir_block :
    t -> ino:int -> Cffs_vfs.Inode.t -> int -> (int * bytes) Cffs_vfs.Errno.result

  val dir_scan :
    t ->
    ino:int ->
    Cffs_vfs.Inode.t ->
    (lblk:int -> bytes -> 'a option) ->
    'a option Cffs_vfs.Errno.result

  val dir_probe :
    t ->
    ino:int ->
    Cffs_vfs.Inode.t ->
    (bytes -> [< `Hit of 'a | `Room of int | `Full ]) ->
    [ `Found of int * 'a | `Absent of (int * int) option ] Cffs_vfs.Errno.result
end

module Make (F : FS) : sig
  module Index : module type of Dirindex.Make (F)

  val find : F.t -> dir:int -> Cffs_vfs.Inode.t -> string -> found option Cffs_vfs.Errno.result

  val probe :
    F.t ->
    dir:int ->
    Cffs_vfs.Inode.t ->
    string ->
    [ `Found of found | `Absent of (int * int) option ] Cffs_vfs.Errno.result
  (** A create's one pass: the entry already named, or the first place
      that takes the name ([None] when the directory must grow, and
      always for an indexed directory).  It only reads. *)

  val slot :
    F.t -> dir:int -> Cffs_vfs.Inode.t -> string -> (int * int) option Cffs_vfs.Errno.result
  (** {!probe}, with [Eexist] for a name already present. *)

  val add :
    F.t ->
    dir:int ->
    Cffs_vfs.Inode.t ->
    (int * int) option ->
    string ->
    carried ->
    after:int option ->
    subdir:bool ->
    (int * int) Cffs_vfs.Errno.result
  (** Write the entry into the slot {!slot} found, growing or promoting
      the directory when there is none; [after] must reach the disk
      first, and [subdir] counts a new subdirectory's link.  Returns the
      entry's block and chunk. *)

  val walk :
    F.t ->
    dir:int ->
    Cffs_vfs.Inode.t ->
    (pblock:int -> bytes -> Cdir.entry -> unit) ->
    unit Cffs_vfs.Errno.result
  (** Every live entry with its block (indexed or linear); a dense
      format's entries name external inodes and get [pblock] 0. *)

  val entries : F.t -> dir:int -> Cffs_vfs.Inode.t -> (string * int) list Cffs_vfs.Errno.result

  val live_entries : F.t -> dir:int -> Cffs_vfs.Inode.t -> int Cffs_vfs.Errno.result
  (** {!walk}, counting. *)

  val clear : F.t -> found -> string -> bytes
  (** Remove a found entry in one block write; returns the block. *)
end
