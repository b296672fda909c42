(** On-disk inode: the 128-byte record both file systems use.

    Layout (little-endian), 128 bytes:
    {v
      off  0  u16  kind        (0 free, 1 regular, 2 directory)
      off  2  u16  nlink
      off  4  u64  size        (bytes)
      off 12  u32  mtime       (simulated seconds)
      off 16  u32  generation
      off 20  u32  flags
      off 24  u32  direct[12]  (block numbers; 0 = hole)
      off 72  u32  indirect
      off 76  u32  dindirect
      off 80  u32  spare[4]   (file-system specific; C-FFS keeps its
                               active group-frame hints here)
      off 96  ..   reserved
    v} *)

type kind = Free | Regular | Directory

type t = {
  mutable kind : kind;
  mutable nlink : int;
  mutable size : int;
  mutable mtime : int;
  mutable generation : int;
  mutable flags : int;
  direct : int array;  (** always {!n_direct} entries *)
  mutable indirect : int;
  mutable dindirect : int;
  spare : int array;  (** always {!n_spare} entries *)
}

val n_direct : int
(** 12, as in FFS. *)

val n_spare : int
(** 4. *)

val size_bytes : int
(** 128. *)

val link_max : int
(** 65000: the most links a file may have ([EMLINK] past it), well
    below where the u16 [nlink] field wraps. *)

val empty : unit -> t
(** A fresh free inode. *)

val mk : kind -> t
(** A fresh allocated inode of the given kind with [nlink = 1]
    ([2] for directories, counting ["."]). *)

val kind_code : kind -> int
val kind_of_code : int -> kind option

val encode : t -> bytes -> int -> unit
(** [encode ino b off] serialises into [b] at [off]. *)

val decode : bytes -> int -> t
(** [decode b off] deserialises; unknown kind codes decode as [Free]. *)

val same : t -> bytes -> int -> bool
(** [same t b off] is [decode b off = t] (structural equality), and
    allocates nothing. *)

(** A mount's in-core inode table: a fixed, direct-mapped map from inode
    number to the record last decoded for it.  Coherence comes from the
    bytes: nothing invalidates an entry, and every lookup re-checks the
    record against the block the caller just read.  A record is shared
    with later readers of the same inode for as long as it matches its
    block; a writer mutates it and then writes it back, which makes it
    match again, and a record mutated but never written no longer
    matches, so the next read decodes afresh. *)
module Table : sig
  type inode := t
  type t

  val slots : int
  (** 64. *)

  val create : unit -> t

  val decode : t -> int -> bytes -> int -> inode
  (** [decode tbl ino b off] is [ino]'s record from [b] at [off]: the
      table's record when it is [same] as the bytes, else a fresh
      decode that replaces the slot. *)
end

val copy : t -> t

val max_addressable_blocks : ptrs_per_block:int -> int
(** How many data blocks the direct + indirect + double-indirect map covers
    when an indirect block holds [ptrs_per_block] pointers. *)

val pp : Format.formatter -> t -> unit
