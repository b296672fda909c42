(** Cylinder-group bitmap allocation, shared by both file systems: FFS
    allocates its data blocks and its inodes through it, C-FFS its blocks.

    A {!map} numbers one kind of object across the cylinder groups: group
    [g] owns the [per_group] consecutive numbers from
    [origin + g * per_group], and its header block keeps one bit per
    number (a set bit is allocated; see {!Cffs_util.Bitview}) and a
    32-bit free count.  The bits below [first] in every group stand for
    the group's own metadata: they are set at format time and never
    handed out.

    The buffer-level functions edit a header the caller has read; {!Make}
    adds the probe over groups, with the file system reading and writing
    its own headers (C-FFS reads them through its replicas). *)

type map

val map :
  bitmap:int -> free:int -> origin:int -> per_group:int -> groups:int -> first:int -> map
(** [bitmap] and [free] are the byte offsets of the bitmap and the free
    count inside a header block. *)

val group : map -> int -> int
(** The group that owns a number. *)

val start : map -> int -> int
(** The first number group [g] owns. *)

val format : map -> bytes -> unit
(** Initialise a zeroed header for this map: the [first] metadata bits
    set, every other number free. *)

val free_count : map -> bytes -> int

val mem : map -> bytes -> int -> bool
(** [mem m b i]: is index [i] of the group whose header is [b] allocated? *)

val claim : map -> bytes -> int -> unit
(** Mark a known-free index allocated. *)

val probe : map -> cg:int -> (int -> 'a option) -> 'a option
(** [probe m ~cg f] is the first [Some] that [f] returns for the groups
    [cg], [cg + 1], ... (wrapping), or [None] after every group. *)

(** Header access for one mounted file system. *)
module type HEADERS = sig
  type t

  val read : t -> int -> bytes
  (** The header block of a group, as the cache's buffer. *)

  val write : t -> int -> bytes -> unit
  (** Record a modified header. *)
end

module Make (H : HEADERS) : sig
  val take_near : H.t -> map -> cg:int -> hint:int -> int option
  (** Allocate a number, trying group [cg] first from [hint] (a number
      that group owns, else its first free index from [first]) and then
      every other group from [first]; [None] when all are full. *)

  val release : H.t -> map -> int -> unit
  (** Free a number; releasing a free number changes nothing. *)

  val claim : H.t -> map -> int -> unit
  (** Allocate a specific number that is known to be free. *)
end
