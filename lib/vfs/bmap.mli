(** Logical-to-physical block mapping shared by both file systems:
    12 direct pointers, one single-indirect and one double-indirect block
    (pointers are 4-byte block numbers; 0 is a hole).

    Pointer-block updates are issued as delayed ([`Data]) writes — both FFS
    and C-FFS delay file-growth metadata; only namespace updates are
    synchronous. *)

val reach : Cffs_cache.Cache.t -> int
(** How many logical blocks the map covers. *)

val find : Cffs_cache.Cache.t -> Inode.t -> int -> int
(** [find cache inode lblk] is the physical block, [0] for a hole, [-1]
    when [lblk] is negative or past the map's reach.  It allocates
    nothing. *)

val unmapped_error : int -> Errno.t
(** What {!read} answers for an [lblk] {!find} puts outside the map:
    [Einval] when negative, else [Efbig]. *)

val read :
  Cffs_cache.Cache.t -> Inode.t -> int -> int option Errno.result
(** {!find} as a result: [Ok None] for a hole, [Error Efbig] past the
    map's reach. *)

val alloc :
  Cffs_cache.Cache.t ->
  Inode.t ->
  int ->
  alloc:(hint:int -> int Errno.result) ->
  int Errno.result
(** [alloc cache inode lblk ~alloc] maps [lblk], calling [alloc] (with a
    hint of one past the file's last mapped block, or [0]) for every data or
    indirect block needed.  Mutates [inode]; the caller persists it. *)

val last_hint : Cffs_cache.Cache.t -> Inode.t -> int -> int
(** One past the physical address of the last mapped block before [lblk]
    (for allocation contiguity); [0] if none. *)

val shrink :
  Cffs_cache.Cache.t -> Inode.t -> keep_blocks:int -> free:(int -> unit) -> unit
(** [shrink cache inode ~keep_blocks ~free] unmaps every data block at
    logical index [>= keep_blocks], calling [free] on each released data and
    indirect block, and clears the corresponding pointers (mutating
    [inode]; the caller persists it). *)

val iter :
  Cffs_cache.Cache.t ->
  Inode.t ->
  data:(int -> unit) ->
  meta:(int -> unit) ->
  unit
(** Visit every allocated block: [data] for data blocks, [meta] for
    indirect blocks. *)

val count : Cffs_cache.Cache.t -> Inode.t -> int
(** Total allocated blocks (data + indirect). *)

val punch : Cffs_cache.Cache.t -> Inode.t -> target:int -> bool
(** [punch cache inode ~target] clears the first data pointer equal to
    [target], leaving a hole, and returns whether one was found.  Direct
    pointers mutate [inode] (the caller persists it); indirect-block
    updates are written through the cache.  Fsck uses this to repair
    doubly-claimed blocks by punching the later claimant. *)
