(** FFS directory-block format.

    A directory block is a packed sequence of variable-length entries:
    {v
      u32 ino | u16 reclen | u16 namelen | name (padded to 4 bytes)
    v}
    [reclen] always reaches the next entry (or the end of the block); an
    entry with [ino = 0] is free space.  Deletion coalesces an entry into its
    predecessor, exactly as in FFS — which is why repeated create/delete in a
    directory keeps rewriting the same blocks. *)

val header_bytes : int
val entry_bytes : string -> int
(** Space a live entry for this name needs (header + padded name). *)

val init_block : bytes -> unit
(** Make the whole block one free entry. *)

val iter : bytes -> (off:int -> ino:int -> string -> unit) -> unit
(** Visit live entries. *)

val fold : bytes -> init:'a -> f:('a -> ino:int -> string -> 'a) -> 'a

val locate : bytes -> string -> int
(** [locate block name] is the offset of [name]'s record, or [-1]; it
    allocates nothing. *)

val get_ino : bytes -> int -> int
(** The inode number of the record at an offset. *)

val find : bytes -> string -> (int * int) option
(** [find block name] is [Some (offset, ino)]. *)

val insert : bytes -> string -> int -> bool
(** [insert block name ino] places a new entry if the block has room
    (a sufficient free entry or slack behind a live one); [false] if not.
    The caller must ensure [name] is not already present. *)

val probe : bytes -> string -> [ `Hit of int * int | `Room of int | `Full ]
(** One walk of the chain: [`Hit (offset, ino)] as {!find} finds [name],
    else [`Room off], the first record {!insert} would place it in, or
    [`Full] when it would not fit. *)

val insert_at : bytes -> int -> string -> int -> unit
(** [insert_at block off name ino] places the entry in the record at
    [off], which {!probe} named as [`Room off]. *)

val remove : bytes -> string -> int option
(** Remove an entry, returning its inode number. *)

val set_ino : bytes -> int -> int -> unit
(** [set_ino block off ino] overwrites the inode field of the entry at
    [off] (used by rename). *)

val live_count : bytes -> int
