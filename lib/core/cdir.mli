(** C-FFS directory blocks: fixed 256-byte chunks with embedded inodes.

    Each directory block is divided into {!chunks_per_block} chunks.  A chunk
    holds one directory entry — the name {e and}, in the common case, the
    file's inode inline:

    {v
      off   0  u8   state (0 free, 1 in use, 2 overflow link)
      off   1  u8   namelen
      off   2  u16  flags (bit 0: inode embedded in this chunk)
      off   4  u32  ext_ino (external inode number when not embedded)
      off   8  ..   name (up to 119 bytes)
      off 128  ..   embedded inode (128 bytes)
    v}

    Because a chunk is 256 bytes and aligned, the name and its inode always
    share an aligned 512-byte disk sector — the property that lets C-FFS
    update the pair atomically and drop one of FFS's synchronous-write
    ordering constraints (paper §3.1, "Simplifying integrity maintenance").

    The embedded inode's number is positional:
    [Csb.embed_bit + block * chunks_per_block + chunk]. *)

val chunk_bytes : int
(** 256. *)

val max_name : int
(** 119. *)

val chunks_per_block : block_size:int -> int

val init_block : bytes -> unit
(** Mark every chunk free. *)

type entry = {
  chunk : int;
  name : string;
  embedded : bool;
  ext_ino : int;  (** meaningful when not embedded *)
}

val iter : bytes -> (entry -> unit) -> unit
val fold : bytes -> init:'a -> f:('a -> entry -> 'a) -> 'a
val locate : bytes -> string -> int
(** The chunk of the live entry named [name], or [-1]; allocates
    nothing. *)

val embedded : bytes -> int -> bool
(** Whether the live entry in a chunk carries its inode. *)

val ext_ino : bytes -> int -> int
(** The external inode number the live entry in a chunk carries ([0]
    when embedded). *)

val find : bytes -> string -> entry option
(** {!locate}, with the entry decoded. *)

val find_free : ?limit:int -> bytes -> int option
(** Index of a free chunk; [?limit] restricts the scan to chunks below it
    (indexed leaves reserve the last chunk for the overflow link). *)

val probe : bytes -> string -> [ `Hit of entry | `Room of int | `Full ]
(** {!find} and {!find_free} in one walk: [`Hit] as {!find} finds
    [name], else [`Room] with {!find_free}'s chunk, or [`Full]. *)

val state_free : int
val state_entry : int
val state_overflow : int

val state : bytes -> int -> int
(** Raw state byte of chunk [i]. *)

val live_count : bytes -> int

val chunk_off : int -> int
val inode_off : int -> int
(** Byte offset of chunk [i]'s embedded inode area. *)

val set_embedded : bytes -> int -> string -> Cffs_vfs.Inode.t -> unit
(** [set_embedded block chunk name inode] writes a live entry whose inode is
    inline. *)

val set_external : bytes -> int -> string -> int -> unit
(** [set_external block chunk name ino] writes a live entry referencing an
    external inode. *)

val clear : bytes -> int -> unit
(** Free a chunk (this destroys an embedded inode — which is exactly the
    single-write delete). *)

val set_overflow : bytes -> int -> next:int -> unit
(** Turn chunk [i] into an overflow link: state 2, with the physical block
    number of the bucket chain's next leaf at offset 4.  {!iter} and
    {!find} skip it; only an indexed directory's bucket walk follows it. *)

val get_overflow : bytes -> int -> int option
(** The next-leaf block an overflow-link chunk points to, if chunk [i] is
    one. *)

val read_inode : bytes -> int -> Cffs_vfs.Inode.t
val write_inode : bytes -> int -> Cffs_vfs.Inode.t -> unit
