(** In-place bit maps inside a byte buffer: the block and inode allocation
    maps stored in cylinder-group header blocks.  The map at byte offset
    [base] keeps bit [i] in bit [i land 7] of byte [base + i lsr 3] (the
    on-disk order); a set bit means "allocated". *)

val get : bytes -> int -> int -> bool
(** [get b base i] is bit [i] of the map at [base]. *)

val set : bytes -> int -> int -> unit
val clear : bytes -> int -> int -> unit

val find_clear : bytes -> int -> len:int -> hint:int -> int option
(** First clear bit among the map's [len] bits, scanning circularly from
    [hint mod len].  Whole allocated bytes are stepped over at once. *)
