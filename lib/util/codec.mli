(** Little-endian integer and string codecs over [bytes].

    On-disk structures (superblocks, inodes, directory entries, group
    descriptors) are serialised through this module so layout code reads as a
    sequence of typed puts/gets. *)

val get_u8 : bytes -> int -> int
val set_u8 : bytes -> int -> int -> unit
val get_u16 : bytes -> int -> int
val set_u16 : bytes -> int -> int -> unit
val get_u32 : bytes -> int -> int
(** 32-bit value as a non-negative OCaml [int]. *)

val set_u32 : bytes -> int -> int -> unit
val get_u64 : bytes -> int -> int
(** 64-bit value truncated to OCaml [int] (63 bits — ample for simulated
    disks). *)

val set_u64 : bytes -> int -> int -> unit

val get_string : bytes -> int -> int -> string
(** [get_string b off len] reads [len] raw bytes. *)

val set_string : bytes -> int -> string -> unit

val equal_string : bytes -> int -> string -> bool
(** [equal_string b off s] is [get_string b off (String.length s) = s],
    compared in place: it allocates nothing, and is [false] when the
    range runs outside [b]. *)

val get_cstring : bytes -> int -> int -> string
(** [get_cstring b off max] reads up to [max] bytes, stopping at NUL. *)

val set_cstring : bytes -> int -> int -> string -> unit
(** [set_cstring b off max s] writes [s] NUL-padded into a [max]-byte field.
    Raises [Invalid_argument] if [s] is longer than [max]. *)

val zero : bytes -> int -> int -> unit
(** [zero b off len] clears a range. *)
