(** Monomorphic hash keys for block-keyed tables.

    The polymorphic [Hashtbl] hashes through [caml_hash] and compares with
    [compare_val]; on the cache and device paths, where every block access
    is a lookup, those two calls were a large share of host time.  These
    keys compare inline and hash with an integer mix.

    The mix matters: [Hashtbl] keeps only the low bits of a hash (a
    power-of-two bucket mask), so [hash x = x] would send block numbers
    that share a stride, or a high offset such as an embedded inode
    number's [2^40] bit, to very few buckets. *)

module Int : Hashtbl.HashedType with type t = int

val pair_hash : int -> int -> int
(** The hash of a pair of ints, e.g. an [(ino, lblk)] identity. *)

module Int_tbl : Hashtbl.S with type key = int

(** A map from a pair of ints to a non-negative int, e.g. from a file
    block's [(ino, lblk)] identity to the physical block caching it.  The
    pair is kept two ints rather than packed into one: embedded inode
    numbers start at [2^40], so packing would overflow 63 bits and alias
    distinct keys.  It is also never a tuple: no lookup, insert or removal
    allocates (growing the table does).  The first key must not be
    [min_int]. *)
module Pair_tbl : sig
  type t

  val create : int -> t
  (** A table sized for about [n] bindings; it grows as needed. *)

  val length : t -> int

  val find : t -> int -> int -> int
  (** [find t a b] is the value bound to [(a, b)], or [-1]. *)

  val replace : t -> int -> int -> int -> unit
  val remove : t -> int -> int -> unit

  val reset : t -> unit
  (** Empty the table and shrink it to its initial size. *)
end
