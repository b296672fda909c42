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

module Pair : Hashtbl.HashedType with type t = int * int
(** A pair of ints, e.g. an [(ino, lblk)] identity.  Kept a pair rather
    than packed into one int: embedded inode numbers start at [2^40], so
    packing would overflow 63 bits and alias distinct keys. *)

module Int_tbl : Hashtbl.S with type key = int
