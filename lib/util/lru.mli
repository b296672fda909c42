(** Generic LRU index with O(1) touch/insert/remove.

    Used by the buffer cache for its recency order and by the name cache.
    The structure maps keys to values and maintains least-recently-used
    order; capacity enforcement is left to the caller (via {!lru} +
    {!remove}) because eviction of dirty buffers needs caller-side
    logic. *)

type ('k, 'v) t

val create : ?size_hint:int -> unit -> ('k, 'v) t

val mem : ('k, 'v) t -> 'k -> bool
val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup without touching recency. *)

val use : ('k, 'v) t -> 'k -> 'v option
(** Lookup and mark most-recently-used. *)

val use_exn : ('k, 'v) t -> 'k -> 'v
(** {!use} without the option: raises [Not_found] on a miss, so a hit
    allocates nothing. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace, marking most-recently-used. *)

val remove : ('k, 'v) t -> 'k -> unit
val length : ('k, 'v) t -> int

val lru : ('k, 'v) t -> ('k * 'v) option
(** Least-recently-used binding, or [None] when empty. *)

val pop_lru : ('k, 'v) t -> ('k * 'v) option
(** Remove and return the least-recently-used binding. *)

val iter : ('k, 'v) t -> ('k -> 'v -> unit) -> unit
(** Iterate from least- to most-recently-used. *)

val fold : ('k, 'v) t -> init:'a -> f:('a -> 'k -> 'v -> 'a) -> 'a

val to_list : ('k, 'v) t -> ('k * 'v) list
(** Bindings from least- to most-recently-used. *)

(** An LRU over one key type, indexed by a [Hashtbl.Make] table: lookups
    use [K.equal] and [K.hash] instead of polymorphic hashing and
    comparison.  The polymorphic LRU above is the same code over the
    polymorphic [Hashtbl]. *)
module type S = sig
  type key
  type 'v t

  val create : ?size_hint:int -> unit -> 'v t
  val mem : 'v t -> key -> bool
  val find : 'v t -> key -> 'v option
  val use : 'v t -> key -> 'v option
  val use_exn : 'v t -> key -> 'v
  val add : 'v t -> key -> 'v -> unit
  val remove : 'v t -> key -> unit
  val length : 'v t -> int
  val lru : 'v t -> (key * 'v) option
  val pop_lru : 'v t -> (key * 'v) option
  val iter : 'v t -> (key -> 'v -> unit) -> unit
  val fold : 'v t -> init:'a -> f:('a -> key -> 'v -> 'a) -> 'a
  val to_list : 'v t -> (key * 'v) list
end

module Make (K : Hashtbl.HashedType) : S with type key = K.t
