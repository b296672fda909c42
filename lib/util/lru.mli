(** LRU index with O(1) touch/insert/remove over one key type.

    Used by the buffer cache for its recency order and by the name cache.
    The structure maps keys to values and maintains least-recently-used
    order; capacity enforcement is left to the caller (via [lru] +
    [remove]) because eviction of dirty buffers needs caller-side
    logic.  Lookups go through a [Hashtbl.Make] table, so they use
    [K.equal] and [K.hash] instead of polymorphic hashing and
    comparison. *)

module type S = sig
  type key
  type 'v t

  val create : ?size_hint:int -> unit -> 'v t
  val mem : 'v t -> key -> bool

  val find : 'v t -> key -> 'v option
  (** Lookup without touching recency. *)

  val find_exn : 'v t -> key -> 'v
  (** {!find} without the option: raises [Not_found] on a miss. *)

  val use : 'v t -> key -> 'v option
  (** Lookup and mark most-recently-used. *)

  val use_exn : 'v t -> key -> 'v
  (** {!use} without the option: raises [Not_found] on a miss, so a hit
      allocates nothing. *)

  val add : 'v t -> key -> 'v -> unit
  (** Insert or replace, marking most-recently-used. *)

  val remove : 'v t -> key -> unit

  val clear : 'v t -> unit
  (** Remove every binding. *)

  val length : 'v t -> int

  val lru : 'v t -> (key * 'v) option
  (** Least-recently-used binding, or [None] when empty. *)

  val oldest : 'v t -> ('v -> bool) -> key
  (** The least recently used key whose value satisfies the predicate;
      raises [Not_found] when none does.  Allocates nothing. *)

  val pop_lru : 'v t -> (key * 'v) option
  (** Remove and return the least-recently-used binding. *)

  val drop_lru : 'v t -> unit
  (** Remove the least-recently-used binding, if any, without returning
      it: allocates nothing. *)

  val iter : 'v t -> (key -> 'v -> unit) -> unit
  (** Iterate from least- to most-recently-used. *)

  val fold : 'v t -> init:'a -> f:('a -> key -> 'v -> 'a) -> 'a

  val to_list : 'v t -> (key * 'v) list
  (** Bindings from least- to most-recently-used. *)
end

module Make (K : Hashtbl.HashedType) : S with type key = K.t
