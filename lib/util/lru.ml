(* Doubly-linked list threaded through hashtable nodes.  The list header is a
   sentinel node: [sentinel.next] is the LRU end, [sentinel.prev] the MRU
   end.  The list is written once over the table that indexes it, so the
   polymorphic LRU and every [Make] instance share this code. *)

module type TABLE = sig
  type 'k key
  type ('k, 'v) t

  val create : int -> ('k, 'v) t
  val find_opt : ('k, 'v) t -> 'k key -> 'v option
  val find : ('k, 'v) t -> 'k key -> 'v
  val mem : ('k, 'v) t -> 'k key -> bool
  val replace : ('k, 'v) t -> 'k key -> 'v -> unit
  val remove : ('k, 'v) t -> 'k key -> unit
  val length : ('k, 'v) t -> int
end

module Over (H : TABLE) = struct
  type ('k, 'v) node = {
    key : 'k H.key;
    mutable value : 'v;
    mutable prev : ('k, 'v) node;
    mutable next : ('k, 'v) node;
  }

  type ('k, 'v) t = {
    table : ('k, ('k, 'v) node) H.t;
    mutable sentinel : ('k, 'v) node option;
  }

  let create ?(size_hint = 64) () = { table = H.create size_hint; sentinel = None }

  let get_sentinel t key value =
    match t.sentinel with
    | Some s -> s
    | None ->
        (* The sentinel needs dummy key/value; reuse the first inserted pair. *)
        let rec s = { key; value; prev = s; next = s } in
        t.sentinel <- Some s;
        s

  let unlink n =
    n.prev.next <- n.next;
    n.next.prev <- n.prev

  let link_mru s n =
    (* Insert [n] just before the sentinel (MRU position). *)
    n.prev <- s.prev;
    n.next <- s;
    s.prev.next <- n;
    s.prev <- n

  let mem t k = H.mem t.table k

  let find t k =
    match H.find_opt t.table k with Some n -> Some n.value | None -> None

  let use_exn t k =
    let n = H.find t.table k in
    (match t.sentinel with
    | Some s ->
        unlink n;
        link_mru s n
    | None -> ());
    n.value

  let use t k =
    match H.find_opt t.table k with
    | None -> None
    | Some n ->
        (match t.sentinel with
        | Some s ->
            unlink n;
            link_mru s n
        | None -> ());
        Some n.value

  let add t k v =
    match H.find_opt t.table k with
    | Some n ->
        n.value <- v;
        (match t.sentinel with
        | Some s ->
            unlink n;
            link_mru s n
        | None -> ())
    | None ->
        let s = get_sentinel t k v in
        let rec n = { key = k; value = v; prev = n; next = n } in
        link_mru s n;
        H.replace t.table k n

  let remove t k =
    match H.find_opt t.table k with
    | None -> ()
    | Some n ->
        unlink n;
        H.remove t.table k

  let length t = H.length t.table

  let lru t =
    match t.sentinel with
    | None -> None
    | Some s -> if s.next == s then None else Some (s.next.key, s.next.value)

  let pop_lru t =
    match lru t with
    | None -> None
    | Some (k, _) as r ->
        remove t k;
        r

  let iter t f =
    match t.sentinel with
    | None -> ()
    | Some s ->
        let rec loop n =
          if n != s then begin
            let next = n.next in
            f n.key n.value;
            loop next
          end
        in
        loop s.next

  let fold t ~init ~f =
    let acc = ref init in
    iter t (fun k v -> acc := f !acc k v);
    !acc

  let to_list t = List.rev (fold t ~init:[] ~f:(fun acc k v -> (k, v) :: acc))
end

include Over (struct
  type 'k key = 'k
  type ('k, 'v) t = ('k, 'v) Hashtbl.t

  let create n = Hashtbl.create n
  let find_opt = Hashtbl.find_opt
  let find = Hashtbl.find
  let mem = Hashtbl.mem
  let replace = Hashtbl.replace
  let remove = Hashtbl.remove
  let length = Hashtbl.length
end)

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

module Make (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  module L = Over (struct
    type 'k key = K.t
    type ('k, 'v) t = 'v H.t

    let create n = H.create n
    let find_opt = H.find_opt
    let find = H.find
    let mem = H.mem
    let replace = H.replace
    let remove = H.remove
    let length = H.length
  end)

  type key = K.t
  type 'v t = (unit, 'v) L.t

  let create = L.create
  let mem = L.mem
  let find = L.find
  let use = L.use
  let use_exn = L.use_exn
  let add = L.add
  let remove = L.remove
  let length = L.length
  let lru = L.lru
  let pop_lru = L.pop_lru
  let iter = L.iter
  let fold = L.fold
  let to_list = L.to_list
end
