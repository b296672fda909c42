(* Doubly-linked list threaded through hashtable nodes.  The list header is a
   sentinel node: [sentinel.next] is the LRU end, [sentinel.prev] the MRU
   end. *)

module type S = sig
  type key
  type 'v t

  val create : ?size_hint:int -> unit -> 'v t
  val mem : 'v t -> key -> bool
  val find : 'v t -> key -> 'v option
  val find_exn : 'v t -> key -> 'v
  val use : 'v t -> key -> 'v option
  val use_exn : 'v t -> key -> 'v
  val add : 'v t -> key -> 'v -> unit
  val remove : 'v t -> key -> unit
  val clear : 'v t -> unit
  val length : 'v t -> int
  val lru : 'v t -> (key * 'v) option
  val oldest : 'v t -> ('v -> bool) -> key
  val pop_lru : 'v t -> (key * 'v) option
  val drop_lru : 'v t -> unit
  val iter : 'v t -> (key -> 'v -> unit) -> unit
  val fold : 'v t -> init:'a -> f:('a -> key -> 'v -> 'a) -> 'a
  val to_list : 'v t -> (key * 'v) list
end

module Make (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  type key = K.t

  type 'v node = {
    key : key;
    mutable value : 'v;
    mutable prev : 'v node;
    mutable next : 'v node;
  }

  type 'v t = { table : 'v node H.t; mutable sentinel : 'v node option }

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

  let touch t n =
    match t.sentinel with
    | Some s ->
        unlink n;
        link_mru s n
    | None -> ()

  let mem t k = H.mem t.table k

  (* Lookups match on [H.find]'s exception: [H.find_opt] would allocate
     an option on every hit. *)
  let find t k = match H.find t.table k with n -> Some n.value | exception Not_found -> None

  let find_exn t k = (H.find t.table k).value

  let use_exn t k =
    let n = H.find t.table k in
    touch t n;
    n.value

  let use t k =
    match H.find t.table k with
    | n ->
        touch t n;
        Some n.value
    | exception Not_found -> None

  let add t k v =
    match H.find t.table k with
    | n ->
        n.value <- v;
        touch t n
    | exception Not_found ->
        let s = get_sentinel t k v in
        let rec n = { key = k; value = v; prev = n; next = n } in
        link_mru s n;
        H.replace t.table k n

  let remove t k =
    match H.find t.table k with
    | n ->
        unlink n;
        H.remove t.table k
    | exception Not_found -> ()

  let clear t =
    H.clear t.table;
    match t.sentinel with
    | Some s ->
        s.next <- s;
        s.prev <- s
    | None -> ()

  let length t = H.length t.table

  let lru t =
    match t.sentinel with
    | None -> None
    | Some s -> if s.next == s then None else Some (s.next.key, s.next.value)

  let rec first_from s p n =
    if n == s then raise Not_found else if p n.value then n.key else first_from s p n.next

  let oldest t p =
    match t.sentinel with None -> raise Not_found | Some s -> first_from s p s.next

  let pop_lru t =
    match lru t with
    | None -> None
    | Some (k, _) as r ->
        remove t k;
        r

  let drop_lru t =
    match t.sentinel with
    | Some s when s.next != s ->
        let n = s.next in
        unlink n;
        H.remove t.table n.key
    | Some _ | None -> ()

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
