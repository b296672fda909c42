module Registry = Cffs_obs.Registry
module Lru = Cffs_util.Lru
module Keys = Cffs_util.Keys
module Int_tbl = Keys.Int_tbl
module Fs_intf = Cffs_vfs.Fs_intf
module Errno = Cffs_vfs.Errno
module Inode = Cffs_vfs.Inode

(* ------------------------------------------------------------------ *)
(* Per-mount configuration. *)

type config = {
  enabled : bool;
  capacity : int;  (** dentry entries, positive + negative together *)
  attr_capacity : int;
}

let config_default = { enabled = true; capacity = 4096; attr_capacity = 4096 }

let config_disabled = { config_default with enabled = false }

(* ------------------------------------------------------------------ *)
(* Telemetry.  Process-wide like every other registry metric; the
   telemetry document carries these as the always-present [namei]
   section. *)

let m_dentry_hits = Registry.counter "namei.dentry_hits"
let m_dentry_misses = Registry.counter "namei.dentry_misses"
let m_negative_hits = Registry.counter "namei.negative_hits"
let m_attr_hits = Registry.counter "namei.attr_hits"
let m_attr_misses = Registry.counter "namei.attr_misses"
let m_readdirplus_warms = Registry.counter "namei.readdirplus_warms"
let m_evictions = Registry.counter "namei.evictions"
let m_invalidations = Registry.counter "namei.invalidations"
let m_shortcut_hits = Registry.counter "namei.shortcut_hits"
let m_shortcut_misses = Registry.counter "namei.shortcut_misses"
let m_shortcut_negative_hits = Registry.counter "namei.shortcut_negative_hits"
let m_shortcut_stale = Registry.counter "namei.shortcut_stale"

(* ------------------------------------------------------------------ *)
(* State: one per mount.

   The dentry cache maps (directory ino, name) to the named ino — or to
   "proven absent" (a negative entry, inserted when a lookup returns
   ENOENT or an unlink succeeds).  Entries carry the epoch of their
   directory; bumping a directory's epoch invalidates every entry under
   it in O(1), which is how rename — which renumbers embedded inodes —
   is handled without per-entry surgery.  The attribute cache maps an
   ino to its stat.  Both are bounded LRUs over monomorphic keys, read
   through [use_exn] (a miss is [Not_found]), and every entry stores the
   ready [Errno.result] a hit returns, so a hit allocates nothing. *)

type dentry = { d_result : int Errno.result; epoch : int }

module Dentries = Lru.Make (struct
  type t = int * string

  let equal ((d1 : int), n1) (d2, n2) = d1 = d2 && String.equal n1 n2
  let hash (d, n) = Keys.Int.hash (d + String.hash n)
end)

module Attrs = Lru.Make (Keys.Int)

module Shortcuts = Lru.Make (struct
  type t = string

  let equal = String.equal
  let hash = String.hash
end)

(* A full-path shortcut: the outcome of a whole resolution, keyed by
   the canonical path.  [sc_deps] records every directory the walk
   passed through, with that directory's generation at the time; the
   entry is valid only while every recorded generation is unchanged.
   Generations (unlike epochs, which only renames and rmdir bump) count
   every namespace mutation in a directory, so a create anywhere along
   the path kills the shortcuts through it — including the negative
   ones proving the created name absent. *)
type shortcut = {
  sc_result : int Errno.result;
  sc_deps : int array;  (** each directory, then its generation *)
}

type t = {
  config : config;
  dentries : dentry Dentries.t;
  attrs : Fs_intf.stat Errno.result Attrs.t;
  epochs : int Int_tbl.t;
  shortcuts : shortcut Shortcuts.t;
  gens : int Int_tbl.t;  (** per-directory namespace generation *)
}

let create ?(config = config_default) () =
  {
    config;
    dentries = Dentries.create ~size_hint:(min config.capacity 1024) ();
    attrs = Attrs.create ~size_hint:(min config.attr_capacity 1024) ();
    epochs = Int_tbl.create 64;
    shortcuts = Shortcuts.create ~size_hint:(min config.capacity 1024) ();
    gens = Int_tbl.create 64;
  }

let config t = t.config
let enabled t = t.config.enabled
let dentry_count t = Dentries.length t.dentries
let attr_count t = Attrs.length t.attrs

(* Epochs and generations start at 0. *)
let stamp tbl dir = match Int_tbl.find tbl dir with v -> v | exception Not_found -> 0
let epoch t dir = stamp t.epochs dir

let bump_epoch t dir =
  Registry.incr m_invalidations;
  Int_tbl.replace t.epochs dir (epoch t dir + 1)

let gen t dir = stamp t.gens dir
let bump_gen t dir = Int_tbl.replace t.gens dir (gen t dir + 1)

let flush t =
  Registry.incr m_invalidations;
  Dentries.clear t.dentries;
  Attrs.clear t.attrs;
  Shortcuts.clear t.shortcuts;
  Int_tbl.reset t.epochs;
  Int_tbl.reset t.gens

(* ------------------------------------------------------------------ *)
(* Dentry cache primitives. *)

(* [Ok ino] binds the name; [Error Enoent] proves it absent (a
   negative entry).  [key] is [(dir, name)]. *)
let insert_key t key d_result =
  let dir = fst key in
  if enabled t then begin
    Dentries.add t.dentries key { d_result; epoch = epoch t dir };
    if Dentries.length t.dentries > t.config.capacity then begin
      Dentries.drop_lru t.dentries;
      Registry.incr m_evictions
    end
  end

let insert_dentry t ~dir name d_result = insert_key t (dir, name) d_result

(* The stored answer; [Not_found] on a miss.  A stale-epoch entry is
   dropped on the way out and is a miss.  The tables stay empty while
   the cache is disabled. *)
let find_key t key =
  let dir = fst key in
  let d = Dentries.use_exn t.dentries key in
  if d.epoch = epoch t dir then d.d_result
  else begin
    Dentries.remove t.dentries key;
    raise Not_found
  end

let find_dentry t ~dir name = find_key t (dir, name)
let remove_dentry t ~dir name = Dentries.remove t.dentries (dir, name)

(* ------------------------------------------------------------------ *)
(* Attribute cache primitives. *)

(* [r] is the [Ok st] a hit hands back. *)
let insert_attr t ino r =
  if enabled t then begin
    Attrs.add t.attrs ino r;
    if Attrs.length t.attrs > t.config.attr_capacity then begin
      Attrs.drop_lru t.attrs;
      Registry.incr m_evictions
    end
  end

let remove_attr t ino = Attrs.remove t.attrs ino

(* ------------------------------------------------------------------ *)
(* Full-path shortcut primitives. *)

let insert_shortcut t key ~deps sc_result =
  if enabled t then begin
    Shortcuts.add t.shortcuts key { sc_result; sc_deps = deps };
    if Shortcuts.length t.shortcuts > t.config.capacity then begin
      Shortcuts.drop_lru t.shortcuts;
      Registry.incr m_evictions
    end
  end

let rec deps_current t deps i =
  i >= Array.length deps || (gen t deps.(i) = deps.(i + 1) && deps_current t deps (i + 2))

(* The stored answer; [Not_found] on a miss.  An entry whose recorded
   generations no longer all match is stale — counted, dropped, and a
   miss. *)
let find_shortcut t key =
  let sc = Shortcuts.use_exn t.shortcuts key in
  if deps_current t sc.sc_deps 0 then sc.sc_result
  else begin
    Registry.incr m_shortcut_stale;
    Shortcuts.remove t.shortcuts key;
    raise Not_found
  end

let shortcut_count t = Shortcuts.length t.shortcuts

(* ------------------------------------------------------------------ *)
(* The caching interposer: a LOW over a LOW.

   Sits between [Pathfs.MakeWith] and the instrumented file system
   ([Stack.Make] builds that stack).  Reads
   (lookup / stat_ino) are served from the caches; every namespace or
   attribute mutation invalidates before the caller can observe the new
   on-disk truth, so a cached entry never outlives what it mirrors:

   - mknod: purge the negative entry (insert the fresh positive one),
     drop the directory's attrs and any stale attrs under the new ino
     (embedded ino numbers are positional and get reused);
   - remove: drop the victim's attrs and dentry (a successful unlink
     proves absence — insert a negative entry), drop the directory's
     attrs; rmdir also bumps the removed directory's epoch so cached
     negative entries cannot survive ino reuse;
   - rename: whole-directory epoch bump on both directories (an embedded
     rename renumbers the moved inode, so per-entry surgery cannot be
     trusted), plus an epoch bump on the moved ino itself — renaming a
     directory renumbers it, stranding entries keyed by the old number;
   - hardlink: full flush — linking an embedded inode externalizes it,
     renumbering a file named in a directory this layer cannot see;
   - write / truncate (setattr): drop the ino's attrs;
   - remount: full flush (the caches never survive a cold-cache point,
     so remounted state is byte-identical with caching on and off). *)

type state = t

module type SOURCE = sig
  include Fs_intf.LOW

  val namei : t -> state
  (** The mount's cache state (so two instances never share entries). *)
end

module Make (F : SOURCE) : SOURCE with type t = F.t = struct
  open Errno

  type t = F.t

  let label = F.label
  let root = F.root

  let lookup fs ~dir name =
    let s = F.namei fs in
    if not (enabled s) then F.lookup fs ~dir name
    else begin
      let key = (dir, name) in
      match find_key s key with
      | Ok _ as r ->
          Registry.incr m_dentry_hits;
          r
      | Error _ as r ->
          Registry.incr m_negative_hits;
          r
      | exception Not_found ->
          Registry.incr m_dentry_misses;
          let r = F.lookup fs ~dir name in
          (match r with
          | Ok _ | Error Enoent -> insert_key s key r
          | Error _ -> ());
          r
    end

  let stat_ino fs ino =
    let s = F.namei fs in
    if not (enabled s) then F.stat_ino fs ino
    else begin
      match Attrs.use_exn s.attrs ino with
      | r ->
          Registry.incr m_attr_hits;
          r
      | exception Not_found ->
          Registry.incr m_attr_misses;
          let r = F.stat_ino fs ino in
          if Result.is_ok r then insert_attr s ino r;
          r
    end

  (* Which ino does (dir, name) currently bind?  The invalidation hooks
     need to know whose attrs a mutation kills; answered from the cache
     when possible, else one (buffer-cache-served) lookup. *)
  let peek_ino fs ~dir name =
    let r =
      match find_dentry (F.namei fs) ~dir name with
      | r -> r
      | exception Not_found -> F.lookup fs ~dir name
    in
    Result.to_option r

  let mknod fs ~dir name kind =
    let s = F.namei fs in
    if not (enabled s) then F.mknod fs ~dir name kind
    else begin
      let r = F.mknod fs ~dir name kind in
      remove_attr s dir;
      (match r with
      | Ok ino ->
          (* The new ino may be a reused (positional) number: purge any
             stale attrs from its previous life before anyone stats it. *)
          bump_gen s dir;
          remove_attr s ino;
          insert_dentry s ~dir name r
      | Error _ -> remove_dentry s ~dir name);
      r
    end

  let remove fs ~dir name ~rmdir =
    let s = F.namei fs in
    if not (enabled s) then F.remove fs ~dir name ~rmdir
    else begin
      let victim = peek_ino fs ~dir name in
      let r = F.remove fs ~dir name ~rmdir in
      remove_attr s dir;
      (match r with
      | Ok () ->
          bump_gen s dir;
          (match victim with
          | Some ino ->
              remove_attr s ino;
              (* The removed directory's number can be reused; negative
                 entries cached under it must not apply to the successor. *)
              if rmdir then begin
                bump_epoch s ino;
                bump_gen s ino
              end
          | None -> ());
          insert_dentry s ~dir name (Error Enoent)
      | Error _ -> remove_dentry s ~dir name);
      r
    end

  let hardlink fs ~dir name ~ino =
    let s = F.namei fs in
    let r = F.hardlink fs ~dir name ~ino in
    (* Linking an embedded inode externalizes it — a file named by some
       directory this layer never saw changes its ino.  Rare op: flush. *)
    if enabled s then flush s;
    r

  let rename fs ~sdir ~sname ~ddir ~dname =
    let s = F.namei fs in
    if not (enabled s) then F.rename fs ~sdir ~sname ~ddir ~dname
    else begin
      let src = peek_ino fs ~dir:sdir sname in
      let dst = peek_ino fs ~dir:ddir dname in
      let r = F.rename fs ~sdir ~sname ~ddir ~dname in
      bump_epoch s sdir;
      bump_epoch s ddir;
      bump_gen s sdir;
      bump_gen s ddir;
      remove_attr s sdir;
      remove_attr s ddir;
      let stranded ino =
        remove_attr s ino;
        (* If [ino] was a directory its entries are keyed by a number that
           no longer exists (or, worse, will be reused). *)
        bump_epoch s ino;
        bump_gen s ino
      in
      Option.iter stranded src;
      Option.iter stranded dst;
      r
    end

  let readdir fs ~dir =
    let s = F.namei fs in
    let r = F.readdir fs ~dir in
    (match r with
    | Ok entries when enabled s ->
        List.iter
          (fun (n, ino) ->
            if n <> "." && n <> ".." then insert_dentry s ~dir n (Ok ino))
          entries
    | _ -> ());
    r

  let readdir_plus fs ~dir =
    let s = F.namei fs in
    let r = F.readdir_plus fs ~dir in
    (match r with
    | Ok entries when enabled s ->
        List.iter
          (fun (n, st) ->
            if n <> "." && n <> ".." then begin
              Registry.incr m_readdirplus_warms;
              insert_dentry s ~dir n (Ok st.Fs_intf.st_ino);
              insert_attr s st.Fs_intf.st_ino (Ok st)
            end)
          entries
    | _ -> ());
    r

  let read_ino = F.read_ino

  let write_ino fs ~ino ~off data =
    let s = F.namei fs in
    let r = F.write_ino fs ~ino ~off data in
    (* Unconditional: a failed write may still have changed st_blocks. *)
    remove_attr s ino;
    r

  let truncate_ino fs ~ino ~size =
    let s = F.namei fs in
    let r = F.truncate_ino fs ~ino ~size in
    remove_attr s ino;
    r

  let data_runs = F.data_runs
  let sync = F.sync

  let remount fs =
    (* The caches must not survive the cold-cache point: remounted state
       is re-read from disk, byte-identical with caching on and off. *)
    flush (F.namei fs);
    F.remount fs

  let usage = F.usage
  let namei = F.namei
end

(* ------------------------------------------------------------------ *)
(* The full-path shortcut resolver: a {!Cffs_vfs.Pathfs.RESOLVER} over
   the same SOURCE the interposer wraps.  A hit answers a whole
   [resolve] in O(1) without touching a single directory; a miss walks
   through [F.lookup] — and so through the dentry cache when [F] is the
   caching interposer — recording each directory's generation, so the
   shortcut dies the moment any ancestor's namespace changes (rename,
   create, remove all bump the generations the walk recorded).  A
   negative shortcut is inserted only for ENOENT at the final component:
   an intermediate ENOENT means a whole subtree is missing, and a create
   deep below it would not touch any directory the walk reached. *)
module Resolver (F : SOURCE) = struct
  type t = F.t

  (* The walk reads a canonical key in place: the component starting at
     [i] ends at [stop key i]; only the names it looks up are copied
     out. *)
  let rec stop key i = if i >= String.length key || key.[i] = '/' then i else stop key (i + 1)

  let rec plain_walk fs key ino i =
    let j = stop key i in
    let r = F.lookup fs ~dir:ino (String.sub key i (j - i)) in
    match r with
    | Ok next when j < String.length key -> plain_walk fs key next (j + 1)
    | Ok _ | Error _ -> r

  (* A shortcut miss: walk, recording in [deps] each directory passed
     through with its generation ([k] entries so far), and store the
     outcome under [key]. *)
  let rec walk fs s key deps k ino i =
    deps.(2 * k) <- ino;
    deps.((2 * k) + 1) <- gen s ino;
    let j = stop key i in
    let r = F.lookup fs ~dir:ino (String.sub key i (j - i)) in
    let last = j >= String.length key in
    match r with
    | Ok next when not last -> walk fs s key deps (k + 1) next (j + 1)
    | Ok _ ->
        insert_shortcut s key ~deps r;
        r
    | Error Errno.Enoent ->
        if last then insert_shortcut s key ~deps r;
        r
    | Error _ -> r

  let resolve_rel fs key =
    let s = F.namei fs in
    if not (enabled s) then
      if String.length key = 1 then Ok (F.root fs) else plain_walk fs key (F.root fs) 1
    else begin
      match find_shortcut s key with
      | Ok _ as r ->
          Registry.incr m_shortcut_hits;
          r
      | Error _ as r ->
          Registry.incr m_shortcut_negative_hits;
          r
      | exception Not_found ->
          Registry.incr m_shortcut_misses;
          if String.length key = 1 then begin
            let r = Ok (F.root fs) in
            insert_shortcut s key ~deps:[||] r;
            r
          end
          else walk fs s key (Array.make (2 * Cffs_vfs.Path.components key) 0) 0 (F.root fs) 1
    end
end
