module Registry = Cffs_obs.Registry
module Lru = Cffs_util.Lru
module Fs_intf = Cffs_vfs.Fs_intf
module Errno = Cffs_vfs.Errno
module Inode = Cffs_vfs.Inode

(* ------------------------------------------------------------------ *)
(* Per-mount configuration. *)

type config = {
  enabled : bool;
  capacity : int;  (** dentry entries, positive + negative together *)
  attr_capacity : int;
  negative : bool;  (** cache failed lookups *)
}

let config_default =
  { enabled = true; capacity = 4096; attr_capacity = 4096; negative = true }

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
   ino to its stat.  Both are bounded LRUs. *)

type dentry = { target : int option; epoch : int }

(* A full-path shortcut: the outcome of a whole resolution, keyed by
   the canonical path.  [sc_deps] records every directory the walk
   passed through, with that directory's generation at the time; the
   entry is valid only while every recorded generation is unchanged.
   Generations (unlike epochs, which only renames and rmdir bump) count
   every namespace mutation in a directory, so a create anywhere along
   the path kills the shortcuts through it — including the negative
   ones proving the created name absent. *)
type shortcut = { sc_target : int option; sc_deps : (int * int) list }

type t = {
  config : config;
  dentries : (int * string, dentry) Lru.t;
  attrs : (int, Fs_intf.stat) Lru.t;
  epochs : (int, int) Hashtbl.t;
  shortcuts : (string, shortcut) Lru.t;
  gens : (int, int) Hashtbl.t;  (** per-directory namespace generation *)
}

let create ?(config = config_default) () =
  {
    config;
    dentries = Lru.create ~size_hint:(min config.capacity 1024) ();
    attrs = Lru.create ~size_hint:(min config.attr_capacity 1024) ();
    epochs = Hashtbl.create 64;
    shortcuts = Lru.create ~size_hint:(min config.capacity 1024) ();
    gens = Hashtbl.create 64;
  }

let config t = t.config
let enabled t = t.config.enabled
let dentry_count t = Lru.length t.dentries
let attr_count t = Lru.length t.attrs

let epoch t dir = Option.value ~default:0 (Hashtbl.find_opt t.epochs dir)

let bump_epoch t dir =
  Registry.incr m_invalidations;
  Hashtbl.replace t.epochs dir (epoch t dir + 1)

let gen t dir = Option.value ~default:0 (Hashtbl.find_opt t.gens dir)
let bump_gen t dir = Hashtbl.replace t.gens dir (gen t dir + 1)

let rec drain lru =
  match Lru.pop_lru lru with Some _ -> drain lru | None -> ()

let flush t =
  Registry.incr m_invalidations;
  drain t.dentries;
  drain t.attrs;
  drain t.shortcuts;
  Hashtbl.reset t.epochs;
  Hashtbl.reset t.gens

(* ------------------------------------------------------------------ *)
(* Dentry cache primitives. *)

let insert_dentry t ~dir name target =
  if enabled t && (target <> None || t.config.negative) then begin
    Lru.add t.dentries (dir, name) { target; epoch = epoch t dir };
    if Lru.length t.dentries > t.config.capacity then begin
      ignore (Lru.pop_lru t.dentries);
      Registry.incr m_evictions
    end
  end

(* [Some (Some ino)] positive hit, [Some None] negative hit, [None] miss.
   Stale-epoch entries are dropped on the way out. *)
let find_dentry t ~dir name =
  if not (enabled t) then None
  else begin
    match Lru.use t.dentries (dir, name) with
    | Some d when d.epoch = epoch t dir -> Some d.target
    | Some _ ->
        Lru.remove t.dentries (dir, name);
        None
    | None -> None
  end

let remove_dentry t ~dir name = Lru.remove t.dentries (dir, name)

(* ------------------------------------------------------------------ *)
(* Attribute cache primitives. *)

let insert_attr t ino st =
  if enabled t then begin
    Lru.add t.attrs ino st;
    if Lru.length t.attrs > t.config.attr_capacity then begin
      ignore (Lru.pop_lru t.attrs);
      Registry.incr m_evictions
    end
  end

let find_attr t ino = if enabled t then Lru.use t.attrs ino else None
let remove_attr t ino = Lru.remove t.attrs ino

(* ------------------------------------------------------------------ *)
(* Full-path shortcut primitives. *)

let insert_shortcut t key ~deps target =
  if enabled t && (target <> None || t.config.negative) then begin
    Lru.add t.shortcuts key { sc_target = target; sc_deps = deps };
    if Lru.length t.shortcuts > t.config.capacity then begin
      ignore (Lru.pop_lru t.shortcuts);
      Registry.incr m_evictions
    end
  end

(* [Some (Some ino)] positive hit, [Some None] negative hit, [None]
   miss.  An entry whose recorded generations no longer all match is
   stale — counted, dropped, and reported as a miss. *)
let find_shortcut t key =
  if not (enabled t) then None
  else begin
    match Lru.use t.shortcuts key with
    | Some sc when List.for_all (fun (d, g) -> gen t d = g) sc.sc_deps ->
        Some sc.sc_target
    | Some _ ->
        Registry.incr m_shortcut_stale;
        Lru.remove t.shortcuts key;
        None
    | None -> None
  end

let shortcut_count t = Lru.length t.shortcuts

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
      match find_dentry s ~dir name with
      | Some (Some ino) ->
          Registry.incr m_dentry_hits;
          Ok ino
      | Some None ->
          Registry.incr m_negative_hits;
          Error Enoent
      | None -> begin
          Registry.incr m_dentry_misses;
          match F.lookup fs ~dir name with
          | Ok ino as r ->
              insert_dentry s ~dir name (Some ino);
              r
          | Error Enoent as r ->
              insert_dentry s ~dir name None;
              r
          | Error _ as r -> r
        end
    end

  let stat_ino fs ino =
    let s = F.namei fs in
    if not (enabled s) then F.stat_ino fs ino
    else begin
      match find_attr s ino with
      | Some st ->
          Registry.incr m_attr_hits;
          Ok st
      | None -> begin
          Registry.incr m_attr_misses;
          match F.stat_ino fs ino with
          | Ok st as r ->
              insert_attr s ino st;
              r
          | Error _ as r -> r
        end
    end

  (* Which ino does (dir, name) currently bind?  The invalidation hooks
     need to know whose attrs a mutation kills; answered from the cache
     when possible, else one (buffer-cache-served) lookup. *)
  let peek_ino fs ~dir name =
    let s = F.namei fs in
    match find_dentry s ~dir name with
    | Some target -> target
    | None -> ( match F.lookup fs ~dir name with Ok ino -> Some ino | Error _ -> None)

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
          insert_dentry s ~dir name (Some ino)
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
          insert_dentry s ~dir name None
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
            if n <> "." && n <> ".." then insert_dentry s ~dir n (Some ino))
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
              insert_dentry s ~dir n (Some st.Fs_intf.st_ino);
              insert_attr s st.Fs_intf.st_ino st
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

  let plain_walk fs parts =
    let rec walk ino = function
      | [] -> Ok ino
      | name :: rest -> (
          match F.lookup fs ~dir:ino name with
          | Ok next -> walk next rest
          | Error _ as e -> e)
    in
    walk (F.root fs) parts

  let resolve_rel fs key parts =
    let s = F.namei fs in
    if not (enabled s) then plain_walk fs parts
    else begin
      match find_shortcut s key with
      | Some (Some ino) ->
          Registry.incr m_shortcut_hits;
          Ok ino
      | Some None ->
          Registry.incr m_shortcut_negative_hits;
          Error Errno.Enoent
      | None ->
          Registry.incr m_shortcut_misses;
          let deps = ref [] in
          let rec walk ino = function
            | [] ->
                insert_shortcut s key ~deps:!deps (Some ino);
                Ok ino
            | name :: rest -> (
                deps := (ino, gen s ino) :: !deps;
                match F.lookup fs ~dir:ino name with
                | Ok next -> walk next rest
                | Error Errno.Enoent as e ->
                    if rest = [] then insert_shortcut s key ~deps:!deps None;
                    e
                | Error _ as e -> e)
          in
          walk (F.root fs) parts
    end
end
