open Errno

let m_resolves = Cffs_obs.Registry.counter "vfs.resolves"
let m_components = Cffs_obs.Registry.counter "vfs.path_components"

(* How [resolve] maps a canonical path to an inode.  lib/namei's
   full-path shortcut cache keys on that path and skips the component
   walk entirely on a hit; a resolver splits the key only when it walks. *)
module type RESOLVER = sig
  type t

  val resolve_rel : t -> string -> int Errno.result
end

module MakeWith (F : Fs_intf.LOW) (R : RESOLVER with type t = F.t) = struct
  include F

  (* The walk of a canonical key; the caller counts the resolve. *)
  let resolve_key t key =
    Cffs_obs.Registry.add m_components (Path.components key);
    R.resolve_rel t key

  (* Written as matches, not [let*]: a warm resolve returns the
     resolver's own result and builds no closure. *)
  let resolve t p =
    Cffs_obs.Registry.incr m_resolves;
    match Path.canonical p with
    | Error e -> Error e
    | Ok key -> (
        let r = resolve_key t key in
        (* "/a/" claims a is a directory; POSIX answers ENOTDIR when it
           is not.  The check lives here, above any name cache, so the
           errno is identical with caching on and off. *)
        match r with
        | Ok ino when Path.trailing_slash p -> (
            match F.stat_ino t ino with
            | Ok st ->
                if st.Fs_intf.st_kind <> Inode.Directory then Error Enotdir
                else r
            | Error e -> Error e)
        | _ -> r)

  (* The hot calls below are written as matches, not [let*]: a call
     builds no continuation closure. *)

  (* The key of a path that names something other than the root. *)
  let child_key p = match Path.canonical p with Ok "/" -> Error Einval | r -> r

  (* The directory holding canonical [key] (not "/"), counted as one
     resolve, as [resolve] of its path would be. *)
  let parent_dir t key =
    Cffs_obs.Registry.incr m_resolves;
    match resolve_key t (Path.parent key) with
    | Error _ as e -> e
    | Ok dir as r -> (
        match F.stat_ino t dir with
        | Ok st -> if st.Fs_intf.st_kind <> Inode.Directory then Error Enotdir else r
        | Error e -> Error e)

  let resolve_parent t p =
    match child_key p with
    | Error e -> Error e
    | Ok key -> (
        match parent_dir t key with
        | Ok dir -> Ok (dir, Path.basename key)
        | Error e -> Error e)

  let create t p =
    (* open("a/", O_CREAT) is EISDIR: a trailing slash demands a directory,
       which create cannot make. *)
    if Path.trailing_slash p then Error Eisdir
    else begin
      let* dir, name = resolve_parent t p in
      let* _ino = F.mknod t ~dir name Inode.Regular in
      Ok ()
    end

  let mkdir t p =
    let* dir, name = resolve_parent t p in
    let* _ino = F.mknod t ~dir name Inode.Directory in
    Ok ()

  let mkdir_p t p =
    let* parts = Path.split p in
    let rec walk dir = function
      | [] -> Ok ()
      | name :: rest -> begin
          match F.lookup t ~dir name with
          | Ok next -> walk next rest
          | Error Enoent ->
              let* next = F.mknod t ~dir name Inode.Directory in
              walk next rest
          | Error _ as e -> e
        end
    in
    walk (F.root t) parts

  let unlink t p =
    (* unlink("f/") is ENOTDIR when f is a file (the slash's directory
       claim fails first), EISDIR when it is a directory. *)
    match if Path.trailing_slash p then resolve t p else Ok 0 with
    | Error e -> Error e
    | Ok _ -> (
        match child_key p with
        | Error e -> Error e
        | Ok key -> (
            match parent_dir t key with
            | Error e -> Error e
            | Ok dir -> F.remove t ~dir (Path.basename key) ~rmdir:false))

  let rmdir t p =
    let* dir, name = resolve_parent t p in
    F.remove t ~dir name ~rmdir:true

  let link t ~existing ~target =
    let* ino = resolve t existing in
    let* st = F.stat_ino t ino in
    if st.Fs_intf.st_kind = Inode.Directory then Error Eisdir
    else begin
      let* dir, name = resolve_parent t target in
      F.hardlink t ~dir name ~ino
    end

  let rename_path t ~src ~dst =
    (* Moving a directory into its own subtree would disconnect it. *)
    let prefix = if src = "/" then src else src ^ "/" in
    if src = dst || String.length dst > String.length prefix
       && String.sub dst 0 (String.length prefix) = prefix
    then if src = dst then Ok () else Error Einval
    else begin
      let* sdir, sname = resolve_parent t src in
      let* ddir, dname = resolve_parent t dst in
      F.rename t ~sdir ~sname ~ddir ~dname
    end

  let stat t p =
    match resolve t p with Ok ino -> F.stat_ino t ino | Error e -> Error e

  let exists t p = match stat t p with Ok _ -> true | Error _ -> false

  let truncate t p size =
    let* ino = resolve t p in
    F.truncate_ino t ~ino ~size

  let read t p ~off ~len =
    match resolve t p with Ok ino -> F.read_ino t ~ino ~off ~len | Error e -> Error e

  let write t p ~off data =
    match resolve t p with Ok ino -> F.write_ino t ~ino ~off data | Error e -> Error e

  let file_runs t p =
    let* ino = resolve t p in
    F.data_runs t ~ino

  let read_file t p =
    match resolve t p with
    | Error e -> Error e
    | Ok ino -> (
        match F.stat_ino t ino with
        | Error e -> Error e
        | Ok st ->
            if st.Fs_intf.st_kind = Inode.Directory then Error Eisdir
            else F.read_ino t ~ino ~off:0 ~len:st.Fs_intf.st_size)

  (* [write_file]'s target in [dir]: the existing file, emptied, or a
     new one. *)
  let write_target t ~dir name =
    match F.lookup t ~dir name with
    | Ok ino as r -> (
        match F.stat_ino t ino with
        | Error e -> Error e
        | Ok st -> (
            if st.Fs_intf.st_kind = Inode.Directory then Error Eisdir
            else match F.truncate_ino t ~ino ~size:0 with Ok () -> r | Error e -> Error e))
    | Error Enoent -> F.mknod t ~dir name Inode.Regular
    | Error _ as e -> e

  let write_file t p data =
    match child_key p with
    | Error e -> Error e
    | Ok key -> (
        match parent_dir t key with
        | Error e -> Error e
        | Ok dir ->
            let name = Path.basename key in
            (* "f/" demands a directory: an existing file is ENOTDIR, an
               existing directory is EISDIR, and creating a regular file
               through the slash is EISDIR — decided here, above the name
               cache. *)
            if Path.trailing_slash p then begin
              match F.lookup t ~dir name with
              | Ok ino ->
                  let* st = F.stat_ino t ino in
                  if st.Fs_intf.st_kind = Inode.Directory then Error Eisdir
                  else Error Enotdir
              | Error Enoent -> Error Eisdir
              | Error _ as e -> e
            end
            else begin
              match write_target t ~dir name with
              | Error e -> Error e
              | Ok ino ->
                  if Bytes.length data = 0 then Ok () else F.write_ino t ~ino ~off:0 data
            end)

  let append_file t p data =
    let* ino = resolve t p in
    let* st = F.stat_ino t ino in
    if st.Fs_intf.st_kind = Inode.Directory then Error Eisdir
    else F.write_ino t ~ino ~off:st.Fs_intf.st_size data

  let list_dir t p =
    let* dir = resolve t p in
    let* entries = F.readdir t ~dir in
    entries
    |> List.map fst
    |> List.filter (fun n -> n <> "." && n <> "..")
    |> List.sort compare
    |> Result.ok

  let list_dir_plus t p =
    let* dir = resolve t p in
    let* entries = F.readdir_plus t ~dir in
    entries
    |> List.filter (fun (n, _) -> n <> "." && n <> "..")
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> Result.ok
end
