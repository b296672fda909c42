open Errno

let m_resolves = Cffs_obs.Registry.counter "vfs.resolves"
let m_components = Cffs_obs.Registry.counter "vfs.path_components"

(* How [resolve] maps a split path to an inode.  lib/namei's full-path
   shortcut cache keys on the canonical path and skips the component walk
   entirely on a hit; this module need not care how, because the resolver
   receives the canonical key alongside the parts. *)
module type RESOLVER = sig
  type t

  val resolve_rel : t -> string -> string list -> int Errno.result
end

module MakeWith (F : Fs_intf.LOW) (R : RESOLVER with type t = F.t) = struct
  include F

  let resolve t p =
    Cffs_obs.Registry.incr m_resolves;
    let* parts = Path.split p in
    Cffs_obs.Registry.incr ~by:(List.length parts) m_components;
    let* ino = R.resolve_rel t ("/" ^ String.concat "/" parts) parts in
    (* "/a/" claims a is a directory; POSIX answers ENOTDIR when it is
       not.  The check lives here, above any name cache, so the errno is
       identical with caching on and off. *)
    if Path.trailing_slash p then begin
      let* st = F.stat_ino t ino in
      if st.Fs_intf.st_kind <> Inode.Directory then Error Enotdir else Ok ino
    end
    else Ok ino

  let resolve_parent t p =
    let* dir_path, name = Path.dirname_basename p in
    let* dir = resolve t dir_path in
    let* st = F.stat_ino t dir in
    if st.Fs_intf.st_kind <> Inode.Directory then Error Enotdir
    else Ok (dir, name)

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
    let* () =
      if Path.trailing_slash p then
        let* _ino = resolve t p in
        Ok ()
      else Ok ()
    in
    let* dir, name = resolve_parent t p in
    F.remove t ~dir name ~rmdir:false

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
    let* ino = resolve t p in
    F.stat_ino t ino

  let exists t p = match stat t p with Ok _ -> true | Error _ -> false

  let truncate t p size =
    let* ino = resolve t p in
    F.truncate_ino t ~ino ~size

  let read t p ~off ~len =
    let* ino = resolve t p in
    F.read_ino t ~ino ~off ~len

  let write t p ~off data =
    let* ino = resolve t p in
    F.write_ino t ~ino ~off data

  let file_runs t p =
    let* ino = resolve t p in
    F.data_runs t ~ino

  let read_file t p =
    let* ino = resolve t p in
    let* st = F.stat_ino t ino in
    if st.Fs_intf.st_kind = Inode.Directory then Error Eisdir
    else F.read_ino t ~ino ~off:0 ~len:st.Fs_intf.st_size

  let write_file t p data =
    let* dir, name = resolve_parent t p in
    (* "f/" demands a directory: an existing file is ENOTDIR, an existing
       directory is EISDIR, and creating a regular file through the slash
       is EISDIR — decided here, above the name cache. *)
    if Path.trailing_slash p then begin
      match F.lookup t ~dir name with
      | Ok ino ->
          let* st = F.stat_ino t ino in
          if st.Fs_intf.st_kind = Inode.Directory then Error Eisdir
          else Error Enotdir
      | Error Enoent -> Error Eisdir
      | Error _ as e -> e
    end
    else
    let* ino =
      match F.lookup t ~dir name with
      | Ok ino ->
          let* st = F.stat_ino t ino in
          if st.Fs_intf.st_kind = Inode.Directory then Error Eisdir
          else begin
            let* () = F.truncate_ino t ~ino ~size:0 in
            Ok ino
          end
      | Error Enoent -> F.mknod t ~dir name Inode.Regular
      | Error _ as e -> e
    in
    if Bytes.length data = 0 then Ok () else F.write_ino t ~ino ~off:0 data

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
