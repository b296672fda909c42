(* A file-system test battery shared by the FFS and C-FFS suites: every
   case runs unchanged against any Cffs_vfs.Fs_intf.S implementation, so the
   two file systems (and all four C-FFS configurations) are held to the same
   semantics. *)

module Errno = Cffs_vfs.Errno
module Fs_intf = Cffs_vfs.Fs_intf
module Inode = Cffs_vfs.Inode
module Prng = Cffs_util.Prng

let check = Alcotest.check
let err = Alcotest.testable Errno.pp ( = )
let ures = Alcotest.result Alcotest.unit err

module Make (F : Fs_intf.S) = struct
  let ok what = Errno.get_ok what

  let payload n seed =
    let prng = Prng.create seed in
    Prng.bytes prng n

  (* ---------------- basic data path ---------------- *)

  let test_write_read fs () =
    ok "mkdir" (F.mkdir fs "/d");
    let data = payload 1000 1 in
    ok "write" (F.write_file fs "/d/f" data);
    check Alcotest.bytes "roundtrip" data (ok "read" (F.read_file fs "/d/f"));
    let st = ok "stat" (F.stat fs "/d/f") in
    check Alcotest.int "size" 1000 st.Fs_intf.st_size;
    check Alcotest.bool "kind" true (st.Fs_intf.st_kind = Inode.Regular)

  let test_empty_file fs () =
    ok "create" (F.create fs "/empty");
    check Alcotest.int "size 0" 0 (ok "stat" (F.stat fs "/empty")).Fs_intf.st_size;
    check Alcotest.bytes "empty read" Bytes.empty (ok "read" (F.read_file fs "/empty"))

  let test_overwrite_grow_shrink fs () =
    ok "w1" (F.write_file fs "/f" (payload 5000 1));
    ok "w2 shrink" (F.write_file fs "/f" (payload 100 2));
    check Alcotest.bytes "shrunk" (payload 100 2) (ok "r" (F.read_file fs "/f"));
    ok "w3 grow" (F.write_file fs "/f" (payload 9000 3));
    check Alcotest.bytes "grown" (payload 9000 3) (ok "r" (F.read_file fs "/f"))

  let test_append fs () =
    ok "w" (F.write_file fs "/f" (Bytes.of_string "hello "));
    ok "a" (F.append_file fs "/f" (Bytes.of_string "world"));
    check Alcotest.bytes "appended" (Bytes.of_string "hello world")
      (ok "r" (F.read_file fs "/f"))

  let test_partial_io fs () =
    ok "w" (F.write_file fs "/f" (Bytes.make 10000 'a'));
    ok "pw" (F.write fs "/f" ~off:5000 (Bytes.make 100 'b'));
    let r = ok "pr" (F.read fs "/f" ~off:4999 ~len:102) in
    check Alcotest.bytes "partial rw"
      (Bytes.of_string ("a" ^ String.make 100 'b' ^ "a"))
      r;
    (* Reading past EOF is clipped. *)
    check Alcotest.int "clipped" 1000 (Bytes.length (ok "r" (F.read fs "/f" ~off:9000 ~len:5000)))

  let test_sparse_hole fs () =
    ok "create" (F.create fs "/sparse");
    ok "far write" (F.write fs "/sparse" ~off:100000 (Bytes.of_string "end"));
    let st = ok "stat" (F.stat fs "/sparse") in
    check Alcotest.int "size" 100003 st.Fs_intf.st_size;
    (* The hole reads as zeros. *)
    let hole = ok "hole" (F.read fs "/sparse" ~off:50000 ~len:64) in
    check Alcotest.bytes "zeros" (Bytes.make 64 '\000') hole;
    check Alcotest.bytes "tail" (Bytes.of_string "end")
      (ok "tail" (F.read fs "/sparse" ~off:100000 ~len:3));
    (* Sparse: far fewer blocks than the size suggests. *)
    check Alcotest.bool "few blocks" true (st.Fs_intf.st_blocks < 8)

  let test_big_file fs () =
    (* Crosses the single-indirect boundary (48 KB + 4 MB) into
       double-indirect territory. *)
    let n = (5 * 1024 * 1024) + 4321 in
    let data = payload n 9 in
    ok "w big" (F.write_file fs "/big" data);
    check Alcotest.bytes "big roundtrip" data (ok "r" (F.read_file fs "/big"));
    F.remount fs;
    check Alcotest.bytes "big after remount" data (ok "r2" (F.read_file fs "/big"))

  let test_truncate fs () =
    ok "w" (F.write_file fs "/f" (payload 100000 1));
    let free0 = (F.usage fs).Fs_intf.free_blocks in
    ok "trunc" (F.write_file fs "/f" Bytes.empty);
    check Alcotest.int "size 0" 0 (ok "st" (F.stat fs "/f")).Fs_intf.st_size;
    check Alcotest.bool "blocks freed" true ((F.usage fs).Fs_intf.free_blocks > free0)

  let test_partial_truncate fs () =
    let data = payload 100000 6 in
    ok "w" (F.write_file fs "/f" data);
    let free_full = (F.usage fs).Fs_intf.free_blocks in
    (* Shrink to a non-block-aligned size. *)
    ok "shrink" (F.truncate fs "/f" 45000);
    check Alcotest.int "size" 45000 (ok "st" (F.stat fs "/f")).Fs_intf.st_size;
    check Alcotest.bytes "kept prefix" (Bytes.sub data 0 45000)
      (ok "r" (F.read_file fs "/f"));
    check Alcotest.bool "blocks freed" true
      ((F.usage fs).Fs_intf.free_blocks > free_full);
    (* Grow back: the reappearing range must read as zeros. *)
    ok "grow" (F.truncate fs "/f" 50000);
    check Alcotest.int "size grown" 50000 (ok "st" (F.stat fs "/f")).Fs_intf.st_size;
    let tail = ok "r2" (F.read fs "/f" ~off:45000 ~len:5000) in
    check Alcotest.bytes "zeros after regrow" (Bytes.make 5000 '\000') tail;
    F.remount fs;
    check Alcotest.bytes "persisted prefix" (Bytes.sub data 0 45000)
      (ok "r3" (F.read fs "/f" ~off:0 ~len:45000))

  let test_truncate_large_file fs () =
    (* Shrink across the double-indirect boundary and verify indirect blocks
       are released. *)
    let data = payload ((5 * 1024 * 1024) + 100) 7 in
    ok "w" (F.write_file fs "/big" data);
    let blocks_full = (ok "st" (F.stat fs "/big")).Fs_intf.st_blocks in
    ok "shrink" (F.truncate fs "/big" 8192);
    let st = ok "st2" (F.stat fs "/big") in
    check Alcotest.int "2 blocks left" 2 st.Fs_intf.st_blocks;
    check Alcotest.bool "was much bigger" true (blocks_full > 1000);
    check Alcotest.bytes "content" (Bytes.sub data 0 8192) (ok "r" (F.read_file fs "/big"));
    check Alcotest.bool "truncate dir rejected" true
      (F.truncate fs "/" 0 = Error Errno.Eisdir)

  (* ---------------- namespace ---------------- *)

  let test_mkdir_nesting fs () =
    ok "deep" (F.mkdir_p fs "/a/b/c/d/e");
    ok "w" (F.write_file fs "/a/b/c/d/e/f" (Bytes.of_string "x"));
    check Alcotest.bool "exists" true (F.exists fs "/a/b/c/d/e/f");
    check Alcotest.bool "mkdir_p idempotent" true (F.mkdir_p fs "/a/b/c" = Ok ())

  let test_list_dir fs () =
    ok "mkdir" (F.mkdir fs "/d");
    List.iter (fun n -> ok "w" (F.write_file fs ("/d/" ^ n) (Bytes.of_string n)))
      [ "zeta"; "alpha"; "mid" ];
    ok "sub" (F.mkdir fs "/d/sub");
    check (Alcotest.list Alcotest.string) "sorted names"
      [ "alpha"; "mid"; "sub"; "zeta" ]
      (ok "ls" (F.list_dir fs "/d"))

  let test_unlink fs () =
    ok "w" (F.write_file fs "/f" (Bytes.of_string "x"));
    ok "rm" (F.unlink fs "/f");
    check Alcotest.bool "gone" false (F.exists fs "/f");
    check ures "again fails" (Error Errno.Enoent) (F.unlink fs "/f")

  let test_rmdir fs () =
    ok "mk" (F.mkdir fs "/d");
    ok "w" (F.write_file fs "/d/f" (Bytes.of_string "x"));
    check ures "not empty" (Error Errno.Enotempty) (F.rmdir fs "/d");
    ok "rm f" (F.unlink fs "/d/f");
    check ures "now ok" (Ok ()) (F.rmdir fs "/d");
    check Alcotest.bool "gone" false (F.exists fs "/d")

  let test_errors fs () =
    ok "mk" (F.mkdir fs "/d");
    ok "w" (F.write_file fs "/d/f" (Bytes.of_string "x"));
    check ures "create exists" (Error Errno.Eexist) (F.create fs "/d/f");
    check ures "mkdir exists" (Error Errno.Eexist) (F.mkdir fs "/d");
    check ures "mkdir over file" (Error Errno.Eexist) (F.mkdir fs "/d/f");
    check Alcotest.bool "enoent read" true (F.read_file fs "/nope" = Error Errno.Enoent);
    check Alcotest.bool "enoent parent" true
      (F.write_file fs "/nope/f" (Bytes.of_string "x") = Error Errno.Enoent);
    check Alcotest.bool "enotdir component" true
      (F.write_file fs "/d/f/g" (Bytes.of_string "x") = Error Errno.Enotdir);
    check Alcotest.bool "eisdir read" true (F.read_file fs "/d" = Error Errno.Eisdir);
    check ures "unlink dir" (Error Errno.Eisdir) (F.unlink fs "/d");
    check ures "rmdir file" (Error Errno.Enotdir) (F.rmdir fs "/d/f")

  let test_nlink_semantics fs () =
    ok "mk" (F.mkdir fs "/d");
    let root_before = (ok "st" (F.stat fs "/")).Fs_intf.st_nlink in
    ok "mk2" (F.mkdir fs "/e");
    check Alcotest.int "parent nlink grows" (root_before + 1)
      (ok "st" (F.stat fs "/")).Fs_intf.st_nlink;
    ok "rm" (F.rmdir fs "/e");
    check Alcotest.int "parent nlink shrinks" root_before
      (ok "st" (F.stat fs "/")).Fs_intf.st_nlink;
    check Alcotest.int "dir nlink" 2 (ok "st" (F.stat fs "/d")).Fs_intf.st_nlink

  (* ---------------- rename ---------------- *)

  let test_rename_file fs () =
    ok "w" (F.write_file fs "/f" (Bytes.of_string "content"));
    ok "mv" (F.rename_path fs ~src:"/f" ~dst:"/g");
    check Alcotest.bool "src gone" false (F.exists fs "/f");
    check Alcotest.bytes "content moved" (Bytes.of_string "content")
      (ok "r" (F.read_file fs "/g"))

  let test_rename_across_dirs fs () =
    ok "mk" (F.mkdir_p fs "/a/b");
    ok "mk2" (F.mkdir fs "/c");
    ok "w" (F.write_file fs "/a/b/f" (Bytes.of_string "zzz"));
    ok "mv" (F.rename_path fs ~src:"/a/b/f" ~dst:"/c/f2");
    check Alcotest.bytes "moved" (Bytes.of_string "zzz") (ok "r" (F.read_file fs "/c/f2"))

  let test_rename_replaces fs () =
    ok "w1" (F.write_file fs "/f" (Bytes.of_string "new"));
    ok "w2" (F.write_file fs "/g" (Bytes.of_string "old"));
    ok "mv" (F.rename_path fs ~src:"/f" ~dst:"/g");
    check Alcotest.bytes "replaced" (Bytes.of_string "new") (ok "r" (F.read_file fs "/g"));
    check Alcotest.bool "src gone" false (F.exists fs "/f")

  (* POSIX: renaming a name onto another link of the same file succeeds
     and changes nothing. *)
  let test_rename_onto_own_link fs () =
    ok "w" (F.write_file fs "/f" (Bytes.of_string "x"));
    ok "ln" (F.link fs ~existing:"/f" ~target:"/g");
    ok "mv" (F.rename_path fs ~src:"/f" ~dst:"/g");
    check (Alcotest.list Alcotest.string) "both names, once each" [ "f"; "g" ]
      (List.sort compare (ok "ls" (F.list_dir fs "/")));
    check Alcotest.int "nlink" 2 (ok "stat" (F.stat fs "/g")).Fs_intf.st_nlink

  let test_rename_dir fs () =
    ok "mk" (F.mkdir_p fs "/a/b");
    ok "w" (F.write_file fs "/a/b/f" (Bytes.of_string "deep"));
    ok "mkc" (F.mkdir fs "/c");
    ok "mv" (F.rename_path fs ~src:"/a" ~dst:"/c/a2");
    check Alcotest.bytes "subtree moved" (Bytes.of_string "deep")
      (ok "r" (F.read_file fs "/c/a2/b/f"));
    check Alcotest.bool "old gone" false (F.exists fs "/a")

  let test_rename_into_self_rejected fs () =
    ok "mk" (F.mkdir_p fs "/a/b");
    check ures "into own subtree" (Error Errno.Einval)
      (F.rename_path fs ~src:"/a" ~dst:"/a/b/x");
    check ures "onto itself is a no-op" (Ok ()) (F.rename_path fs ~src:"/a" ~dst:"/a")

  (* ---------------- hard links ---------------- *)

  let test_hardlink fs () =
    ok "mk" (F.mkdir fs "/d");
    ok "w" (F.write_file fs "/f" (Bytes.of_string "shared"));
    ok "ln" (F.link fs ~existing:"/f" ~target:"/d/f2");
    check Alcotest.int "nlink 2" 2 (ok "st" (F.stat fs "/f")).Fs_intf.st_nlink;
    check Alcotest.bytes "read via link" (Bytes.of_string "shared")
      (ok "r" (F.read_file fs "/d/f2"));
    (* Writing through one name is visible through the other. *)
    ok "w2" (F.write fs "/d/f2" ~off:0 (Bytes.of_string "SHARED"));
    check Alcotest.bytes "shared storage" (Bytes.of_string "SHARED")
      (ok "r2" (F.read_file fs "/f"));
    ok "rm" (F.unlink fs "/f");
    check Alcotest.int "nlink 1" 1 (ok "st2" (F.stat fs "/d/f2")).Fs_intf.st_nlink;
    check Alcotest.bytes "survives" (Bytes.of_string "SHARED")
      (ok "r3" (F.read_file fs "/d/f2"))

  let test_hardlink_errors fs () =
    ok "mk" (F.mkdir fs "/d");
    check ures "link dir" (Error Errno.Eisdir) (F.link fs ~existing:"/d" ~target:"/d2");
    ok "w" (F.write_file fs "/f" (Bytes.of_string "x"));
    check ures "target exists" (Error Errno.Eexist) (F.link fs ~existing:"/f" ~target:"/d")

  (* ---------------- persistence & capacity ---------------- *)

  let test_remount_persistence fs () =
    ok "mk" (F.mkdir_p fs "/a/b");
    ok "w1" (F.write_file fs "/a/b/f" (payload 3000 4));
    ok "w2" (F.write_file fs "/top" (payload 200 5));
    F.remount fs;
    check Alcotest.bytes "deep file" (payload 3000 4) (ok "r" (F.read_file fs "/a/b/f"));
    check Alcotest.bytes "top file" (payload 200 5) (ok "r" (F.read_file fs "/top"));
    check (Alcotest.list Alcotest.string) "root listing" [ "a"; "top" ]
      (ok "ls" (F.list_dir fs "/"))

  let test_many_files fs () =
    ok "mk" (F.mkdir fs "/many");
    for i = 0 to 299 do
      ok "w" (F.write_file fs (Printf.sprintf "/many/f%03d" i) (payload (100 + i) i))
    done;
    F.remount fs;
    check Alcotest.int "300 files" 300 (List.length (ok "ls" (F.list_dir fs "/many")));
    for i = 0 to 299 do
      check Alcotest.bytes "content"
        (payload (100 + i) i)
        (ok "r" (F.read_file fs (Printf.sprintf "/many/f%03d" i)))
    done;
    for i = 0 to 299 do
      ok "rm" (F.unlink fs (Printf.sprintf "/many/f%03d" i))
    done;
    check Alcotest.int "empty" 0 (List.length (ok "ls" (F.list_dir fs "/many")));
    ok "rmdir" (F.rmdir fs "/many")

  let test_space_reclaimed fs () =
    let free0 = (F.usage fs).Fs_intf.free_blocks in
    for i = 0 to 49 do
      ok "w" (F.write_file fs (Printf.sprintf "/f%02d" i) (payload 20000 i))
    done;
    check Alcotest.bool "space consumed" true ((F.usage fs).Fs_intf.free_blocks < free0);
    for i = 0 to 49 do
      ok "rm" (F.unlink fs (Printf.sprintf "/f%02d" i))
    done;
    (* Allow a few blocks of permanent metadata growth (e.g. C-FFS's
       external inode file never shrinks). *)
    check Alcotest.bool "space reclaimed" true
      ((F.usage fs).Fs_intf.free_blocks >= free0 - 4)

  let test_enospc fs () =
    (* Fill the device; expect a clean ENOSPC, not a crash. *)
    let rec fill i =
      if i > 100000 then Alcotest.fail "device never filled"
      else begin
        match F.write_file fs (Printf.sprintf "/x%05d" i) (Bytes.make 65536 'x') with
        | Ok () -> fill (i + 1)
        | Error Errno.Enospc -> i
        | Error e -> Alcotest.failf "unexpected error %s" (Errno.to_string e)
      end
    in
    let n = fill 0 in
    check Alcotest.bool "wrote some files first" true (n > 3);
    (* The file system is still usable: delete one, write a small file. *)
    ok "rm" (F.unlink fs "/x00000");
    ok "w" (F.write_file fs "/small" (Bytes.of_string "fits"))

  (* A first block of 8-byte names with every other one unlinked has room
     only in 16-byte gaps: a 100-byte name must go to a block that can
     take it whole, and the create must leave a clean file system. *)
  let test_fragmented_block ~fsck fs () =
    ok "mkdir" (F.mkdir fs "/d");
    let name i = Printf.sprintf "/d/n%07d" i in
    let size () = (ok "stat" (F.stat fs "/d")).Fs_intf.st_size in
    ok "create" (F.create fs (name 0));
    let one_block = size () in
    let rec fill i =
      ok "create" (F.create fs (name i));
      if size () > one_block then i else fill (i + 1)
    in
    let spilled = fill 1 in
    for i = 0 to spilled - 1 do
      if i mod 2 = 1 then ok "unlink" (F.unlink fs (name i))
    done;
    ok "long name" (F.create fs ("/d/" ^ String.make 100 'L'));
    F.sync fs;
    let r = fsck fs in
    if not (Cffs_fsck.Report.clean r) then
      Alcotest.failf "fsck: %s" (Format.asprintf "%a" Cffs_fsck.Report.pp r)

  (* ---------------- model-based property test ---------------- *)

  (* A reference model: path -> File contents | Dir. *)
  module Model = struct
    type node = MFile of bytes | MDir

    let create () =
      let t = Hashtbl.create 64 in
      Hashtbl.replace t "/" MDir;
      t

    let parent p = match Cffs_vfs.Path.dirname_basename p with
      | Ok (d, _) -> d
      | Error _ -> "/"

    let is_dir t p = Hashtbl.find_opt t p = Some MDir
    let exists t p = Hashtbl.mem t p

    let children t p =
      let prefix = if p = "/" then "/" else p ^ "/" in
      Hashtbl.fold
        (fun q _ acc ->
          if q <> "/" && String.length q > String.length prefix
             && String.sub q 0 (String.length prefix) = prefix
             && not (String.contains
                       (String.sub q (String.length prefix)
                          (String.length q - String.length prefix))
                       '/')
          then q :: acc
          else acc)
        t []

    let write_file t p data =
      if not (is_dir t (parent p)) then false
      else if is_dir t p then false
      else begin
        Hashtbl.replace t p (MFile data);
        true
      end

    let mkdir t p =
      if exists t p || not (is_dir t (parent p)) then false
      else begin
        Hashtbl.replace t p MDir;
        true
      end

    let unlink t p =
      match Hashtbl.find_opt t p with
      | Some (MFile _) ->
          Hashtbl.remove t p;
          true
      | Some MDir | None -> false

    let rmdir t p =
      if p <> "/" && is_dir t p && children t p = [] then begin
        Hashtbl.remove t p;
        true
      end
      else false
  end

  type op =
    | Op_write of string * int
    | Op_mkdir of string
    | Op_unlink of string
    | Op_rmdir of string

  let dirs_pool = [ "/d0"; "/d1"; "/d0/s0"; "/d1/s1" ]
  let files_pool =
    [ "/f0"; "/f1"; "/d0/f0"; "/d0/f1"; "/d1/f0"; "/d0/s0/f0"; "/d1/s1/f0" ]

  let op_gen =
    let open QCheck.Gen in
    frequency
      [
        (4, map2 (fun i n -> Op_write (List.nth files_pool (i mod 7), n))
             (int_bound 100) (int_range 0 9000));
        (2, map (fun i -> Op_mkdir (List.nth dirs_pool (i mod 4))) (int_bound 100));
        (2, map (fun i -> Op_unlink (List.nth files_pool (i mod 7))) (int_bound 100));
        (1, map (fun i -> Op_rmdir (List.nth dirs_pool (i mod 4))) (int_bound 100));
      ]

  let apply_both fs model op =
    match op with
    | Op_write (p, n) ->
        let data = payload n (Hashtbl.hash p + n) in
        let fs_ok = F.write_file fs p data = Ok () in
        let model_ok = Model.write_file model p data in
        if fs_ok <> model_ok then
          Alcotest.failf "write_file %s: fs=%b model=%b" p fs_ok model_ok
    | Op_mkdir p ->
        let fs_ok = F.mkdir fs p = Ok () in
        let model_ok = Model.mkdir model p in
        if fs_ok <> model_ok then Alcotest.failf "mkdir %s: fs=%b model=%b" p fs_ok model_ok
    | Op_unlink p ->
        let fs_ok = F.unlink fs p = Ok () in
        let model_ok = Model.unlink model p in
        if fs_ok <> model_ok then Alcotest.failf "unlink %s: fs=%b model=%b" p fs_ok model_ok
    | Op_rmdir p ->
        let fs_ok = F.rmdir fs p = Ok () in
        let model_ok = Model.rmdir model p in
        if fs_ok <> model_ok then Alcotest.failf "rmdir %s: fs=%b model=%b" p fs_ok model_ok

  let compare_trees fs model =
    Hashtbl.iter
      (fun p node ->
        match node with
        | Model.MDir ->
            if p <> "/" then begin
              let st = ok ("stat dir " ^ p) (F.stat fs p) in
              check Alcotest.bool ("dir kind " ^ p) true
                (st.Fs_intf.st_kind = Inode.Directory)
            end;
            let expect = List.sort compare
                (List.map (fun q ->
                     match Cffs_vfs.Path.dirname_basename q with
                     | Ok (_, b) -> b
                     | Error _ -> assert false)
                    (Model.children model p))
            in
            check (Alcotest.list Alcotest.string) ("listing " ^ p) expect
              (ok ("ls " ^ p) (F.list_dir fs p))
        | Model.MFile data ->
            check Alcotest.bytes ("content " ^ p) data (ok ("read " ^ p) (F.read_file fs p)))
      model

  let model_property fresh_fs ops =
    let fs = fresh_fs () in
    let model = Model.create () in
    List.iter (apply_both fs model) ops;
    compare_trees fs model;
    F.remount fs;
    compare_trees fs model;
    true

  let qcheck_model fresh_fs =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:40 ~name:"random ops agree with model and survive remount"
         (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 60) op_gen))
         (model_property fresh_fs))

  (* ---------------- the suite ---------------- *)

  let tests ~fsck fresh_fs =
    let t name f = Alcotest.test_case name `Quick (fun () -> f (fresh_fs ()) ()) in
    [
      t "write/read roundtrip" test_write_read;
      t "empty file" test_empty_file;
      t "overwrite grow/shrink" test_overwrite_grow_shrink;
      t "append" test_append;
      t "partial I/O" test_partial_io;
      t "sparse holes" test_sparse_hole;
      t "big file (double indirect)" test_big_file;
      t "truncate frees blocks" test_truncate;
      t "partial truncate" test_partial_truncate;
      t "truncate large file" test_truncate_large_file;
      t "nested mkdir" test_mkdir_nesting;
      t "list_dir" test_list_dir;
      t "unlink" test_unlink;
      t "rmdir" test_rmdir;
      t "error codes" test_errors;
      t "nlink semantics" test_nlink_semantics;
      t "rename file" test_rename_file;
      t "rename across dirs" test_rename_across_dirs;
      t "rename replaces" test_rename_replaces;
      t "rename onto own link" test_rename_onto_own_link;
      t "rename directory" test_rename_dir;
      t "rename into self rejected" test_rename_into_self_rejected;
      t "hard links" test_hardlink;
      t "hard link errors" test_hardlink_errors;
      t "remount persistence" test_remount_persistence;
      t "many files in one dir" test_many_files;
      t "space reclaimed" test_space_reclaimed;
      t "ENOSPC handling" test_enospc;
      t "long name after a fragmented block" (test_fragmented_block ~fsck);
      qcheck_model fresh_fs;
    ]
end
