(* Tests for the VFS layer: paths, errno, the on-disk inode codec, the
   shared block map and the shared cylinder-group allocator. *)

module Errno = Cffs_vfs.Errno
module Path = Cffs_vfs.Path
module Inode = Cffs_vfs.Inode
module Bmap = Cffs_vfs.Bmap
module Alloc = Cffs_vfs.Alloc
module Cache = Cffs_cache.Cache
module Blockdev = Cffs_blockdev.Blockdev

let check = Alcotest.check
let qtest ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

let err = Alcotest.testable Errno.pp ( = )
let path_res = Alcotest.result (Alcotest.list Alcotest.string) err

(* ------------------------------------------------------------------ *)
(* Path *)

let test_path_split () =
  check path_res "root" (Ok []) (Path.split "/");
  check path_res "simple" (Ok [ "a"; "b" ]) (Path.split "/a/b");
  check path_res "extra slashes" (Ok [ "a"; "b" ]) (Path.split "//a///b/");
  check path_res "relative rejected" (Error Errno.Einval) (Path.split "a/b");
  check path_res "empty rejected" (Error Errno.Einval) (Path.split "");
  check path_res "dots rejected" (Error Errno.Einval) (Path.split "/a/../b");
  check path_res "dotdot at root rejected" (Error Errno.Einval) (Path.split "/..");
  check path_res "dot at root rejected" (Error Errno.Einval) (Path.split "/.");
  check path_res "long name"
    (Error Errno.Enametoolong)
    (Path.split ("/" ^ String.make 300 'x'))

let test_path_trailing_slash () =
  let b = Alcotest.bool in
  check b "dir-ish" true (Path.trailing_slash "/a/");
  check b "nested" true (Path.trailing_slash "/a/b/");
  check b "root is not" false (Path.trailing_slash "/");
  check b "plain" false (Path.trailing_slash "/a")

let test_path_dirname () =
  let pair = Alcotest.result (Alcotest.pair Alcotest.string Alcotest.string) err in
  check pair "two levels" (Ok ("/a", "b")) (Path.dirname_basename "/a/b");
  check pair "top level" (Ok ("/", "a")) (Path.dirname_basename "/a");
  check pair "root invalid" (Error Errno.Einval) (Path.dirname_basename "/")

let test_path_join () =
  check Alcotest.string "root join" "/a" (Path.join "/" "a");
  check Alcotest.string "nested join" "/a/b" (Path.join "/a" "b")

(* ------------------------------------------------------------------ *)
(* Pathfs normalization: a trailing slash asserts "this is a directory",
   and the errno must be the same on every file system, with and without
   the dentry cache (the check sits above the cache in Pathfs). *)

let pathfs_mounts () =
  let module Namei = Cffs_namei.Namei in
  let mk_cffs namei =
    let dev = Blockdev.memory ~block_size:4096 ~nblocks:8192 in
    Cffs_vfs.Fs_intf.Packed ((module Cffs), Cffs.format ~namei dev)
  in
  let mk_ffs namei =
    let dev = Blockdev.memory ~block_size:4096 ~nblocks:8192 in
    Cffs_vfs.Fs_intf.Packed ((module Ffs), Ffs.format ~namei dev)
  in
  [
    ("cffs namei=on", mk_cffs Namei.config_default);
    ("cffs namei=off", mk_cffs Namei.config_disabled);
    ("ffs namei=on", mk_ffs Namei.config_default);
    ("ffs namei=off", mk_ffs Namei.config_disabled);
  ]

let test_pathfs_trailing_slash () =
  List.iter
    (fun (label, Cffs_vfs.Fs_intf.Packed ((module F), fs)) ->
      let ok what = function
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s: %s: %s" label what (Errno.to_string e)
      in
      let expect what want got =
        let e = match got with Ok _ -> None | Error e -> Some e in
        check (Alcotest.option err) (label ^ ": " ^ what) want e
      in
      ok "mkdir /d" (F.mkdir fs "/d");
      ok "create /f" (F.write_file fs "/f" (Bytes.of_string "x"));
      expect "stat /f/" (Some Errno.Enotdir) (F.stat fs "/f/");
      expect "stat /d/" None (F.stat fs "/d/");
      expect "read /f/" (Some Errno.Enotdir) (F.read_file fs "/f/");
      expect "write /f/" (Some Errno.Enotdir)
        (F.write_file fs "/f/" (Bytes.of_string "y"));
      expect "write /d/" (Some Errno.Eisdir)
        (F.write_file fs "/d/" (Bytes.of_string "y"));
      expect "create /f2/" (Some Errno.Eisdir)
        (F.write_file fs "/f2/" (Bytes.of_string "x"));
      expect "stat /f2" (Some Errno.Enoent) (F.stat fs "/f2");
      expect "unlink /f/" (Some Errno.Enotdir) (F.unlink fs "/f/");
      expect "unlink /d/" (Some Errno.Eisdir) (F.unlink fs "/d/");
      (* A warm positive dentry for /f must not change the answer. *)
      ok "stat /f" (F.stat fs "/f");
      expect "stat /f/ (warm)" (Some Errno.Enotdir) (F.stat fs "/f/");
      (* And the file is still there and untouched. *)
      ok "unlink /f" (F.unlink fs "/f"))
    (pathfs_mounts ())

(* ------------------------------------------------------------------ *)
(* Errno *)

let test_errno_strings () =
  check Alcotest.string "enoent" "ENOENT" (Errno.to_string Errno.Enoent);
  check Alcotest.string "enospc" "ENOSPC" (Errno.to_string Errno.Enospc)

let test_errno_bind () =
  let open Errno in
  let ok = (let* x = Ok 1 in Ok (x + 1)) in
  check (Alcotest.result Alcotest.int err) "bind ok" (Ok 2) ok;
  let er = (let* _ = (Error Enoent : int Errno.result) in Ok 0) in
  check (Alcotest.result Alcotest.int err) "bind error" (Error Enoent) er

let test_errno_get_ok () =
  check Alcotest.int "get_ok" 5 (Errno.get_ok "ctx" (Ok 5));
  check Alcotest.bool "get_ok raises" true
    (try ignore (Errno.get_ok "ctx" (Error Errno.Eexist)); false
     with Failure m -> m = "ctx: EEXIST")

(* ------------------------------------------------------------------ *)
(* Inode codec *)

let test_inode_mk () =
  let f = Inode.mk Inode.Regular in
  check Alcotest.int "file nlink" 1 f.Inode.nlink;
  let d = Inode.mk Inode.Directory in
  check Alcotest.int "dir nlink" 2 d.Inode.nlink

let test_inode_roundtrip () =
  let i = Inode.mk Inode.Regular in
  i.Inode.size <- 123456789;
  i.Inode.mtime <- 42;
  i.Inode.generation <- 7;
  i.Inode.flags <- 1;
  Array.iteri (fun k _ -> i.Inode.direct.(k) <- 1000 + k) i.Inode.direct;
  i.Inode.indirect <- 5000;
  i.Inode.dindirect <- 6000;
  i.Inode.spare.(0) <- 77;
  let b = Bytes.make 256 '\xaa' in
  Inode.encode i b 128;
  let j = Inode.decode b 128 in
  check Alcotest.bool "kind" true (j.Inode.kind = Inode.Regular);
  check Alcotest.int "size" i.Inode.size j.Inode.size;
  check Alcotest.int "mtime" 42 j.Inode.mtime;
  check Alcotest.int "gen" 7 j.Inode.generation;
  check Alcotest.int "flags" 1 j.Inode.flags;
  check (Alcotest.array Alcotest.int) "direct" i.Inode.direct j.Inode.direct;
  check Alcotest.int "indirect" 5000 j.Inode.indirect;
  check Alcotest.int "spare" 77 j.Inode.spare.(0)

let test_inode_copy_deep () =
  let i = Inode.mk Inode.Regular in
  i.Inode.direct.(0) <- 1;
  let j = Inode.copy i in
  j.Inode.direct.(0) <- 2;
  check Alcotest.int "copy is deep" 1 i.Inode.direct.(0)

let test_inode_bad_kind_decodes_free () =
  let b = Bytes.make 128 '\000' in
  Cffs_util.Codec.set_u16 b 0 99;
  check Alcotest.bool "unknown kind -> Free" true
    ((Inode.decode b 0).Inode.kind = Inode.Free)

let qcheck_inode_roundtrip =
  qtest "inode: encode/decode roundtrips random inodes"
    QCheck.(quad (int_bound 2) (int_bound 0xFFFF) (int_bound 1000000000) (int_bound 0xFFFF))
    (fun (k, nlink, size, mtime) ->
      let i = Inode.empty () in
      i.Inode.kind <-
        (match k with 0 -> Inode.Free | 1 -> Inode.Regular | _ -> Inode.Directory);
      i.Inode.nlink <- nlink;
      i.Inode.size <- size;
      i.Inode.mtime <- mtime;
      let b = Bytes.make 128 '\000' in
      Inode.encode i b 0;
      let j = Inode.decode b 0 in
      j.Inode.kind = i.Inode.kind && j.Inode.nlink = nlink && j.Inode.size = size
      && j.Inode.mtime = mtime)

(* ------------------------------------------------------------------ *)
(* Bmap over a memory device *)

let mk_cache () =
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:(1 lsl 21) in
  Cache.create ~policy:Cache.Delayed dev ~capacity_blocks:4096

let seq_alloc () =
  let next = ref 100 in
  fun ~hint:_ ->
    let b = !next in
    incr next;
    Ok b

let test_bmap_direct () =
  let cache = mk_cache () in
  let inode = Inode.mk Inode.Regular in
  let alloc = seq_alloc () in
  let p0 = Errno.get_ok "alloc" (Bmap.alloc cache inode 0 ~alloc) in
  check Alcotest.int "first block" 100 p0;
  check Alcotest.int "stored in direct" 100 inode.Inode.direct.(0);
  check (Alcotest.result (Alcotest.option Alcotest.int) err) "read back" (Ok (Some 100))
    (Bmap.read cache inode 0);
  (* Idempotent: mapping again returns the same block. *)
  check Alcotest.int "same block" 100 (Errno.get_ok "re" (Bmap.alloc cache inode 0 ~alloc))

let test_bmap_holes () =
  let cache = mk_cache () in
  let inode = Inode.mk Inode.Regular in
  check (Alcotest.result (Alcotest.option Alcotest.int) err) "direct hole" (Ok None)
    (Bmap.read cache inode 5);
  check (Alcotest.result (Alcotest.option Alcotest.int) err) "indirect hole" (Ok None)
    (Bmap.read cache inode 500);
  check (Alcotest.result (Alcotest.option Alcotest.int) err) "dindirect hole" (Ok None)
    (Bmap.read cache inode 100000)

let test_bmap_indirect_boundaries () =
  let cache = mk_cache () in
  let inode = Inode.mk Inode.Regular in
  let alloc = seq_alloc () in
  let ppb = 1024 in
  (* One block in each region: direct, single-indirect, double-indirect. *)
  let lblks = [ 0; Inode.n_direct; Inode.n_direct + ppb - 1; Inode.n_direct + ppb;
                Inode.n_direct + ppb + (ppb * ppb) - 1 ] in
  List.iter
    (fun l ->
      let p = Errno.get_ok "alloc" (Bmap.alloc cache inode l ~alloc) in
      check (Alcotest.result (Alcotest.option Alcotest.int) err)
        (Printf.sprintf "read back lblk %d" l)
        (Ok (Some p)) (Bmap.read cache inode l))
    lblks;
  check Alcotest.bool "indirect allocated" true (inode.Inode.indirect <> 0);
  check Alcotest.bool "dindirect allocated" true (inode.Inode.dindirect <> 0)

let test_bmap_efbig () =
  let cache = mk_cache () in
  let inode = Inode.mk Inode.Regular in
  let too_big = Inode.n_direct + 1024 + (1024 * 1024) in
  check (Alcotest.result (Alcotest.option Alcotest.int) err) "read past map"
    (Error Errno.Efbig) (Bmap.read cache inode too_big);
  check Alcotest.bool "alloc past map" true
    (Bmap.alloc cache inode too_big ~alloc:(seq_alloc ()) = Error Errno.Efbig)

let test_bmap_alloc_failure_propagates () =
  let cache = mk_cache () in
  let inode = Inode.mk Inode.Regular in
  let alloc ~hint:_ = Error Errno.Enospc in
  check Alcotest.bool "enospc" true (Bmap.alloc cache inode 0 ~alloc = Error Errno.Enospc)

let test_bmap_hint_contiguity () =
  let cache = mk_cache () in
  let inode = Inode.mk Inode.Regular in
  let hints = ref [] in
  let next = ref 100 in
  let alloc ~hint =
    hints := hint :: !hints;
    let b = !next in
    incr next;
    Ok b
  in
  for l = 0 to 5 do
    ignore (Errno.get_ok "alloc" (Bmap.alloc cache inode l ~alloc))
  done;
  (* After the first block, the hint is always one past the previous one. *)
  check (Alcotest.list Alcotest.int) "hints" [ 0; 101; 102; 103; 104; 105 ]
    (List.rev !hints)

let test_bmap_iter_count () =
  let cache = mk_cache () in
  let inode = Inode.mk Inode.Regular in
  let alloc = seq_alloc () in
  for l = 0 to 20 do
    ignore (Errno.get_ok "alloc" (Bmap.alloc cache inode l ~alloc))
  done;
  let data = ref 0 and meta = ref 0 in
  Bmap.iter cache inode ~data:(fun _ -> incr data) ~meta:(fun _ -> incr meta);
  check Alcotest.int "data blocks" 21 !data;
  check Alcotest.int "meta blocks (indirect)" 1 !meta;
  check Alcotest.int "count" 22 (Bmap.count cache inode)

let qcheck_bmap_model =
  qtest ~count:60 "bmap: random allocations agree with a map model"
    QCheck.(list_of_size (Gen.int_range 1 60) (int_bound 3000))
    (fun lblks ->
      let cache = mk_cache () in
      let inode = Inode.mk Inode.Regular in
      let model = Hashtbl.create 64 in
      let next = ref 1000 in
      let alloc ~hint:_ =
        let b = !next in
        incr next;
        Ok b
      in
      List.for_all
        (fun l ->
          match Bmap.alloc cache inode l ~alloc with
          | Error _ -> false
          | Ok p -> begin
              match Hashtbl.find_opt model l with
              | Some p' -> p = p'
              | None ->
                  Hashtbl.replace model l p;
                  true
            end)
        lblks
      && Hashtbl.fold
           (fun l p acc -> acc && Bmap.read cache inode l = Ok (Some p))
           model true)

(* ------------------------------------------------------------------ *)
(* Alloc, over headers kept in an array: 3 groups of 20 numbers from 1,
   the first 2 bits of each group its metadata. *)

module Hdrs = Alloc.Make (struct
  type t = bytes array

  let read t g = t.(g)
  let write t g b = t.(g) <- b
end)

let alloc_map = Alloc.map ~bitmap:8 ~free:0 ~origin:1 ~per_group:20 ~groups:3 ~first:2

let alloc_headers () =
  Array.init 3 (fun _ ->
      let b = Bytes.make 64 '\000' in
      Alloc.format alloc_map b;
      b)

let int_opt = Alcotest.(option int)

let test_alloc_near () =
  let h = alloc_headers () in
  check Alcotest.int "free after format" 18 (Alloc.free_count alloc_map h.(1));
  check int_opt "group 1 from its first data bit" (Some 23)
    (Hdrs.take_near h alloc_map ~cg:1 ~hint:0);
  check int_opt "hint inside the group" (Some 30) (Hdrs.take_near h alloc_map ~cg:1 ~hint:30);
  check int_opt "hint in another group ignored" (Some 24)
    (Hdrs.take_near h alloc_map ~cg:1 ~hint:5);
  check int_opt "hint on metadata clamps to first" (Some 25)
    (Hdrs.take_near h alloc_map ~cg:1 ~hint:21);
  Hdrs.release h alloc_map 30;
  Hdrs.release h alloc_map 30;
  check Alcotest.int "double release frees once" 15 (Alloc.free_count alloc_map h.(1));
  Hdrs.claim h alloc_map 40;
  check Alcotest.bool "claimed" true (Alloc.mem alloc_map h.(1) 19);
  (* Fill group 2, then ask it again: the probe wraps to group 0. *)
  for _ = 1 to 18 do
    ignore (Hdrs.take_near h alloc_map ~cg:2 ~hint:0)
  done;
  check int_opt "full group wraps" (Some 3) (Hdrs.take_near h alloc_map ~cg:2 ~hint:0)

(* A damaged header whose count and a metadata bit both read free still
   never hands that metadata block out. *)
let test_alloc_metadata_guard () =
  let h = alloc_headers () in
  for _ = 1 to 18 do
    ignore (Hdrs.take_near h alloc_map ~cg:0 ~hint:0)
  done;
  Cffs_util.Bitview.clear h.(0) 8 0;
  Cffs_util.Codec.set_u32 h.(0) 0 1;
  check int_opt "next group instead" (Some 23) (Hdrs.take_near h alloc_map ~cg:0 ~hint:0)

let qcheck_alloc_exhaustion =
  qtest ~count:100 "alloc: every data number once, then None"
    QCheck.(list (pair (int_bound 2) (int_bound 70)))
    (fun asks ->
      let h = alloc_headers () in
      let seen = Hashtbl.create 64 in
      let fresh n =
        let g = (n - 1) / 20 and i = (n - 1) mod 20 in
        g < 3 && i >= 2 && not (Hashtbl.mem seen n)
        && (Hashtbl.replace seen n (); true)
      in
      let asks = asks @ List.init 60 (fun i -> (i mod 3, 0)) in
      List.for_all
        (fun (cg, hint) ->
          match Hdrs.take_near h alloc_map ~cg ~hint with
          | Some n -> fresh n
          | None -> Hashtbl.length seen = 54)
        asks
      && Hashtbl.length seen = 54
      && Array.for_all (fun b -> Alloc.free_count alloc_map b = 0) h)

let () =
  Alcotest.run "cffs_vfs"
    [
      ( "path",
        [
          Alcotest.test_case "split" `Quick test_path_split;
          Alcotest.test_case "trailing slash" `Quick test_path_trailing_slash;
          Alcotest.test_case "dirname/basename" `Quick test_path_dirname;
          Alcotest.test_case "join" `Quick test_path_join;
        ] );
      ( "pathfs",
        [
          Alcotest.test_case "trailing-slash errnos" `Quick
            test_pathfs_trailing_slash;
        ] );
      ( "errno",
        [
          Alcotest.test_case "strings" `Quick test_errno_strings;
          Alcotest.test_case "bind" `Quick test_errno_bind;
          Alcotest.test_case "get_ok" `Quick test_errno_get_ok;
        ] );
      ( "inode",
        [
          Alcotest.test_case "mk" `Quick test_inode_mk;
          Alcotest.test_case "roundtrip" `Quick test_inode_roundtrip;
          Alcotest.test_case "deep copy" `Quick test_inode_copy_deep;
          Alcotest.test_case "bad kind" `Quick test_inode_bad_kind_decodes_free;
          qcheck_inode_roundtrip;
        ] );
      ( "bmap",
        [
          Alcotest.test_case "direct" `Quick test_bmap_direct;
          Alcotest.test_case "holes" `Quick test_bmap_holes;
          Alcotest.test_case "indirect boundaries" `Quick test_bmap_indirect_boundaries;
          Alcotest.test_case "efbig" `Quick test_bmap_efbig;
          Alcotest.test_case "alloc failure" `Quick test_bmap_alloc_failure_propagates;
          Alcotest.test_case "hint contiguity" `Quick test_bmap_hint_contiguity;
          Alcotest.test_case "iter/count" `Quick test_bmap_iter_count;
          qcheck_bmap_model;
        ] );
      ( "alloc",
        [ Alcotest.test_case "take near / release / claim" `Quick test_alloc_near;
          Alcotest.test_case "metadata guard" `Quick test_alloc_metadata_guard;
          qcheck_alloc_exhaustion;
        ] );
    ]
