(* Tests for the namei subsystem: the hash-indexed dentry cache (positive
   and negative entries), the attribute cache, the invalidation hooks on
   every namespace mutation, and the bulk readdir_plus operation.

   The coherence hazards are C-FFS specific: embedded inode numbers are
   positional, so rename and rmdir/recreate *renumber* inodes — a stale
   cache entry would not merely be old, it would point at a different
   object.  Every property here therefore runs on C-FFS (both techniques
   on) unless stated otherwise, and the differential property compares a
   cached mount against an uncached one under random namespace churn. *)

module Errno = Cffs_vfs.Errno
module Inode = Cffs_vfs.Inode
module Blockdev = Cffs_blockdev.Blockdev
module Namei = Cffs_namei.Namei
module Registry = Cffs_obs.Registry
module Experiments = Cffs_harness.Experiments
module Statbench = Cffs_workload.Statbench

let check = Alcotest.check

let qtest ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

let err = Alcotest.testable Errno.pp ( = )

let mk_fs ?(namei = Namei.config_default)
    ?(config = Cffs.config_default) () =
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:8192 in
  Cffs.format ~config ~namei dev

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Errno.to_string e)

let expect_errno what want got =
  let e = match got with Ok _ -> None | Error e -> Some e in
  check (Alcotest.option err) what want e

let payload = Bytes.of_string "payload"

(* ------------------------------------------------------------------ *)
(* Invalidation: no stale entry survives a namespace mutation. *)

let test_no_stale_after_unlink () =
  let fs = mk_fs () in
  ok "mkdir" (Cffs.mkdir fs "/d");
  ok "create" (Cffs.write_file fs "/d/f" payload);
  ignore (ok "warm stat" (Cffs.stat fs "/d/f"));
  ok "unlink" (Cffs.unlink fs "/d/f");
  expect_errno "stat after unlink" (Some Errno.Enoent) (Cffs.stat fs "/d/f");
  (* Recreate: the fresh file must be visible with fresh attributes. *)
  ok "recreate" (Cffs.write_file fs "/d/f" (Bytes.of_string "xx"));
  let st = ok "stat recreated" (Cffs.stat fs "/d/f") in
  check Alcotest.int "fresh size" 2 st.Cffs_vfs.Fs_intf.st_size

let test_no_stale_after_rename () =
  let fs = mk_fs () in
  ok "mkdir" (Cffs.mkdir fs "/d");
  ok "create" (Cffs.write_file fs "/d/a" payload);
  ignore (ok "warm stat" (Cffs.stat fs "/d/a"));
  ok "rename" (Cffs.rename_path fs ~src:"/d/a" ~dst:"/d/b");
  expect_errno "old name gone" (Some Errno.Enoent) (Cffs.stat fs "/d/a");
  let st = ok "new name" (Cffs.stat fs "/d/b") in
  check Alcotest.int "size carried" (Bytes.length payload)
    st.Cffs_vfs.Fs_intf.st_size;
  (* Read through the new name: the renumbered embedded inode must be the
     one the cache serves. *)
  check Alcotest.string "content carried" (Bytes.to_string payload)
    (Bytes.to_string (ok "read" (Cffs.read_file fs "/d/b")))

let test_no_stale_after_dir_rename () =
  (* Renaming a *directory* renumbers every embedded inode beneath it on
     C-FFS (the directory's own blocks keep their addresses, but the
     directory inode itself moves).  Warm entries under both the old and
     the new name must stay coherent. *)
  let fs = mk_fs () in
  ok "mkdir" (Cffs.mkdir fs "/d1");
  ok "create" (Cffs.write_file fs "/d1/x" payload);
  ignore (ok "warm" (Cffs.stat fs "/d1/x"));
  ok "rename dir" (Cffs.rename_path fs ~src:"/d1" ~dst:"/d2");
  expect_errno "old path gone" (Some Errno.Enoent) (Cffs.stat fs "/d1/x");
  expect_errno "old dir gone" (Some Errno.Enoent) (Cffs.stat fs "/d1");
  let st = ok "new path" (Cffs.stat fs "/d2/x") in
  check Alcotest.int "size carried" (Bytes.length payload)
    st.Cffs_vfs.Fs_intf.st_size;
  check Alcotest.string "content carried" (Bytes.to_string payload)
    (Bytes.to_string (ok "read" (Cffs.read_file fs "/d2/x")))

let test_no_stale_after_rmdir () =
  let fs = mk_fs () in
  ok "mkdir" (Cffs.mkdir fs "/d");
  ok "mkdir sub" (Cffs.mkdir fs "/d/sub");
  ok "create" (Cffs.write_file fs "/d/sub/f" payload);
  ignore (ok "warm" (Cffs.stat fs "/d/sub/f"));
  ok "unlink" (Cffs.unlink fs "/d/sub/f");
  ok "rmdir" (Cffs.rmdir fs "/d/sub");
  expect_errno "dir gone" (Some Errno.Enoent) (Cffs.stat fs "/d/sub");
  expect_errno "child gone" (Some Errno.Enoent) (Cffs.stat fs "/d/sub/f");
  (* Recreate the directory: stale entries from its first life (same
     positional inode numbers!) must not resurface. *)
  ok "remkdir" (Cffs.mkdir fs "/d/sub");
  expect_errno "no ghost child" (Some Errno.Enoent) (Cffs.stat fs "/d/sub/f");
  check (Alcotest.list Alcotest.string) "fresh dir is empty" []
    (ok "list" (Cffs.list_dir fs "/d/sub"))

let test_negative_purged_on_create () =
  let fs = mk_fs () in
  ok "mkdir" (Cffs.mkdir fs "/d");
  (* Miss inserts a negative entry... *)
  expect_errno "miss" (Some Errno.Enoent) (Cffs.stat fs "/d/f");
  (* ...twice, so the second one is served from the cache... *)
  let before = Registry.snapshot () in
  expect_errno "negative hit" (Some Errno.Enoent) (Cffs.stat fs "/d/f");
  let delta = Registry.diff (Registry.snapshot ()) before in
  (* The ENOENT may be served by either negative layer: the full-path
     shortcut (which answers before the dentry cache is consulted) or
     the per-component dentry cache. *)
  check Alcotest.bool "negative entry served" true
    (Registry.get_counter delta "namei.negative_hits"
     + Registry.get_counter delta "namei.shortcut_negative_hits"
     > 0);
  (* ...and create must purge it immediately. *)
  ok "create" (Cffs.write_file fs "/d/f" payload);
  ignore (ok "visible" (Cffs.stat fs "/d/f"))

let test_hardlink_coherence () =
  (* Hardlinking externalizes the embedded inode — a renumbering that the
     cache handles with a full flush.  Both names must resolve to the same
     (external) inode afterwards. *)
  let fs = mk_fs () in
  ok "mkdir" (Cffs.mkdir fs "/d");
  ok "create" (Cffs.write_file fs "/d/a" payload);
  ignore (ok "warm" (Cffs.stat fs "/d/a"));
  ok "link" (Cffs.link fs ~existing:"/d/a" ~target:"/d/b");
  let sa = ok "stat a" (Cffs.stat fs "/d/a") in
  let sb = ok "stat b" (Cffs.stat fs "/d/b") in
  check Alcotest.int "same ino" sa.Cffs_vfs.Fs_intf.st_ino
    sb.Cffs_vfs.Fs_intf.st_ino;
  check Alcotest.int "nlink 2" 2 sa.Cffs_vfs.Fs_intf.st_nlink

let test_remount_flushes () =
  let fs = mk_fs () in
  ok "mkdir" (Cffs.mkdir fs "/d");
  ok "create" (Cffs.write_file fs "/d/f" payload);
  ignore (ok "warm" (Cffs.stat fs "/d/f"));
  check Alcotest.bool "entries cached" true
    (Namei.dentry_count (Cffs.namei fs) > 0);
  Cffs.remount fs;
  check Alcotest.int "dentries flushed" 0 (Namei.dentry_count (Cffs.namei fs));
  check Alcotest.int "attrs flushed" 0 (Namei.attr_count (Cffs.namei fs));
  ignore (ok "still resolves" (Cffs.stat fs "/d/f"))

(* ------------------------------------------------------------------ *)
(* Bounds: the LRU caches never exceed their configured capacities. *)

let test_lru_bound () =
  let namei =
    { Namei.config_default with Namei.capacity = 32; attr_capacity = 16 }
  in
  let fs = mk_fs ~namei () in
  ok "mkdir" (Cffs.mkdir fs "/d");
  let before = Registry.snapshot () in
  for i = 0 to 199 do
    let p = Printf.sprintf "/d/f%03d" i in
    ok "create" (Cffs.write_file fs p payload);
    ignore (ok "stat" (Cffs.stat fs p))
  done;
  for i = 0 to 199 do
    ignore (ok "restat" (Cffs.stat fs (Printf.sprintf "/d/f%03d" i)))
  done;
  let s = Cffs.namei fs in
  check Alcotest.bool "dentry bound" true (Namei.dentry_count s <= 32);
  check Alcotest.bool "attr bound" true (Namei.attr_count s <= 16);
  let delta = Registry.diff (Registry.snapshot ()) before in
  check Alcotest.bool "evictions happened" true
    (Registry.get_counter delta "namei.evictions" > 0);
  (* Eviction is silent, never wrong: everything still resolves. *)
  for i = 0 to 199 do
    ignore (ok "resolve" (Cffs.stat fs (Printf.sprintf "/d/f%03d" i)))
  done

let test_disabled_caches_nothing () =
  let fs = mk_fs ~namei:Namei.config_disabled () in
  ok "mkdir" (Cffs.mkdir fs "/d");
  ok "create" (Cffs.write_file fs "/d/f" payload);
  ignore (ok "stat" (Cffs.stat fs "/d/f"));
  expect_errno "miss" (Some Errno.Enoent) (Cffs.stat fs "/d/nope");
  let s = Cffs.namei fs in
  check Alcotest.int "no dentries" 0 (Namei.dentry_count s);
  check Alcotest.int "no attrs" 0 (Namei.attr_count s)

(* ------------------------------------------------------------------ *)
(* readdir_plus: on C-FFS with embedded inodes, listing a directory of
   small files reads the directory blocks and nothing else — no external
   inode fetches, no per-entry reads.  (Small files only: st_blocks of a
   file with an indirect block costs that block's read.) *)

let test_readdir_plus_no_extra_reads () =
  let config = { Cffs.config_default with Cffs.grouping = false } in
  let fs = mk_fs ~config () in
  let nfiles = 32 in
  ok "mkdir" (Cffs.mkdir fs "/d");
  for i = 0 to nfiles - 1 do
    ok "create" (Cffs.write_file fs (Printf.sprintf "/d/f%02d" i) payload)
  done;
  Cffs.remount fs;
  (* 32 entries x 256 B = 2 directory blocks; resolution of /d adds the
     root directory's block.  Everything else would be a bug. *)
  let before = Registry.snapshot () in
  let entries = ok "list_dir_plus" (Cffs.list_dir_plus fs "/d") in
  let delta = Registry.diff (Registry.snapshot ()) before in
  check Alcotest.int "all entries" nfiles (List.length entries);
  List.iter
    (fun (_, st) ->
      check Alcotest.int "size" (Bytes.length payload)
        st.Cffs_vfs.Fs_intf.st_size)
    entries;
  check Alcotest.int "no external inode reads" 0
    (Registry.get_counter delta "cffs.external_inode_reads");
  let reads = Registry.get_counter delta "blockdev.reads" in
  check Alcotest.bool
    (Printf.sprintf "reads bounded by directory blocks (got %d)" reads)
    true
    (reads <= 4)

let test_readdir_plus_matches_stat () =
  (* The bulk op must agree entry-for-entry with readdir + stat, on both
     file systems. *)
  let mounts =
    [
      (let dev = Blockdev.memory ~block_size:4096 ~nblocks:8192 in
       Cffs_vfs.Fs_intf.Packed ((module Cffs), Cffs.format dev));
      (let dev = Blockdev.memory ~block_size:4096 ~nblocks:8192 in
       Cffs_vfs.Fs_intf.Packed ((module Ffs), Ffs.format dev));
    ]
  in
  List.iter
    (fun (Cffs_vfs.Fs_intf.Packed ((module F), fs)) ->
      ok "mkdir" (F.mkdir fs "/d");
      ok "mkdir sub" (F.mkdir fs "/d/sub");
      for i = 0 to 9 do
        ok "create"
          (F.write_file fs
             (Printf.sprintf "/d/f%d" i)
             (Bytes.make (100 * (i + 1)) 'x'))
      done;
      let plus = ok "plus" (F.list_dir_plus fs "/d") in
      let names = ok "names" (F.list_dir fs "/d") in
      check (Alcotest.list Alcotest.string) "same names" names
        (List.map fst plus);
      List.iter
        (fun (name, st) ->
          let st' = ok "stat" (F.stat fs ("/d/" ^ name)) in
          check Alcotest.bool (name ^ " stat agrees") true (st = st'))
        plus)
    mounts

(* ------------------------------------------------------------------ *)
(* Full-path shortcuts: a repeated resolution is answered without a
   walk, and any namespace mutation in any ancestor invalidates it
   (the generation check covers every directory the walk recorded). *)

let test_shortcut_hit_on_repeat () =
  let fs = mk_fs () in
  ok "mkdir" (Cffs.mkdir_p fs "/a/b/c");
  ok "create" (Cffs.write_file fs "/a/b/c/f" payload);
  ignore (ok "warm" (Cffs.stat fs "/a/b/c/f"));
  let before = Registry.snapshot () in
  ignore (ok "warm again" (Cffs.stat fs "/a/b/c/f"));
  let delta = Registry.diff (Registry.snapshot ()) before in
  check Alcotest.bool "shortcut hit" true
    (Registry.get_counter delta "namei.shortcut_hits" > 0);
  check Alcotest.bool "shortcuts populated" true
    (Namei.shortcut_count (Cffs.namei fs) > 0)

let test_shortcut_stale_after_ancestor_rename () =
  (* Renaming ANY ancestor must invalidate the shortcut of every path
     through it: the warm path resolves the new truth, not the recorded
     target — which, embedded inode numbers being positional, would not
     merely be old but a different object. *)
  let fs = mk_fs () in
  ok "mkdir" (Cffs.mkdir_p fs "/a/b/c");
  ok "create" (Cffs.write_file fs "/a/b/c/f" payload);
  ignore (ok "warm" (Cffs.stat fs "/a/b/c/f"));
  ignore (ok "warm" (Cffs.stat fs "/a/b/c/f"));
  ok "rename ancestor" (Cffs.rename_path fs ~src:"/a/b" ~dst:"/a/b2");
  let before = Registry.snapshot () in
  expect_errno "old path gone" (Some Errno.Enoent) (Cffs.stat fs "/a/b/c/f");
  let delta = Registry.diff (Registry.snapshot ()) before in
  check Alcotest.bool "stale shortcut detected" true
    (Registry.get_counter delta "namei.shortcut_stale" > 0);
  check Alcotest.string "content at new path" (Bytes.to_string payload)
    (Bytes.to_string (ok "read" (Cffs.read_file fs "/a/b2/c/f")));
  (* Rename back: the shortcut inserted for the old path's first life
     must not resurface its renumbered target. *)
  ok "rename back" (Cffs.rename_path fs ~src:"/a/b2" ~dst:"/a/b");
  check Alcotest.string "content back at old path" (Bytes.to_string payload)
    (Bytes.to_string (ok "read" (Cffs.read_file fs "/a/b/c/f")));
  expect_errno "renamed-away path gone" (Some Errno.Enoent)
    (Cffs.stat fs "/a/b2/c/f")

let test_shortcut_stale_after_top_rename () =
  (* The generation check is per segment, so the very first component —
     a directory of the root — invalidates just as deep a path. *)
  let fs = mk_fs () in
  ok "mkdir" (Cffs.mkdir_p fs "/top/m/n");
  ok "create" (Cffs.write_file fs "/top/m/n/f" payload);
  ignore (ok "warm" (Cffs.stat fs "/top/m/n/f"));
  ignore (ok "warm" (Cffs.stat fs "/top/m/n/f"));
  ok "rename top" (Cffs.rename_path fs ~src:"/top" ~dst:"/newtop");
  expect_errno "old path gone" (Some Errno.Enoent) (Cffs.stat fs "/top/m/n/f");
  check Alcotest.string "content at new path" (Bytes.to_string payload)
    (Bytes.to_string (ok "read" (Cffs.read_file fs "/newtop/m/n/f")))

let test_shortcut_negative_purged_on_create () =
  let fs = mk_fs () in
  ok "mkdir" (Cffs.mkdir_p fs "/a/b");
  expect_errno "miss" (Some Errno.Enoent) (Cffs.stat fs "/a/b/f");
  let before = Registry.snapshot () in
  expect_errno "negative shortcut" (Some Errno.Enoent) (Cffs.stat fs "/a/b/f");
  let delta = Registry.diff (Registry.snapshot ()) before in
  check Alcotest.bool "served by negative shortcut" true
    (Registry.get_counter delta "namei.shortcut_negative_hits" > 0);
  (* Create bumps the final directory's generation, so the negative
     shortcut cannot be served again. *)
  ok "create" (Cffs.write_file fs "/a/b/f" payload);
  let st = ok "visible immediately" (Cffs.stat fs "/a/b/f") in
  check Alcotest.int "fresh size" (Bytes.length payload)
    st.Cffs_vfs.Fs_intf.st_size

(* ------------------------------------------------------------------ *)
(* Differential property: a cached mount and an uncached mount agree on
   every observation under random namespace churn. *)

let qcheck_cached_uncached_agree =
  qtest ~count:80
    "namei: cached and uncached mounts agree under random churn"
    QCheck.(
      list_of_size (Gen.int_range 1 60)
        (triple (int_bound 7) (int_bound 4) (int_bound 4)))
    (fun ops ->
      let a = mk_fs () (* cached *)
      and b = mk_fs ~namei:Namei.config_disabled () in
      ignore (Cffs.mkdir a "/d");
      ignore (Cffs.mkdir b "/d");
      let name i = Printf.sprintf "/d/n%d" i in
      let enc = function
        | Ok () -> "ok"
        | Error e -> Errno.to_string e
      in
      let kind_str = function
        | Inode.Regular -> "f"
        | Inode.Directory -> "d"
        | Inode.Free -> "free"
      in
      let stat_str (st : Cffs_vfs.Fs_intf.stat) =
        Printf.sprintf "%s:%d:%d" (kind_str st.st_kind) st.st_size st.st_nlink
      in
      let observe fs (k, i, j) =
        match k with
        | 0 -> enc (Cffs.write_file fs (name i) payload)
        | 1 -> enc (Cffs.unlink fs (name i))
        | 2 -> enc (Cffs.mkdir fs (name i))
        | 3 -> enc (Cffs.rmdir fs (name i))
        | 4 -> enc (Cffs.rename_path fs ~src:(name i) ~dst:(name j))
        | 5 -> begin
            match Cffs.stat fs (name i) with
            | Ok st -> stat_str st
            | Error e -> Errno.to_string e
          end
        | 6 -> begin
            match Cffs.list_dir fs "/d" with
            | Ok l -> String.concat "," l
            | Error e -> Errno.to_string e
          end
        | _ -> begin
            match Cffs.list_dir_plus fs "/d" with
            | Ok l ->
                String.concat ","
                  (List.map (fun (n, st) -> n ^ "=" ^ stat_str st) l)
            | Error e -> Errno.to_string e
          end
      in
      List.for_all (fun op -> observe a op = observe b op) ops)

(* ------------------------------------------------------------------ *)
(* The warm path's allocation: Pathfs resolves an already canonical path
   as itself, and every namei hit hands back the answer it stored. *)

module Shortcut = Namei.Resolver (Cffs)

let test_warm_stat_allocation () =
  let fs = mk_fs () in
  ok "mkdir" (Cffs.mkdir_p fs "/a/b");
  ok "create" (Cffs.write_file fs "/a/b/f" payload);
  let p = "/a/b/f" in
  ignore (ok "warm" (Cffs.stat fs p));
  let stat = Alloc_probe.words_per_call (fun () -> Cffs.stat fs p) in
  check Alcotest.bool
    (Printf.sprintf "%.2f words per warm stat (at most 24)" stat)
    true (stat <= 24.0);
  let hits0 = Registry.get_counter (Registry.snapshot ()) "namei.shortcut_hits" in
  let hit = Alloc_probe.words_per_call (fun () -> Shortcut.resolve_rel fs p) in
  check Alcotest.int "every call, the warm-up too, a shortcut hit" 1001
    (Registry.get_counter (Registry.snapshot ()) "namei.shortcut_hits" - hits0);
  check Alcotest.bool
    (Printf.sprintf "%.3f words per shortcut hit (none)" hit)
    true (hit < 0.01)

(* A path is counted by its key: spelling it with extra slashes changes
   neither the resolve count nor the component count. *)
let test_spelling_counts_alike () =
  let fs = mk_fs () in
  ok "mkdir" (Cffs.mkdir_p fs "/a/b");
  let counts p =
    let before = Registry.snapshot () in
    ignore (ok p (Cffs.stat fs p));
    let d = Registry.diff (Registry.snapshot ()) before in
    (Registry.get_counter d "vfs.resolves", Registry.get_counter d "vfs.path_components")
  in
  let plain = counts "/a/b" in
  check Alcotest.(pair int int) "resolves, components" (1, 2) plain;
  check Alcotest.(pair int int) "same for //a///b/" plain (counts "//a///b/")

(* ------------------------------------------------------------------ *)
(* The acceptance criterion: warm repeated-stat on C-FFS with the caches
   on is at least 5x faster than with them off, once the metadata working
   set exceeds the buffer cache. *)

let test_warm_stat_speedup () =
  let scale =
    {
      Experiments.quick with
      Experiments.stat_dirs = 64;
      stat_files_per_dir = 16;
      stat_repeats = 2;
      stat_cache_blocks = 48;
    }
  in
  let warm_seconds namei =
    let results, _ =
      Experiments.run_statbench scale ~fs:(Cffs_harness.Setup.Cffs_fs Cffs.config_default)
        ~namei
    in
    let r =
      List.find
        (fun (r : Statbench.result) -> r.Statbench.phase = Statbench.Stat_warm)
        results
    in
    r.Statbench.measure.Cffs_workload.Env.seconds
  in
  let uncached = warm_seconds Namei.config_disabled in
  let cached = warm_seconds Namei.config_default in
  check Alcotest.bool
    (Printf.sprintf "cached >= 5x uncached (uncached %.3fs cached %.3fs)"
       uncached cached)
    true
    (cached > 0.0 && uncached /. cached >= 5.0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "cffs_namei"
    [
      ( "coherence",
        [
          Alcotest.test_case "unlink" `Quick test_no_stale_after_unlink;
          Alcotest.test_case "rename" `Quick test_no_stale_after_rename;
          Alcotest.test_case "dir rename" `Quick test_no_stale_after_dir_rename;
          Alcotest.test_case "rmdir + recreate" `Quick test_no_stale_after_rmdir;
          Alcotest.test_case "negative purged on create" `Quick
            test_negative_purged_on_create;
          Alcotest.test_case "hardlink externalization" `Quick
            test_hardlink_coherence;
          Alcotest.test_case "remount flushes" `Quick test_remount_flushes;
          qcheck_cached_uncached_agree;
        ] );
      ( "shortcuts",
        [
          Alcotest.test_case "repeat resolution hits" `Quick
            test_shortcut_hit_on_repeat;
          Alcotest.test_case "stale after ancestor rename" `Quick
            test_shortcut_stale_after_ancestor_rename;
          Alcotest.test_case "stale after top-level rename" `Quick
            test_shortcut_stale_after_top_rename;
          Alcotest.test_case "negative purged on create" `Quick
            test_shortcut_negative_purged_on_create;
          Alcotest.test_case "warm stat allocation" `Quick
            test_warm_stat_allocation;
          Alcotest.test_case "spelling counts alike" `Quick
            test_spelling_counts_alike;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "lru bound" `Quick test_lru_bound;
          Alcotest.test_case "disabled caches nothing" `Quick
            test_disabled_caches_nothing;
        ] );
      ( "readdir_plus",
        [
          Alcotest.test_case "no extra reads (embedded)" `Quick
            test_readdir_plus_no_extra_reads;
          Alcotest.test_case "matches readdir+stat" `Quick
            test_readdir_plus_matches_stat;
        ] );
      ( "performance",
        [
          Alcotest.test_case "warm stat >= 5x" `Slow test_warm_stat_speedup;
        ] );
    ]
