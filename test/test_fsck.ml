(* fsck tests: clean file systems check clean; injected corruption is
   detected and repaired; crash injection (partial flushes under every write
   policy) always leaves a repairable file system. *)

module Blockdev = Cffs_blockdev.Blockdev
module Cache = Cffs_cache.Cache
module Errno = Cffs_vfs.Errno
module Inode = Cffs_vfs.Inode
module Report = Cffs_fsck.Report
module Fsck_ffs = Cffs_fsck.Fsck_ffs
module Fsck_cffs = Cffs_fsck.Fsck_cffs
module Prng = Cffs_util.Prng
module Codec = Cffs_util.Codec

let check = Alcotest.check
let ok what = Errno.get_ok what

let populate_ffs () =
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:6144 in
  let fs = Ffs.format dev in
  ok "mk" (Ffs.mkdir_p fs "/a/b");
  ok "w1" (Ffs.write_file fs "/a/b/f" (Bytes.make 5000 'x'));
  ok "w2" (Ffs.write_file fs "/top" (Bytes.make 100 'y'));
  ok "ln" (Ffs.link fs ~existing:"/top" ~target:"/a/link");
  Ffs.sync fs;
  (fs, dev)

let populate_cffs config =
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:6144 in
  let fs = Cffs.format ~config dev in
  ok "mk" (Cffs.mkdir_p fs "/a/b");
  ok "w1" (Cffs.write_file fs "/a/b/f" (Bytes.make 5000 'x'));
  ok "w2" (Cffs.write_file fs "/top" (Bytes.make 100 'y'));
  ok "ln" (Cffs.link fs ~existing:"/top" ~target:"/a/link");
  Cffs.sync fs;
  (fs, dev)

(* ------------------------------------------------------------------ *)
(* Clean checks *)

let test_ffs_clean () =
  let fs, _ = populate_ffs () in
  let r = Fsck_ffs.check fs in
  if not (Report.clean r) then
    Alcotest.failf "expected clean, got: %s" (Format.asprintf "%a" Report.pp r);
  check Alcotest.int "files" 2 r.Report.files;
  check Alcotest.int "dirs (incl root)" 3 r.Report.dirs

let test_cffs_clean_all_configs () =
  List.iter
    (fun config ->
      let fs, _ = populate_cffs config in
      let r = Fsck_cffs.check fs in
      if not (Report.clean r) then
        Alcotest.failf "%s: expected clean, got: %s" (Cffs.config_label config)
          (Format.asprintf "%a" Report.pp r);
      check Alcotest.int "files" 2 r.Report.files)
    [
      Cffs.config_default;
      Cffs.config_ffs_like;
      { Cffs.config_default with Cffs.grouping = false };
      { Cffs.config_default with Cffs.embed_inodes = false };
    ]

let test_empty_fs_clean () =
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:6144 in
  let fs = Cffs.format dev in
  check Alcotest.bool "fresh fs clean" true (Report.clean (Fsck_cffs.check fs))

(* Images formatted before the superblock dropped its volume record carry
   the mkfs-time spindle count, layout code and stripe unit in bytes that
   are now reserved: they still mount, read back and check clean. *)
let test_old_volume_record () =
  let stamp dev offs =
    let sb = Blockdev.read dev 0 1 in
    List.iter2 (Codec.set_u32 sb) offs [ 4; 2; 2048 ];
    Blockdev.write dev 0 sb
  in
  let _, cdev = populate_cffs Cffs.config_default in
  stamp cdev [ 44; 48; 52 ];
  (match Cffs.mount cdev with
  | None -> Alcotest.fail "C-FFS image with a volume record did not mount"
  | Some fs ->
      check Alcotest.bytes "C-FFS data" (Bytes.make 100 'y') (ok "read" (Cffs.read_file fs "/top"));
      check Alcotest.bool "C-FFS clean" true (Report.clean (Fsck_cffs.check fs)));
  let _, fdev = populate_ffs () in
  stamp fdev [ 36; 40; 44 ];
  match Ffs.mount fdev with
  | None -> Alcotest.fail "FFS image with a volume record did not mount"
  | Some fs ->
      check Alcotest.bytes "FFS data" (Bytes.make 100 'y') (ok "read" (Ffs.read_file fs "/top"));
      check Alcotest.bool "FFS clean" true (Report.clean (Fsck_ffs.check fs))

(* ------------------------------------------------------------------ *)
(* Injected corruption: FFS *)

let test_ffs_detects_bad_superblock () =
  let fs, dev = populate_ffs () in
  Blockdev.corrupt_block dev 0 (Prng.create 1);
  Cache.remount (Ffs.cache fs);
  let r = Fsck_ffs.check fs in
  check Alcotest.bool "bad sb reported" true
    (List.mem Report.Bad_superblock r.Report.problems)

let test_ffs_detects_and_repairs_dangling () =
  let fs, _dev = populate_ffs () in
  (* Clear the target inode behind the namespace's back. *)
  let ino = ok "resolve" (Ffs.resolve fs "/a/b/f") in
  let sb = Ffs.superblock fs in
  let blk = Ffs.Layout.ino_block sb ino and off = Ffs.Layout.ino_offset sb ino in
  let b = Cache.read (Ffs.cache fs) blk in
  Inode.encode (Inode.empty ()) b off;
  Cache.write (Ffs.cache fs) ~kind:`Meta blk b;
  let r = Fsck_ffs.check fs in
  check Alcotest.bool "dangling detected" true
    (List.exists (function Report.Dangling_entry _ -> true | _ -> false) r.Report.problems);
  let r2 = Fsck_ffs.repair fs in
  if not (Report.clean r2) then
    Alcotest.failf "not clean after repair: %s" (Format.asprintf "%a" Report.pp r2);
  check Alcotest.bool "entry removed" false (Ffs.exists fs "/a/b/f")

let test_ffs_repairs_orphan () =
  let fs, _ = populate_ffs () in
  (* Remove the directory entry behind the file system's back, leaving the
     inode allocated but unreferenced. *)
  let dir = ok "resolve /a/b" (Ffs.resolve fs "/a/b") in
  let dinode = ok "inode" (Ffs.read_inode fs dir) in
  (match Cffs_vfs.Bmap.read (Ffs.cache fs) dinode 0 with
  | Ok (Some p) ->
      let b = Cache.read (Ffs.cache fs) p in
      ignore (Ffs.Dirent.remove b "f");
      Cache.write (Ffs.cache fs) ~kind:`Meta p b
  | _ -> Alcotest.fail "no dir block");
  let r = Fsck_ffs.check fs in
  check Alcotest.bool "orphan detected" true
    (List.exists (function Report.Orphan_inode _ -> true | _ -> false) r.Report.problems);
  let r2 = Fsck_ffs.repair fs in
  if not (Report.clean r2) then
    Alcotest.failf "not clean after repair: %s" (Format.asprintf "%a" Report.pp r2);
  (* The orphan was reattached with its contents. *)
  let recovered = ok "ls lost+found" (Ffs.list_dir fs "/lost+found") in
  check Alcotest.int "one recovered file" 1 (List.length recovered);
  let p = "/lost+found/" ^ List.hd recovered in
  check Alcotest.int "content size" 5000 (ok "stat" (Ffs.stat fs p)).Cffs_vfs.Fs_intf.st_size

let test_ffs_repairs_bitmap_mismatch () =
  let fs, _ = populate_ffs () in
  (* Flip some free bits in cg 0's block bitmap. *)
  let sb = Ffs.superblock fs in
  let hdr = Cache.read (Ffs.cache fs) (Ffs.Layout.cg_start sb 0) in
  let bbm = Ffs.Layout.hdr_block_bitmap_off sb in
  Codec.set_u8 hdr (bbm + 100) 0xFF;
  Cache.write (Ffs.cache fs) ~kind:`Meta (Ffs.Layout.cg_start sb 0) hdr;
  let r = Fsck_ffs.check fs in
  check Alcotest.bool "mismatch detected" true
    (List.exists (function Report.Block_bitmap_mismatch _ -> true | _ -> false)
       r.Report.problems);
  let r2 = Fsck_ffs.repair fs in
  check Alcotest.bool "clean after repair" true (Report.clean r2)

let test_ffs_repairs_nlink () =
  let fs, _ = populate_ffs () in
  let ino = ok "resolve" (Ffs.resolve fs "/top") in
  let sb = Ffs.superblock fs in
  let blk = Ffs.Layout.ino_block sb ino and off = Ffs.Layout.ino_offset sb ino in
  let b = Cache.read (Ffs.cache fs) blk in
  let i = Inode.decode b off in
  i.Inode.nlink <- 9;
  Inode.encode i b off;
  Cache.write (Ffs.cache fs) ~kind:`Meta blk b;
  let r = Fsck_ffs.check fs in
  check Alcotest.bool "nlink detected" true
    (List.exists (function Report.Wrong_nlink _ -> true | _ -> false) r.Report.problems);
  let r2 = Fsck_ffs.repair fs in
  check Alcotest.bool "clean after repair" true (Report.clean r2);
  check Alcotest.int "nlink fixed" 2 (ok "stat" (Ffs.stat fs "/top")).Cffs_vfs.Fs_intf.st_nlink

(* ------------------------------------------------------------------ *)
(* Injected corruption: C-FFS *)

let test_cffs_detects_dangling_external () =
  let fs, _ = populate_cffs Cffs.config_default in
  (* /top is externalized (it has two links); clear its external inode. *)
  let ino = ok "resolve" (Cffs.resolve fs "/top") in
  check Alcotest.bool "external" false (Cffs.is_embedded_ino ino);
  ok "clear" (Cffs.write_inode_raw fs ino (Inode.empty ()));
  let r = Fsck_cffs.check fs in
  check Alcotest.bool "dangling entries detected" true
    (List.length
       (List.filter (function Report.Dangling_entry _ -> true | _ -> false)
          r.Report.problems)
    >= 2);
  let r2 = Fsck_cffs.repair fs in
  check Alcotest.bool "clean after repair" true (Report.clean r2)

let test_cffs_repairs_orphan_external () =
  let fs, _ = populate_cffs Cffs.config_default in
  (* Remove both names of the externalized /top, leaving the slot live. *)
  let dinode = ok "root inode" (Cffs.read_inode fs Cffs.Csb.root_ino) in
  (match Cffs_vfs.Bmap.read (Cffs.cache fs) dinode 0 with
  | Ok (Some p) ->
      let b = Cache.read (Cffs.cache fs) p in
      (match Cffs.Cdir.find b "top" with
      | Some e ->
          Cffs.Cdir.clear b e.Cffs.Cdir.chunk;
          Cache.write (Cffs.cache fs) ~kind:`Meta p b
      | None -> Alcotest.fail "top not in root block")
  | _ -> Alcotest.fail "no root block");
  ok "rm other link" (Cffs.unlink fs "/a/link");
  let r = Fsck_cffs.check fs in
  check Alcotest.bool "orphan external detected" true
    (List.exists (function Report.Orphan_inode _ -> true | _ -> false) r.Report.problems);
  let r2 = Fsck_cffs.repair fs in
  if not (Report.clean r2) then
    Alcotest.failf "not clean after repair: %s" (Format.asprintf "%a" Report.pp r2);
  check Alcotest.int "recovered" 1
    (List.length (ok "ls" (Cffs.list_dir fs "/lost+found")))

let test_cffs_repairs_bitmap () =
  let fs, _ = populate_cffs Cffs.config_default in
  let sb = Cffs.superblock fs in
  let hdr = Cache.read (Cffs.cache fs) (Cffs.Csb.cg_start sb 0) in
  Codec.set_u8 hdr (Cffs.Csb.hdr_block_bitmap_off + 200) 0xFF;
  Cache.write (Cffs.cache fs) ~kind:`Meta (Cffs.Csb.cg_start sb 0) hdr;
  let r = Fsck_cffs.check fs in
  check Alcotest.bool "detected" true
    (List.exists (function Report.Block_bitmap_mismatch _ -> true | _ -> false)
       r.Report.problems);
  let r2 = Fsck_cffs.repair fs in
  check Alcotest.bool "clean after repair" true (Report.clean r2)

(* ------------------------------------------------------------------ *)
(* Crash injection *)

(* Run a workload under a policy, stop a flush midway, "crash", then verify
   fsck can bring the file system back to a clean state. *)
let crash_and_repair ~policy ~flush_fraction seed =
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:6144 in
  let fs = Cffs.format ~config:Cffs.config_default ~policy dev in
  let prng = Prng.create seed in
  ok "mk" (Cffs.mkdir fs "/w");
  for i = 0 to 60 do
    let path = Printf.sprintf "/w/f%03d" i in
    ok "w" (Cffs.write_file fs path (Prng.bytes prng (1 + Prng.int prng 6000)));
    if Prng.chance prng 0.3 && i > 0 then begin
      match Cffs.unlink fs (Printf.sprintf "/w/f%03d" (Prng.int prng i)) with
      | Ok () | Error _ -> ()
    end
  done;
  (* Partial flush, then power failure. *)
  let cache = Cffs.cache fs in
  let dirty = Cache.dirty_count cache in
  ignore (Cache.flush_limit cache (flush_fraction * dirty / 100));
  Cache.crash cache;
  (* Remount the device contents and repair. *)
  match Cffs.mount dev with
  | None -> Alcotest.fail "superblock lost (was written at format time)"
  | Some fs2 ->
      let r = Fsck_cffs.repair fs2 in
      if not (Report.clean r) then
        Alcotest.failf "crash at %d%% flush not repaired: %s" flush_fraction
          (Format.asprintf "%a" Report.pp r);
      (* The repaired file system is fully usable. *)
      ok "post write" (Cffs.write_file fs2 "/after" (Bytes.of_string "alive"));
      check Alcotest.bytes "post read" (Bytes.of_string "alive")
        (ok "post read" (Cffs.read_file fs2 "/after"))

let test_crash_sync_metadata () =
  List.iter (fun f -> crash_and_repair ~policy:Cache.Sync_metadata ~flush_fraction:f 11)
    [ 0; 50; 100 ]

let test_crash_delayed () =
  List.iter (fun f -> crash_and_repair ~policy:Cache.Delayed ~flush_fraction:f 13)
    [ 0; 30; 70; 100 ]

let qcheck_crash_repair =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25 ~name:"random crash points always repairable"
       QCheck.(pair small_nat (int_bound 100))
       (fun (seed, frac) ->
         crash_and_repair ~policy:Cache.Delayed ~flush_fraction:frac (seed + 1000);
         true))

let test_sync_metadata_files_survive_crash () =
  (* With synchronous metadata, a created (and fsync'd) file's NAME survives
     a crash even if nothing was explicitly flushed. *)
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:6144 in
  let fs = Cffs.format ~config:Cffs.config_default ~policy:Cache.Sync_metadata dev in
  ok "w" (Cffs.write_file fs "/precious" (Bytes.make 100 'p'));
  Cache.crash (Cffs.cache fs);
  match Cffs.mount dev with
  | None -> Alcotest.fail "mount failed"
  | Some fs2 ->
      ignore (Fsck_cffs.repair fs2);
      (* The name must still be there (data blocks may be zero: they were
         delayed writes). *)
      check Alcotest.bool "name survived" true (Cffs.exists fs2 "/precious")

(* ------------------------------------------------------------------ *)
(* Torn directory-block writes: the paper's atomicity argument.

   A C-FFS directory chunk (name + embedded inode, 256 bytes, aligned)
   never straddles a 512-byte sector, and sectors are atomic.  So however a
   directory-block write tears at a sector boundary, every surviving chunk
   is a coherent (name, inode) pair from one version or the other — there
   is no window where a name refers to an uninitialised inode. *)

let test_torn_directory_write () =
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:6144 in
  let fs = Cffs.format ~config:Cffs.config_default ~policy:Cache.Sync_metadata dev in
  ok "mk" (Cffs.mkdir fs "/d");
  let dir = ok "resolve" (Cffs.resolve fs "/d") in
  for i = 0 to 7 do
    ok "w" (Cffs.write_file fs (Printf.sprintf "/d/old%02d" i) (Bytes.make 700 'o'))
  done;
  Cffs.sync fs;
  let img_old = Blockdev.snapshot dev in
  for i = 8 to 15 do
    ok "w" (Cffs.write_file fs (Printf.sprintf "/d/new%02d" i) (Bytes.make 700 'n'))
  done;
  Cffs.sync fs;
  let dinode = ok "dinode" (Cffs.read_inode fs dir) in
  let pblock =
    match Cffs_vfs.Bmap.read (Cffs.cache fs) dinode 0 with
    | Ok (Some p) -> p
    | _ -> Alcotest.fail "directory has no block"
  in
  let v_new = Blockdev.read dev pblock 1 in
  (* Tear the write at every sector boundary. *)
  for keep = 0 to 8 do
    Blockdev.restore dev img_old;
    Blockdev.write_torn dev pblock v_new ~keep_sectors:keep;
    let torn = Blockdev.read dev pblock 1 in
    (* Every live chunk must carry a coherent pair: an embedded entry's
       inline inode is a valid allocated inode. *)
    Cffs.Cdir.iter torn (fun e ->
        if e.Cffs.Cdir.embedded then begin
          let inode = Cffs.Cdir.read_inode torn e.Cffs.Cdir.chunk in
          if inode.Inode.kind = Inode.Free then
            Alcotest.failf "torn at %d sectors: %S names a free inode" keep
              e.Cffs.Cdir.name;
          if inode.Inode.nlink < 1 then
            Alcotest.failf "torn at %d sectors: %S has nlink 0" keep e.Cffs.Cdir.name
        end);
    (* And the whole file system is repairable from this state. *)
    match Cffs.mount dev with
    | None -> Alcotest.fail "unmountable after torn write"
    | Some fs2 ->
        let r = Fsck_cffs.repair fs2 in
        if not (Report.clean r) then
          Alcotest.failf "torn at %d sectors not repaired: %s" keep
            (Format.asprintf "%a" Report.pp r)
  done

(* ------------------------------------------------------------------ *)
(* Soft updates: integrity invariants across arbitrary crash points.

   Unlike the Delayed emulation, the real Soft_updates policy orders
   write-back, so whatever prefix of the write-back a crash admits, a name
   never refers to an uninitialised inode, and a rename never loses the
   file. *)

let test_soft_updates_no_dangling_any_crash_point () =
  (* External inodes (embed off) are the interesting case: create is two
     ordered writes. *)
  let build () =
    let dev = Blockdev.memory ~block_size:4096 ~nblocks:6144 in
    let fs =
      Cffs.format ~config:Cffs.config_ffs_like ~policy:Cache.Soft_updates dev
    in
    ok "mk" (Cffs.mkdir fs "/w");
    for i = 0 to 30 do
      ok "w" (Cffs.write_file fs (Printf.sprintf "/w/f%02d" i) (Bytes.make 900 'x'))
    done;
    for i = 0 to 9 do
      ok "rm" (Cffs.unlink fs (Printf.sprintf "/w/f%02d" (i * 3)))
    done;
    (fs, dev)
  in
  let fs0, _ = build () in
  let total_dirty = Cache.dirty_count (Cffs.cache fs0) in
  for k = 0 to total_dirty do
    let fs, dev = build () in
    ignore (Cache.flush_limit (Cffs.cache fs) k);
    Cache.crash (Cffs.cache fs);
    match Cffs.mount dev with
    | None -> Alcotest.fail "unmountable"
    | Some fs2 ->
        let r = Fsck_cffs.check fs2 in
        let dangling =
          List.filter (function Report.Dangling_entry _ -> true | _ -> false)
            r.Report.problems
        in
        if dangling <> [] then
          Alcotest.failf "crash after %d/%d blocks: %d dangling entries" k
            total_dirty (List.length dangling)
  done

let test_soft_updates_rename_never_loses () =
  let build () =
    let dev = Blockdev.memory ~block_size:4096 ~nblocks:6144 in
    let fs = Cffs.format ~config:Cffs.config_default ~policy:Cache.Soft_updates dev in
    ok "mk" (Cffs.mkdir fs "/a");
    ok "mk2" (Cffs.mkdir fs "/b");
    ok "w" (Cffs.write_file fs "/a/precious" (Bytes.make 2000 'p'));
    Cffs.sync fs;
    ok "mv" (Cffs.rename_path fs ~src:"/a/precious" ~dst:"/b/precious");
    (fs, dev)
  in
  let fs0, _ = build () in
  let total_dirty = Cache.dirty_count (Cffs.cache fs0) in
  for k = 0 to total_dirty do
    let fs, dev = build () in
    ignore (Cache.flush_limit (Cffs.cache fs) k);
    Cache.crash (Cffs.cache fs);
    match Cffs.mount dev with
    | None -> Alcotest.fail "unmountable"
    | Some fs2 ->
        let old_there = Cffs.exists fs2 "/a/precious" in
        let new_there = Cffs.exists fs2 "/b/precious" in
        if not (old_there || new_there) then
          Alcotest.failf "crash after %d/%d blocks lost the file" k total_dirty
  done

let test_soft_updates_performance_is_delayed_like () =
  (* The point of soft updates: delayed-write performance with sync-like
     integrity.  Create throughput must be far above the sync-metadata
     mode. *)
  let create_rate policy =
    let dev =
      Cffs_blockdev.Blockdev.of_drive
        (Cffs_disk.Drive.create Cffs_disk.Profile.seagate_st31200)
        ~block_size:4096
    in
    let fs = Cffs.format ~config:Cffs.config_ffs_like ~policy ~cache_blocks:16384 dev in
    let env =
      Cffs_workload.Env.make (Cffs_vfs.Fs_intf.Packed ((module Cffs), fs)) dev
    in
    let rs = Cffs_workload.Smallfile.run ~nfiles:400 env in
    let r =
      List.find
        (fun (r : Cffs_workload.Smallfile.result) ->
          r.Cffs_workload.Smallfile.phase = Cffs_workload.Smallfile.Create)
        rs
    in
    r.Cffs_workload.Smallfile.files_per_sec
  in
  let sync = create_rate Cache.Sync_metadata in
  let soft = create_rate Cache.Soft_updates in
  let delayed = create_rate Cache.Delayed in
  check Alcotest.bool
    (Printf.sprintf "soft (%.0f) within 40%% of delayed (%.0f), far above sync (%.0f)"
       soft delayed sync)
    true
    (soft > delayed *. 0.6 && soft > sync *. 1.5)

(* ------------------------------------------------------------------ *)
(* Repair is idempotent and reports are fresh per invocation *)

let test_repair_clean_is_noop () =
  let ffs, _ = populate_ffs () in
  let r = Fsck_ffs.repair ffs in
  check Alcotest.bool "ffs clean repair clean" true (Report.clean r);
  check Alcotest.int "ffs nothing repaired" 0 r.Report.repaired;
  let cfs, _ = populate_cffs Cffs.config_default in
  let r = Fsck_cffs.repair cfs in
  check Alcotest.bool "cffs clean repair clean" true (Report.clean r);
  check Alcotest.int "cffs nothing repaired" 0 r.Report.repaired;
  (* Each invocation builds a fresh report: a second run must not
     accumulate or re-report anything. *)
  let r2 = Fsck_cffs.repair cfs in
  check Alcotest.bool "still clean" true (Report.clean r2);
  check Alcotest.int "still nothing repaired" 0 r2.Report.repaired

(* ------------------------------------------------------------------ *)
(* Repair paths driven through the fault layer.

   Instead of hand-editing metadata, run a real workload over a Faultdev
   journal and materialize every crash prefix.  The partially-persisted
   images exhibit the naturally occurring inconsistency classes — orphans
   (inode persisted, entry not), dangling entries (entry persisted, inode
   slot stale), bitmap mismatches, wrong link counts — and each one must
   repair to a clean state in one pass, with a second repair fixing
   nothing. *)

module Faultdev = Cffs_blockdev.Faultdev

let ffs_faulted_journal () =
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:6144 in
  let fs = Ffs.format ~policy:Cache.Delayed dev in
  Ffs.sync fs;
  (* Attach after format: the journal base is a clean, empty volume. *)
  let fd = Faultdev.attach dev in
  ok "mk" (Ffs.mkdir fs "/d");
  for i = 0 to 7 do
    ok "w" (Ffs.write_file fs (Printf.sprintf "/d/a%d" i) (Bytes.make 600 'a'))
  done;
  Ffs.sync fs;
  (* A delete-then-create epoch in the same directory: under [Delayed]
     the dirent block's writeback slot predates the itable writes for the
     reused/fresh inode slots, so some crash prefixes persist names whose
     inodes never made it (dangling), while create-only stretches persist
     inodes whose names never made it (orphans). *)
  ok "rm" (Ffs.unlink fs "/d/a0");
  for i = 0 to 7 do
    ok "w" (Ffs.write_file fs (Printf.sprintf "/d/b%d" i) (Bytes.make 600 'b'))
  done;
  ok "ln" (Ffs.link fs ~existing:"/d/b1" ~target:"/d/bx");
  Ffs.sync fs;
  Faultdev.detach fd;
  fd

let test_ffs_fault_layer_repairs_all_prefixes () =
  let fd = ffs_faulted_journal () in
  let n = Faultdev.journal_length fd in
  check Alcotest.bool "journal non-trivial" true (n > 10);
  let saw_dangling = ref false
  and saw_orphan = ref false
  and saw_bitmap = ref false
  and saw_nlink = ref false in
  for upto = 0 to n do
    let dev = Faultdev.materialize fd ~upto in
    match Ffs.mount dev with
    | None -> Alcotest.failf "crash prefix %d/%d unmountable" upto n
    | Some fs ->
        let r = Fsck_ffs.check fs in
        List.iter
          (function
            | Report.Dangling_entry _ -> saw_dangling := true
            | Report.Orphan_inode _ -> saw_orphan := true
            | Report.Block_bitmap_mismatch _ -> saw_bitmap := true
            | Report.Wrong_nlink _ -> saw_nlink := true
            | _ -> ())
          r.Report.problems;
        ignore (Fsck_ffs.repair fs);
        let post = Fsck_ffs.check fs in
        if not (Report.clean post) then
          Alcotest.failf "crash prefix %d/%d not clean after repair: %s" upto n
            (Format.asprintf "%a" Report.pp post);
        let again = Fsck_ffs.repair fs in
        check Alcotest.int
          (Printf.sprintf "prefix %d: second repair is a no-op" upto)
          0 again.Report.repaired
  done;
  (* The crash prefixes must actually have exercised the repair paths. *)
  check Alcotest.bool "some prefix dangles" true !saw_dangling;
  check Alcotest.bool "some prefix orphans" true !saw_orphan;
  check Alcotest.bool "some prefix mismatches bitmaps" true !saw_bitmap;
  check Alcotest.bool "some prefix miscounts links" true !saw_nlink

let test_cffs_torn_crash_images_repair () =
  (* Torn variants of real journalled writes (every block is 8 sectors,
     so any entry can tear): the image must mount, repair clean, and
     embedded entries must never dangle. *)
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:6144 in
  let fs = Cffs.format ~config:Cffs.config_default ~policy:Cache.Delayed dev in
  Cffs.sync fs;
  let fd = Faultdev.attach dev in
  ok "mk" (Cffs.mkdir fs "/d");
  for i = 0 to 9 do
    ok "w" (Cffs.write_file fs (Printf.sprintf "/d/f%d" i) (Bytes.make 900 'x'))
  done;
  Cffs.sync fs;
  ok "rm" (Cffs.unlink fs "/d/f3");
  Cffs.sync fs;
  for i = 10 to 14 do
    ok "w" (Cffs.write_file fs (Printf.sprintf "/d/f%d" i) (Bytes.make 900 'y'))
  done;
  Cffs.sync fs;
  Faultdev.detach fd;
  let entries = Faultdev.journal fd in
  check Alcotest.bool "journal non-trivial" true (List.length entries > 3);
  List.iter
    (fun (e : Faultdev.entry) ->
      let sectors = Faultdev.entry_sectors fd e in
      List.iter
        (fun tear ->
          let dev' = Faultdev.materialize fd ~upto:e.Faultdev.seq ~tear in
          match Cffs.mount dev' with
          | None -> Alcotest.failf "torn entry %d unmountable" e.Faultdev.seq
          | Some fs' ->
              let r = Fsck_cffs.check fs' in
              List.iter
                (function
                  | Report.Dangling_entry { ino; _ }
                    when Cffs.is_embedded_ino ino ->
                      Alcotest.failf
                        "torn entry %d (keep %d): dangling embedded inode %d"
                        e.Faultdev.seq tear ino
                  | _ -> ())
                r.Report.problems;
              ignore (Fsck_cffs.repair fs');
              let post = Fsck_cffs.check fs' in
              if not (Report.clean post) then
                Alcotest.failf "torn entry %d (keep %d) not repaired: %s"
                  e.Faultdev.seq tear
                  (Format.asprintf "%a" Report.pp post);
              check Alcotest.int "idempotent" 0 (Fsck_cffs.repair fs').Report.repaired)
        [ 1; sectors / 2; sectors - 1 ])
    entries

(* ------------------------------------------------------------------ *)
(* Unreadable metadata: a finding, never an exception *)

module Integrity = Cffs_blockdev.Integrity

type damage = Sticky_bad_sector | Checksum_mismatch

(* Make block [blk] of a synced, remounted volume unreadable: a sticky bad
   sector, or random bytes under a stale checksum tag. *)
let damage dev cache kind blk =
  match kind with
  | Sticky_bad_sector -> Faultdev.mark_bad (Faultdev.attach dev) blk
  | Checksum_mismatch ->
      let ig = Option.get (Cache.integrity cache) in
      Blockdev.corrupt_block dev (Integrity.phys ig blk) (Prng.create 7)

let has_bad_dir dir r =
  List.exists (function Report.Bad_directory_block { dir = d; lblk = 0 } -> d = dir | _ -> false)
    r.Report.problems

let test_ffs_bad_dir_block kind () =
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:6144 in
  let fs = Ffs.format ~integrity:(kind = Checksum_mismatch) dev in
  ok "mk" (Ffs.mkdir_p fs "/a/b");
  ok "w" (Ffs.write_file fs "/a/f" (Bytes.make 100 'x'));
  let a = ok "a" (Ffs.resolve fs "/a") in
  let blk = (ok "inode" (Ffs.read_inode fs a)).Inode.direct.(0) in
  Ffs.remount fs;
  damage dev (Ffs.cache fs) kind blk;
  check Alcotest.bool "check reports the block" true (has_bad_dir a (Fsck_ffs.check fs));
  check Alcotest.bool "repair keeps reporting it" true (has_bad_dir a (Fsck_ffs.repair fs))

let test_cffs_bad_dir_block kind () =
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:6144 in
  let fs = Cffs.format ~integrity:(kind = Checksum_mismatch) dev in
  ok "mk" (Cffs.mkdir_p fs "/a/b");
  ok "w" (Cffs.write_file fs "/a/f" (Bytes.make 100 'x'));
  let a = ok "a" (Cffs.resolve fs "/a") in
  let blk = (ok "inode" (Cffs.read_inode fs a)).Inode.direct.(0) in
  Cffs.remount fs;
  damage dev (Cffs.cache fs) kind blk;
  check Alcotest.bool "check reports the block" true (has_bad_dir a (Fsck_cffs.check fs));
  check Alcotest.bool "repair keeps reporting it" true (has_bad_dir a (Fsck_cffs.repair fs))

let only_bad_header cg r =
  r.Report.problems = [ Report.Bad_group_header { cg } ]

let test_ffs_bad_group_header () =
  let fs, dev = populate_ffs () in
  Ffs.remount fs;
  Faultdev.mark_bad (Faultdev.attach dev) (Ffs.Layout.cg_start (Ffs.superblock fs) 1);
  check Alcotest.bool "check: one finding" true (only_bad_header 1 (Fsck_ffs.check fs));
  let r = Fsck_ffs.repair fs in
  check Alcotest.bool "repair: the same finding" true (only_bad_header 1 r);
  check Alcotest.int "nothing repaired" 0 r.Report.repaired

let test_cffs_bad_group_header () =
  let fs, dev = populate_cffs Cffs.config_default in
  Cffs.remount fs;
  Faultdev.mark_bad (Faultdev.attach dev) (Cffs.Csb.cg_start (Cffs.superblock fs) 1);
  check Alcotest.bool "check: one finding" true (only_bad_header 1 (Fsck_cffs.check fs));
  let r = Fsck_cffs.repair fs in
  check Alcotest.bool "repair: the same finding" true (only_bad_header 1 r);
  check Alcotest.int "nothing repaired" 0 r.Report.repaired

let only_bad_inode_block blk r = r.Report.problems = [ Report.Bad_inode_block { blk } ]

(* The inode-table block holding inode 1500 (group 1, all free) turns
   into a sticky bad sector: the orphan sweep meets it. *)
let test_ffs_bad_inode_block () =
  let fs, dev = populate_ffs () in
  Ffs.remount fs;
  let blk = Ffs.Layout.ino_block (Ffs.superblock fs) 1500 in
  Faultdev.mark_bad (Faultdev.attach dev) blk;
  check Alcotest.bool "check: one finding" true (only_bad_inode_block blk (Fsck_ffs.check fs));
  let r = Fsck_ffs.repair fs in
  check Alcotest.bool "repair: the same finding" true (only_bad_inode_block blk r);
  check Alcotest.int "nothing repaired" 0 r.Report.repaired

(* Without embedded inodes every inode but the root's is external: the
   walk meets the unreadable block through /a, so the root's link count
   cannot be judged and must not be "repaired".  The block is read at
   mount, so it is dropped from the cache once it goes bad. *)
let test_cffs_bad_external_inode_block () =
  let fs, dev = populate_cffs Cffs.config_ffs_like in
  let ifile = ok "ifile" (Cffs.read_inode fs Cffs.Csb.ifile_ino) in
  let blk = ifile.Inode.direct.(0) in
  Cffs.remount fs;
  Faultdev.mark_bad (Faultdev.attach dev) blk;
  Cache.invalidate (Cffs.cache fs) blk;
  check Alcotest.bool "check: one finding" true (only_bad_inode_block blk (Fsck_cffs.check fs));
  let r = Fsck_cffs.repair fs in
  check Alcotest.bool "repair: the same finding" true (only_bad_inode_block blk r);
  check Alcotest.int "nothing repaired" 0 r.Report.repaired

(* With integrity, a corrupt primary header is served from its replica,
   as a mount would: nothing for fsck to report. *)
let test_cffs_header_replica () =
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:6144 in
  let fs = Cffs.format ~integrity:true dev in
  ok "mk" (Cffs.mkdir_p fs "/a/b");
  ok "w" (Cffs.write_file fs "/a/f" (Bytes.make 100 'x'));
  Cffs.remount fs;
  damage dev (Cffs.cache fs) Checksum_mismatch (Cffs.Csb.cg_start (Cffs.superblock fs) 1);
  let r = Fsck_cffs.check fs in
  check Alcotest.int "no problems" 0 (Report.count r);
  check Alcotest.int "repair finds none" 0 (Report.count (Fsck_cffs.repair fs))

let () =
  Alcotest.run "cffs_fsck"
    [
      ( "clean",
        [
          Alcotest.test_case "ffs clean" `Quick test_ffs_clean;
          Alcotest.test_case "cffs clean (4 configs)" `Quick test_cffs_clean_all_configs;
          Alcotest.test_case "empty fs" `Quick test_empty_fs_clean;
          Alcotest.test_case "old volume record" `Quick test_old_volume_record;
        ] );
      ( "ffs corruption",
        [
          Alcotest.test_case "bad superblock" `Quick test_ffs_detects_bad_superblock;
          Alcotest.test_case "dangling entry" `Quick test_ffs_detects_and_repairs_dangling;
          Alcotest.test_case "orphan to lost+found" `Quick test_ffs_repairs_orphan;
          Alcotest.test_case "bitmap mismatch" `Quick test_ffs_repairs_bitmap_mismatch;
          Alcotest.test_case "wrong nlink" `Quick test_ffs_repairs_nlink;
        ] );
      ( "cffs corruption",
        [
          Alcotest.test_case "dangling external" `Quick test_cffs_detects_dangling_external;
          Alcotest.test_case "orphan external" `Quick test_cffs_repairs_orphan_external;
          Alcotest.test_case "bitmap mismatch" `Quick test_cffs_repairs_bitmap;
        ] );
      ( "fault layer",
        [
          Alcotest.test_case "clean repair is a no-op" `Quick test_repair_clean_is_noop;
          Alcotest.test_case "ffs: every crash prefix repairs" `Quick
            test_ffs_fault_layer_repairs_all_prefixes;
          Alcotest.test_case "cffs: torn crash images repair" `Quick
            test_cffs_torn_crash_images_repair;
        ] );
      ( "unreadable",
        [
          Alcotest.test_case "ffs: bad-sector directory block" `Quick
            (test_ffs_bad_dir_block Sticky_bad_sector);
          Alcotest.test_case "ffs: checksum-mismatch directory block" `Quick
            (test_ffs_bad_dir_block Checksum_mismatch);
          Alcotest.test_case "cffs: bad-sector directory block" `Quick
            (test_cffs_bad_dir_block Sticky_bad_sector);
          Alcotest.test_case "cffs: checksum-mismatch directory block" `Quick
            (test_cffs_bad_dir_block Checksum_mismatch);
          Alcotest.test_case "ffs: unreadable group header" `Quick test_ffs_bad_group_header;
          Alcotest.test_case "cffs: unreadable group header" `Quick test_cffs_bad_group_header;
          Alcotest.test_case "cffs: header served from its replica" `Quick
            test_cffs_header_replica;
          Alcotest.test_case "ffs: unreadable inode block" `Quick test_ffs_bad_inode_block;
          Alcotest.test_case "cffs: unreadable external inode block" `Quick
            test_cffs_bad_external_inode_block;
        ] );
      ( "crash injection",
        [
          Alcotest.test_case "sync metadata crashes" `Quick test_crash_sync_metadata;
          Alcotest.test_case "delayed crashes" `Quick test_crash_delayed;
          Alcotest.test_case "sync-created names survive" `Quick
            test_sync_metadata_files_survive_crash;
          Alcotest.test_case "torn directory writes" `Quick test_torn_directory_write;
          qcheck_crash_repair;
        ] );
      ( "soft updates",
        [
          Alcotest.test_case "no dangling at any crash point" `Quick
            test_soft_updates_no_dangling_any_crash_point;
          Alcotest.test_case "rename never loses the file" `Quick
            test_soft_updates_rename_never_loses;
          Alcotest.test_case "delayed-like performance" `Quick
            test_soft_updates_performance_is_delayed_like;
        ] );
    ]
