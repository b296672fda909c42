(* FFS-specific tests: the shared battery plus layout/allocation policy
   checks that only make sense for the baseline. *)

module Blockdev = Cffs_blockdev.Blockdev
module Errno = Cffs_vfs.Errno
module Fs_intf = Cffs_vfs.Fs_intf
module Layout = Ffs.Layout
module Dirent = Ffs.Dirent

let check = Alcotest.check
let ok what = Errno.get_ok what

(* A small memory-backed file system (24 MB) for most tests. *)
let fresh_fs () =
  Ffs.format (Blockdev.memory ~block_size:4096 ~nblocks:6144)

module Battery = Fs_battery.Make (Ffs)

(* ------------------------------------------------------------------ *)
(* Layout *)

let test_layout_sb_roundtrip () =
  let sb = Layout.mk_sb ~block_size:4096 ~nblocks:10000 ~cg_size:2048 ~inodes_per_cg:1024 () in
  let b = Bytes.make 4096 '\000' in
  Layout.encode_sb sb b;
  check Alcotest.bool "roundtrip" true (Layout.decode_sb b = Some sb);
  Bytes.set b 0 'x';
  check Alcotest.bool "bad magic" true (Layout.decode_sb b = None)

let test_layout_geometry () =
  let sb = Layout.mk_sb ~block_size:4096 ~nblocks:10000 ~cg_size:2048 ~inodes_per_cg:1024 () in
  check Alcotest.int "cg count" 4 sb.Layout.cg_count;
  check Alcotest.int "cg 1 start" 2049 (Layout.cg_start sb 1);
  check Alcotest.int "cg of block" 1 (Layout.cg_of_block sb 2100);
  check Alcotest.int "itable blocks" 32 sb.Layout.itable_blocks;
  (* inode 2 lives in cg 0's table. *)
  check Alcotest.int "root inode block" 2 (Layout.ino_block sb 2);
  check Alcotest.int "root inode offset" 256 (Layout.ino_offset sb 2);
  (* inode 1024 is the first of cg 1. *)
  check Alcotest.int "cg1 inode block" (Layout.cg_start sb 1 + 1) (Layout.ino_block sb 1024);
  check Alcotest.int "cg1 inode offset" 0 (Layout.ino_offset sb 1024)

let test_layout_rejects_bad () =
  let reject f = try ignore (f ()); false with Invalid_argument _ -> true in
  check Alcotest.bool "tiny group" true
    (reject (fun () -> Layout.mk_sb ~block_size:4096 ~nblocks:100 ~cg_size:10 ~inodes_per_cg:1024 ()));
  check Alcotest.bool "ragged itable" true
    (reject (fun () -> Layout.mk_sb ~block_size:4096 ~nblocks:10000 ~cg_size:2048 ~inodes_per_cg:1000 ()))

(* ------------------------------------------------------------------ *)
(* Directory block format *)

let test_dirent_block () =
  let b = Bytes.make 512 '\000' in
  Dirent.init_block b;
  check Alcotest.int "empty" 0 (Dirent.live_count b);
  check Alcotest.bool "insert a" true (Dirent.insert b "alpha" 10);
  check Alcotest.bool "insert b" true (Dirent.insert b "beta" 20);
  check (Alcotest.option Alcotest.int) "find beta" (Some 20)
    (Option.map snd (Dirent.find b "beta"));
  check Alcotest.int "live 2" 2 (Dirent.live_count b);
  check (Alcotest.option Alcotest.int) "remove alpha" (Some 10) (Dirent.remove b "alpha");
  check Alcotest.int "live 1" 1 (Dirent.live_count b);
  check Alcotest.bool "alpha gone" true (Dirent.find b "alpha" = None);
  (* Freed space is reusable. *)
  check Alcotest.bool "reinsert" true (Dirent.insert b "gamma" 30);
  check Alcotest.bool "gamma found" true (Dirent.find b "gamma" <> None)

let test_dirent_fills_up () =
  let b = Bytes.make 512 '\000' in
  Dirent.init_block b;
  let rec fill i =
    if Dirent.insert b (Printf.sprintf "name%04d" i) (i + 1) then fill (i + 1) else i
  in
  let n = fill 0 in
  (* 512 bytes / 16 bytes per 8-char-name entry = 32 entries. *)
  check Alcotest.int "fills exactly" 32 n;
  (* Remove one in the middle; one new entry fits again. *)
  ignore (Dirent.remove b "name0010");
  check Alcotest.bool "slot reused" true (Dirent.insert b "fresh" 99)

(* [Dirent.find] and [Dirent.remove] compare names in place; the
   references decode every live entry through [Dirent.iter] and take the
   first whose name is equal. *)
let decoded_find b name =
  let r = ref None in
  Dirent.iter b (fun ~off ~ino n -> if !r = None && n = name then r := Some (off, ino));
  !r

(* Remove the entry [decoded_find] names: coalesce it into the record
   before it in the chain, or free it in place at the head. *)
let decoded_remove b name =
  match decoded_find b name with
  | None -> None
  | Some (off, ino) ->
      let reclen o = Bytes.get_uint16_le b (o + 4) in
      let rec pred prev o = if o = off then prev else pred (Some o) (o + reclen o) in
      (match pred None 0 with
      | Some p -> Bytes.set_uint16_le b (p + 4) (reclen p + reclen off)
      | None -> Bytes.set_int32_le b off 0l);
      Some ino

let dirent_pool = [| "a"; "bb"; "f00"; "hello.txt"; "x\000y"; String.make 40 'n' |]

(* Record offsets along [b]'s reclen chain, as far as it stays sane. *)
let record_starts b =
  let len = Bytes.length b in
  let rec walk acc off =
    if off + Dirent.header_bytes > len then List.rev acc
    else begin
      let reclen = Bytes.get_uint16_le b (off + 4) in
      if reclen <= 0 || off + reclen > len then List.rev (off :: acc)
      else walk (off :: acc) (off + reclen)
    end
  in
  walk [] 0

(* Blocks built by inserts and removes, torn by splicing in 512-byte
   sectors of a second such block and by poking the ino, reclen and
   namelen fields of records on the chain — small reclens cut a record
   short of its name and send the chain into the middle of it. *)
let gen_dirent_block =
  let open QCheck.Gen in
  let ops =
    list_size (int_bound 40)
      (pair bool (pair (int_bound (Array.length dirent_pool - 1)) (int_range 1 1000)))
  in
  let build ops =
    let b = Bytes.make 2048 '\000' in
    Dirent.init_block b;
    List.iter
      (fun (add, (i, ino)) ->
        let name = dirent_pool.(i) in
        if add then ignore (Dirent.insert b name ino) else ignore (Dirent.remove b name))
      ops;
    b
  in
  let poke = triple (int_bound 63) (int_bound 4) (int_bound 0xffff) in
  map2
    (fun (a, other, sectors) pokes ->
      let a = build a and other = build other in
      List.iteri (fun s take -> if take then Bytes.blit other (s * 512) a (s * 512) 512) sectors;
      List.iter
        (fun (k, field, v) ->
          let starts = record_starts a in
          let off = List.nth starts (k mod List.length starts) in
          if off + Dirent.header_bytes <= Bytes.length a then
            match field with
            | 0 -> Bytes.set_int32_le a off (Int32.of_int (v land 3))
            | 1 -> Bytes.set_uint16_le a (off + 4) (4 * (v mod 16))
            | 2 -> Bytes.set_uint16_le a (off + 4) (v land 0x7fc)
            | 3 -> Bytes.set_uint16_le a (off + 6) (v land 0xff)
            | _ -> Bytes.set_uint16_le a (off + 6) (v mod 64))
        pokes;
      a)
    (triple ops ops (list_repeat 4 (frequencyl [ (3, false); (1, true) ])))
    (list_size (int_bound 3) poke)

let dirent_queries b =
  let decoded = ref [] in
  Dirent.iter b (fun ~off:_ ~ino:_ n -> decoded := n :: !decoded);
  ("absent" :: Array.to_list dirent_pool) @ !decoded

let qcheck_dirent_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"find/remove = decoded reference on torn blocks"
       (QCheck.make gen_dirent_block) (fun b ->
         List.for_all
           (fun q ->
             let mine = Bytes.copy b and reference = Bytes.copy b in
             Dirent.find b q = decoded_find b q
             && Dirent.remove mine q = decoded_remove reference q
             && Bytes.equal mine reference)
           (dirent_queries b)))

(* The probe finds what [find] finds, else names the record [insert]
   fills, and [insert_at] there writes what [insert] writes. *)
let qcheck_dirent_probe_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"probe = find, then insert's record, on torn blocks"
       (QCheck.make gen_dirent_block) (fun b ->
         List.for_all
           (fun q ->
             let inserted = Bytes.copy b in
             let fits = Dirent.insert inserted q 7 in
             match Dirent.probe b q with
             | `Hit h -> Dirent.find b q = Some h
             | `Room off ->
                 let mine = Bytes.copy b in
                 Dirent.insert_at mine off q 7;
                 Dirent.find b q = None && fits && Bytes.equal mine inserted
             | `Full -> Dirent.find b q = None && not fits)
           (String.make 255 'L' :: String.make 100 'M' :: dirent_queries b)))

let test_dirent_find_miss_allocates_nothing () =
  let b = Bytes.make 4096 '\000' in
  Dirent.init_block b;
  let rec fill i = if Dirent.insert b (Printf.sprintf "name%04d" i) (i + 1) then fill (i + 1) in
  fill 0;
  let calls = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Dirent.find b "absent"));
    ignore (Sys.opaque_identity (Dirent.remove b "absent"))
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int calls in
  check Alcotest.bool
    (Printf.sprintf "%.2f words per missed find + remove on a full block" per_call)
    true (per_call < 1.0)

(* ------------------------------------------------------------------ *)
(* FFS-specific behaviour *)

let test_inode_exhaustion () =
  (* Tiny inode supply: 64 per group, 2 groups, minus reserved. *)
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:1025 in
  let fs = Ffs.format ~cg_size:512 ~inodes_per_cg:64 dev in
  let rec fill i =
    if i > 1000 then Alcotest.fail "never exhausted"
    else begin
      match Ffs.create fs (Printf.sprintf "/f%04d" i) with
      | Ok () -> fill (i + 1)
      | Error Errno.Enospc -> i
      | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e)
    end
  in
  let n = fill 0 in
  check Alcotest.int "125 files (128 inodes - 3 reserved)" 125 n;
  (* Deleting one frees an inode. *)
  ok "rm" (Ffs.unlink fs "/f0000");
  ok "create again" (Ffs.create fs "/again")

let test_data_near_inode_cg () =
  (* A file created in a directory gets its inode (and thus its data) in the
     directory's cylinder group. *)
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:(8 * 2048) in
  let fs = Ffs.format dev in
  let sb = Ffs.superblock fs in
  ok "mkdir" (Ffs.mkdir fs "/d");
  ok "w" (Ffs.write_file fs "/d/f" (Bytes.make 4096 'x'));
  let dino = ok "resolve d" (Ffs.resolve fs "/d") in
  let fino = ok "resolve f" (Ffs.resolve fs "/d/f") in
  check Alcotest.int "same cg" (Layout.cg_of_ino sb dino) (Layout.cg_of_ino sb fino)

let test_directories_spread () =
  (* New directories spread across cylinder groups (dirpref). *)
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:(8 * 2048) in
  let fs = Ffs.format dev in
  let sb = Ffs.superblock fs in
  let cgs =
    List.init 6 (fun i ->
        let p = Printf.sprintf "/dir%d" i in
        ok "mkdir" (Ffs.mkdir fs p);
        Layout.cg_of_ino sb (ok "resolve" (Ffs.resolve fs p)))
  in
  let distinct = List.sort_uniq compare cgs in
  check Alcotest.bool "more than one group used" true (List.length distinct > 1)

let test_sequential_allocation () =
  (* A sequentially written file gets mostly contiguous blocks. *)
  let fs = fresh_fs () in
  ok "w" (Ffs.write_file fs "/seq" (Bytes.make (64 * 4096) 's'));
  let ino = ok "resolve" (Ffs.resolve fs "/seq") in
  let inode = ok "inode" (Ffs.read_inode fs ino) in
  let blocks = ref [] in
  Cffs_vfs.Bmap.iter (Ffs.cache fs) inode ~data:(fun p -> blocks := p :: !blocks)
    ~meta:(fun _ -> ());
  let blocks = List.rev !blocks in
  let rec count = function
    | a :: (b :: _ as rest) -> (if b = a + 1 then 1 else 0) + count rest
    | _ -> 0
  in
  let contiguous = count blocks in
  check Alcotest.bool "mostly contiguous" true (contiguous >= 60)

let test_mount_existing () =
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:6144 in
  let fs = Ffs.format dev in
  ok "w" (Ffs.write_file fs "/persist" (Bytes.of_string "data"));
  Ffs.sync fs;
  (match Ffs.mount dev with
  | None -> Alcotest.fail "mount failed"
  | Some fs2 ->
      check Alcotest.bytes "visible after mount" (Bytes.of_string "data")
        (ok "read" (Ffs.read_file fs2 "/persist")));
  (* Mounting an unformatted device fails. *)
  let blank = Blockdev.memory ~block_size:4096 ~nblocks:6144 in
  check Alcotest.bool "no sb -> None" true (Ffs.mount blank = None)

let test_sync_write_counts () =
  (* Under Sync_metadata, one create+write issues exactly two synchronous
     metadata writes (inode, dirent) — the cost embedded inodes halve. *)
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:6144 in
  let fs = Ffs.format ~policy:Cffs_cache.Cache.Sync_metadata dev in
  ok "mkdir" (Ffs.mkdir fs "/d");
  let before = (Cffs_cache.Cache.stats (Ffs.cache fs)).Cffs_cache.Cache.sync_writes in
  ok "w" (Ffs.write_file fs "/d/f" (Bytes.make 1024 'x'));
  let after = (Cffs_cache.Cache.stats (Ffs.cache fs)).Cffs_cache.Cache.sync_writes in
  check Alcotest.int "two sync writes per create" 2 (after - before)

(* The in-core inode table: an unchanged inode's record is shared, and
   one mutated without a write is not handed out again. *)
let table_fs () =
  let fs = fresh_fs () in
  ok "write" (Ffs.write_file fs "/f" (Bytes.of_string "twelve bytes"));
  (fs, ok "resolve" (Ffs.resolve fs "/f"))

let test_table_shares_unchanged () =
  let fs, ino = table_fs () in
  let a = ok "read" (Ffs.read_inode fs ino) in
  check Alcotest.bool "same record" true (a == ok "read" (Ffs.read_inode fs ino));
  (* The result's [Ok] box alone: no decode, and the slot's block and
     offset are two ints. *)
  Alloc_probe.at_most "repeat read_inode" 2.0
    (Alloc_probe.words_per_call (fun () -> Ffs.read_inode fs ino))

let test_table_drops_mutated () =
  let fs, ino = table_fs () in
  let a = ok "read" (Ffs.read_inode fs ino) in
  a.Cffs_vfs.Inode.size <- 999;
  let b = ok "read" (Ffs.read_inode fs ino) in
  check Alcotest.bool "fresh record" false (a == b);
  check Alcotest.int "block's size" 12 b.Cffs_vfs.Inode.size

let () =
  Alcotest.run "ffs"
    [
      ( "layout",
        [
          Alcotest.test_case "superblock roundtrip" `Quick test_layout_sb_roundtrip;
          Alcotest.test_case "geometry" `Quick test_layout_geometry;
          Alcotest.test_case "bad parameters" `Quick test_layout_rejects_bad;
        ] );
      ( "dirent",
        [
          Alcotest.test_case "insert/find/remove" `Quick test_dirent_block;
          Alcotest.test_case "fills and reuses" `Quick test_dirent_fills_up;
          qcheck_dirent_oracle;
          qcheck_dirent_probe_oracle;
          Alcotest.test_case "find/remove miss allocates nothing" `Quick
            test_dirent_find_miss_allocates_nothing;
        ] );
      ("battery", Battery.tests ~fsck:Cffs_fsck.Fsck_ffs.check fresh_fs);
      ( "ffs-specific",
        [
          Alcotest.test_case "inode exhaustion" `Quick test_inode_exhaustion;
          Alcotest.test_case "file data near directory" `Quick test_data_near_inode_cg;
          Alcotest.test_case "directories spread" `Quick test_directories_spread;
          Alcotest.test_case "sequential allocation" `Quick test_sequential_allocation;
          Alcotest.test_case "mount existing" `Quick test_mount_existing;
          Alcotest.test_case "sync write counts" `Quick test_sync_write_counts;
        ] );
      ( "inode table",
        [
          Alcotest.test_case "unchanged inode shared" `Quick test_table_shares_unchanged;
          Alcotest.test_case "mutated record not handed out" `Quick test_table_drops_mutated;
        ] );
    ]
