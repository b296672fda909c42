(* C-FFS tests: the shared battery in all four configurations, the chunk
   directory format, embedded-inode mechanics, external inodes and explicit
   grouping. *)

module Blockdev = Cffs_blockdev.Blockdev
module Cache = Cffs_cache.Cache
module Errno = Cffs_vfs.Errno
module Fs_intf = Cffs_vfs.Fs_intf
module Inode = Cffs_vfs.Inode
module Csb = Cffs.Csb
module Cdir = Cffs.Cdir
module Request = Cffs_disk.Request

let check = Alcotest.check
let ok what = Errno.get_ok what

let fresh config () =
  Cffs.format ~config (Blockdev.memory ~block_size:4096 ~nblocks:6144)

let fresh_default () = fresh Cffs.config_default ()

module Battery = Fs_battery.Make (Cffs)

(* ------------------------------------------------------------------ *)
(* Superblock *)

let test_csb_roundtrip () =
  let sb =
    Csb.mk ~block_size:4096 ~nblocks:10000 ~cg_size:2048 ~group_blocks:16
      ~embed_inodes:true ~grouping:false ~group_file_blocks:8 ~readahead_blocks:0
      ~dirindex_threshold:4 ()
  in
  sb.Csb.ext_high <- 5;
  let b = Bytes.make 4096 '\000' in
  Csb.encode sb b;
  match Csb.decode b with
  | None -> Alcotest.fail "decode failed"
  | Some sb' ->
      check Alcotest.bool "embed" true sb'.Csb.embed_inodes;
      check Alcotest.bool "grouping" false sb'.Csb.grouping;
      check Alcotest.int "group blocks" 16 sb'.Csb.group_blocks;
      check Alcotest.int "ext high" 5 sb'.Csb.ext_high;
      check Alcotest.int "cg count" 4 sb'.Csb.cg_count

let test_csb_bad_magic () =
  let b = Bytes.make 4096 '\000' in
  check Alcotest.bool "zeroes do not decode" true (Csb.decode b = None)

(* A superblock whose geometry [Csb.mk] would reject — here a group frame
   larger than a group's data area, as mkfs --group-kb 100000 asked for —
   written into a formatted image: mount refuses the image. *)
let test_csb_bad_geometry_refused () =
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:6144 in
  ignore (Cffs.format dev);
  check Alcotest.bool "formatted image mounts" true (Cffs.mount dev <> None);
  let corrupt off v =
    let b = Blockdev.read dev 0 1 in
    Cffs_util.Codec.set_u32 b off v;
    Blockdev.write dev 0 b
  in
  corrupt 20 25_000;
  check Alcotest.bool "oversized group frame refused" true (Cffs.mount dev = None);
  corrupt 20 16;
  corrupt 16 1;
  check Alcotest.bool "one-block group refused" true (Cffs.mount dev = None)

(* ------------------------------------------------------------------ *)
(* Chunk directory format *)

let test_cdir_chunks () =
  check Alcotest.int "16 chunks per 4K block" 16 (Cdir.chunks_per_block ~block_size:4096)

let test_cdir_embedded_entry () =
  let b = Bytes.make 4096 '\000' in
  Cdir.init_block b;
  check Alcotest.int "empty" 0 (Cdir.live_count b);
  let inode = Inode.mk Inode.Regular in
  inode.Inode.size <- 777;
  Cdir.set_embedded b 3 "hello.txt" inode;
  check Alcotest.int "one live" 1 (Cdir.live_count b);
  (match Cdir.find b "hello.txt" with
  | None -> Alcotest.fail "not found"
  | Some e ->
      check Alcotest.int "chunk" 3 e.Cdir.chunk;
      check Alcotest.bool "embedded" true e.Cdir.embedded);
  let back = Cdir.read_inode b 3 in
  check Alcotest.int "inline inode size" 777 back.Inode.size;
  check (Alcotest.option Alcotest.int) "free chunk skips 3" (Some 0) (Cdir.find_free b);
  Cdir.clear b 3;
  check Alcotest.int "cleared" 0 (Cdir.live_count b)

let test_cdir_external_entry () =
  let b = Bytes.make 4096 '\000' in
  Cdir.init_block b;
  Cdir.set_external b 0 "linked" 12345;
  match Cdir.find b "linked" with
  | None -> Alcotest.fail "not found"
  | Some e ->
      check Alcotest.bool "not embedded" false e.Cdir.embedded;
      check Alcotest.int "ext ino" 12345 e.Cdir.ext_ino

let test_cdir_name_limit () =
  let b = Bytes.make 4096 '\000' in
  Cdir.init_block b;
  let long = String.make Cdir.max_name 'n' in
  Cdir.set_embedded b 0 long (Inode.mk Inode.Regular);
  check Alcotest.bool "max-length name stored" true (Cdir.find b long <> None);
  check Alcotest.bool "too long rejected" true
    (try Cdir.set_embedded b 1 (String.make (Cdir.max_name + 1) 'n') (Inode.mk Inode.Regular); false
     with Invalid_argument _ -> true)

let test_cdir_fills () =
  let b = Bytes.make 4096 '\000' in
  Cdir.init_block b;
  for i = 0 to 15 do
    Cdir.set_embedded b i (Printf.sprintf "f%02d" i) (Inode.mk Inode.Regular)
  done;
  check (Alcotest.option Alcotest.int) "full" None (Cdir.find_free b);
  check Alcotest.int "16 live" 16 (Cdir.live_count b)

(* [Cdir.find] compares names in place; the reference decodes every
   entry through [Cdir.iter] and takes the first whose name is equal. *)
let decoded_find b name =
  let r = ref None in
  Cdir.iter b (fun e -> if !r = None && e.Cdir.name = name then r := Some e);
  !r

let name_pool = [| ""; "a"; "f00"; "hello.txt"; "x\000y"; String.make Cdir.max_name 'n' |]

(* A block of live, free, external and overflow-link chunks, then torn
   by byte pokes that favour the state and namelen bytes (namelen up to
   255, past the 119-byte clamp). *)
let gen_cdir_block =
  let open QCheck.Gen in
  let chunk =
    oneof
      [
        return `Free;
        map (fun i -> `Embedded name_pool.(i)) (int_bound (Array.length name_pool - 1));
        map2 (fun i ino -> `External (name_pool.(i), ino))
          (int_bound (Array.length name_pool - 1)) (int_bound 100_000);
        map (fun next -> `Overflow next) (int_bound 100_000);
      ]
  in
  let poke =
    map3
      (fun i field v -> (i, field, v))
      (int_bound 15)
      (frequencyl [ (3, `State); (3, `Namelen); (2, `Name) ])
      (frequency [ (2, int_bound 255); (1, int_range 120 255); (1, return 1) ])
  in
  map2
    (fun chunks pokes ->
      let b = Bytes.make 4096 '\000' in
      Cdir.init_block b;
      List.iteri
        (fun i -> function
          | `Free -> ()
          | `Embedded name -> Cdir.set_embedded b i name (Inode.mk Inode.Regular)
          | `External (name, ino) -> Cdir.set_external b i name ino
          | `Overflow next -> Cdir.set_overflow b i ~next)
        chunks;
      List.iter
        (fun (i, field, v) ->
          let off = Cdir.chunk_off i in
          match field with
          | `State -> Bytes.set_uint8 b off v
          | `Namelen -> Bytes.set_uint8 b (off + 1) v
          | `Name -> Bytes.set_uint8 b (off + 8 + (v mod 120)) (v land 0x7f))
        pokes;
      b)
    (list_repeat 16 chunk) (list_size (int_bound 8) poke)

(* Query every pooled name, every name the reference decodes (clamped
   ones included), and one longer than any chunk can hold. *)
let cdir_queries b =
  let decoded = ref [] in
  Cdir.iter b (fun e -> decoded := e.Cdir.name :: !decoded);
  (String.make (Cdir.max_name + 1) 'n' :: Array.to_list name_pool) @ !decoded

let qcheck_cdir_find_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"find = decoded reference on torn blocks"
       (QCheck.make gen_cdir_block) (fun b ->
         List.for_all (fun q -> Cdir.find b q = decoded_find b q) (cdir_queries b)))

(* The probe is [find] and [find_free] in one walk. *)
let qcheck_cdir_probe_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"probe = find, then find_free, on torn blocks"
       (QCheck.make gen_cdir_block) (fun b ->
         List.for_all
           (fun q ->
             match Cdir.probe b q with
             | `Hit e -> Cdir.find b q = Some e
             | `Room c -> Cdir.find b q = None && Cdir.find_free b = Some c
             | `Full -> Cdir.find b q = None && Cdir.find_free b = None)
           (cdir_queries b)))

(* A random inode, every field up to its on-disk width (the size up to
   what an OCaml int holds), block pointers up to u32-max. *)
let gen_inode =
  let open QCheck.Gen in
  let u32 = oneof [ int_bound 0xFFFF_FFFF; return 0xFFFF_FFFF; return 0 ] in
  let* kind = oneofl [ Inode.Free; Inode.Regular; Inode.Directory ] in
  let* nlink = int_bound 0xFFFF in
  let* size = oneof [ int_bound max_int; return max_int; small_nat ] in
  let* mtime = u32 and* generation = u32 and* flags = u32 in
  let* direct = array_repeat Inode.n_direct u32 in
  let* indirect = u32 and* dindirect = u32 in
  let* spare = array_repeat Inode.n_spare u32 in
  return
    { Inode.kind; nlink; size; mtime; generation; flags; direct; indirect; dindirect; spare }

let print_inode (i : Inode.t) =
  Printf.sprintf "%s size=%d mtime=%d gen=%d flags=%d direct=[%s] ind=%d dind=%d spare=[%s]"
    (Format.asprintf "%a" Inode.pp i)
    i.size i.mtime i.generation i.flags
    (String.concat ";" (Array.to_list (Array.map string_of_int i.direct)))
    i.indirect i.dindirect
    (String.concat ";" (Array.to_list (Array.map string_of_int i.spare)))

(* Encode then decode gives the same record, at an FFS inode-table slot
   and in a directory chunk. *)
let qcheck_inode_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"inode encode/decode round-trips"
       (QCheck.make ~print:(fun (i, k, c) -> Printf.sprintf "%s slot=%d chunk=%d" (print_inode i) k c)
          QCheck.Gen.(triple gen_inode (int_bound 31) (int_bound 15)))
       (fun (inode, slot, chunk) ->
         let b = Bytes.make 4096 '\255' in
         Inode.encode inode b (slot * Inode.size_bytes);
         let table = Inode.decode b (slot * Inode.size_bytes) in
         let d = Bytes.make 4096 '\000' in
         Cdir.init_block d;
         Cdir.set_embedded d chunk "f" inode;
         table = inode && Cdir.read_inode d chunk = inode))

(* A chunk's entry header reads back as written: name, embedded flag,
   external inode number. *)
let qcheck_cdir_header_roundtrip =
  let gen =
    let open QCheck.Gen in
    quad
      (string_size ~gen:printable (int_range 1 Cdir.max_name))
      bool (int_bound 0xFFFF_FFFF) (int_bound 15)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"chunk entry header round-trips"
       (QCheck.make ~print:QCheck.Print.(quad string bool int int) gen)
       (fun (name, embedded, ext, chunk) ->
         let b = Bytes.make 4096 '\000' in
         Cdir.init_block b;
         if embedded then Cdir.set_embedded b chunk name (Inode.mk Inode.Regular)
         else Cdir.set_external b chunk name ext;
         let ext = if embedded then 0 else ext in
         Cdir.find b name = Some { Cdir.chunk; name; embedded; ext_ino = ext }
         && Cdir.locate b name = chunk
         && Cdir.embedded b chunk = embedded
         && Cdir.ext_ino b chunk = ext))

let test_cdir_find_miss_allocates_nothing () =
  let b = Bytes.make 4096 '\000' in
  Cdir.init_block b;
  for i = 0 to 15 do
    Cdir.set_embedded b i (Printf.sprintf "f%02d" i) (Inode.mk Inode.Regular)
  done;
  let calls = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Cdir.find b "absent"))
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int calls in
  check Alcotest.bool
    (Printf.sprintf "%.2f words per miss on a full block" per_call)
    true (per_call < 1.0)

(* ------------------------------------------------------------------ *)
(* The battery, in all four configurations. *)

let battery = Battery.tests ~fsck:Cffs_fsck.Fsck_cffs.check
let battery_default = battery fresh_default
let battery_none = battery (fresh Cffs.config_ffs_like)
let battery_ei = battery (fresh { Cffs.config_default with grouping = false })
let battery_eg = battery (fresh { Cffs.config_default with embed_inodes = false })

(* ------------------------------------------------------------------ *)
(* Embedded-inode mechanics *)

let test_embedded_ino_positions () =
  let fs = fresh_default () in
  ok "mk" (Cffs.mkdir fs "/d");
  ok "w" (Cffs.write_file fs "/d/f" (Bytes.of_string "x"));
  let ino = ok "resolve" (Cffs.resolve fs "/d/f") in
  check Alcotest.bool "embedded number" true (Cffs.is_embedded_ino ino);
  (* The inode is readable directly through its positional number. *)
  let inode = ok "read_inode" (Cffs.read_inode fs ino) in
  check Alcotest.int "size via position" 1 inode.Inode.size

let test_root_ino_resident () =
  let fs = fresh_default () in
  check Alcotest.int "root is 2" Csb.root_ino (ok "resolve /" (Cffs.resolve fs "/"))

let test_create_single_sync_write () =
  (* The headline embedded-inode property: creating a file costs ONE
     synchronous metadata write (name + inode share a sector). *)
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:6144 in
  let fs = Cffs.format ~config:Cffs.config_default ~policy:Cache.Sync_metadata dev in
  ok "mk" (Cffs.mkdir fs "/d");
  ok "warm" (Cffs.write_file fs "/d/warm" (Bytes.make 1024 'x'));
  let before = (Cache.stats (Cffs.cache fs)).Cache.sync_writes in
  ok "w" (Cffs.write_file fs "/d/f" (Bytes.make 1024 'x'));
  let after = (Cache.stats (Cffs.cache fs)).Cache.sync_writes in
  check Alcotest.int "one sync write per create" 1 (after - before)

let test_external_create_two_sync_writes () =
  (* Without embedding, create is back to FFS's two ordered writes. *)
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:6144 in
  let fs = Cffs.format ~config:Cffs.config_ffs_like ~policy:Cache.Sync_metadata dev in
  ok "mk" (Cffs.mkdir fs "/d");
  ok "warm" (Cffs.write_file fs "/d/warm" (Bytes.make 1024 'x'));
  let before = (Cache.stats (Cffs.cache fs)).Cache.sync_writes in
  ok "w" (Cffs.write_file fs "/d/f" (Bytes.make 1024 'x'));
  let after = (Cache.stats (Cffs.cache fs)).Cache.sync_writes in
  check Alcotest.int "two sync writes per create" 2 (after - before)

let test_link_externalizes () =
  let fs = fresh_default () in
  ok "w" (Cffs.write_file fs "/f" (Bytes.of_string "data"));
  let ino_before = ok "resolve" (Cffs.resolve fs "/f") in
  check Alcotest.bool "embedded at first" true (Cffs.is_embedded_ino ino_before);
  ok "ln" (Cffs.link fs ~existing:"/f" ~target:"/f2");
  let ino_after = ok "resolve2" (Cffs.resolve fs "/f") in
  check Alcotest.bool "externalized" false (Cffs.is_embedded_ino ino_after);
  check Alcotest.int "both names same ino" ino_after (ok "resolve3" (Cffs.resolve fs "/f2"));
  check Alcotest.int "nlink 2" 2 (ok "stat" (Cffs.stat fs "/f")).Fs_intf.st_nlink;
  check Alcotest.bytes "content intact" (Bytes.of_string "data")
    (ok "read" (Cffs.read_file fs "/f2"))

(* nlink is a u16 on disk: a link past [Inode.link_max] is refused
   before anything is written, so an embedded inode stays where it is. *)
let test_link_max () =
  let fs = fresh_default () in
  ok "w" (Cffs.write_file fs "/f" (Bytes.of_string "x"));
  let ino = ok "resolve" (Cffs.resolve fs "/f") in
  let inode = ok "read" (Cffs.read_inode fs ino) in
  inode.Inode.nlink <- Inode.link_max;
  ok "raw" (Cffs.write_inode_raw fs ino inode);
  check Alcotest.bool "EMLINK" true
    (Cffs.link fs ~existing:"/f" ~target:"/g" = Error Errno.Emlink);
  check Alcotest.bool "no second name" false (Cffs.exists fs "/g");
  Cffs.remount fs;
  check Alcotest.int "still embedded" ino (ok "resolve" (Cffs.resolve fs "/f"));
  check Alcotest.int "nlink kept" Inode.link_max
    (ok "read" (Cffs.read_inode fs ino)).Inode.nlink

(* Buffer-cache lookups of one create in a linear directory just grown
   to [n] blocks. *)
let create_lookups config n =
  let fs = fresh config () in
  ok "mkdir" (Cffs.mkdir fs "/d");
  let rec fill i =
    if (ok "stat" (Cffs.stat fs "/d")).Fs_intf.st_size < n * 4096 then begin
      ok "create" (Cffs.create fs (Printf.sprintf "/d/n%07d" i));
      fill (i + 1)
    end
  in
  fill 0;
  let lookups () =
    let s = Cache.stats (Cffs.cache fs) in
    s.Cache.phys_hits + s.Cache.logical_hits + s.Cache.misses
  in
  let before = lookups () in
  ok "create" (Cffs.create fs "/d/probe");
  lookups () - before

(* Proving the name absent and finding its slot is one pass: four more
   directory blocks cost a create four more lookups, not eight. *)
let test_create_reads_each_block_once () =
  List.iter
    (fun config ->
      check Alcotest.int (Cffs.config_label config) 4
        (create_lookups config 8 - create_lookups config 4))
    [ { Cffs.config_default with Cffs.dirindex_threshold = 0 }; Cffs.config_ffs_like ]

let test_rename_changes_embedded_ino () =
  let fs = fresh_default () in
  ok "w" (Cffs.write_file fs "/f" (Bytes.of_string "moving"));
  let before = ok "r1" (Cffs.resolve fs "/f") in
  ok "mk" (Cffs.mkdir fs "/d");
  ok "mv" (Cffs.rename_path fs ~src:"/f" ~dst:"/d/g");
  let after = ok "r2" (Cffs.resolve fs "/d/g") in
  check Alcotest.bool "position changed" true (before <> after);
  check Alcotest.bytes "content follows" (Bytes.of_string "moving")
    (ok "read" (Cffs.read_file fs "/d/g"))

let fsck_clean what fs =
  let r = Cffs_fsck.Fsck_cffs.check fs in
  if not (Cffs_fsck.Report.clean r) then
    Alcotest.failf "%s: fsck: %s" what (Format.asprintf "%a" Cffs_fsck.Report.pp r)

(* The 128th create fills /d's linear blocks, so the rename's insert
   promotes /d to an index and moves the source entry with every other:
   the source must be cleared where it went, not in a freed block. *)
let test_rename_across_promotion () =
  let fs = fresh_default () in
  ok "mkdir" (Cffs.mkdir fs "/d");
  for i = 0 to 127 do
    ok "create" (Cffs.create fs (Printf.sprintf "/d/f%03d" i))
  done;
  ok "rename" (Cffs.rename_path fs ~src:"/d/f005" ~dst:"/d/g005");
  let names = ok "list" (Cffs.list_dir fs "/d") in
  check Alcotest.int "entries" 128 (List.length names);
  check Alcotest.bool "source gone" false (List.mem "f005" names);
  check Alcotest.bool "target there" true (List.mem "g005" names);
  fsck_clean "after rename" fs

(* Filling the device ends in a short write, whose blocks the file keeps.
   Without embedded inodes a create then takes an inode-file slot before
   its name; when the directory cannot grow, the slot must go back. *)
let test_enospc_create_frees_inode () =
  let fs = fresh Cffs.config_ffs_like () in
  ok "mkdir" (Cffs.mkdir fs "/d");
  let chunk = Bytes.make (64 * 1024) 'x' in
  let rec fill i =
    match Cffs.write_file fs (Printf.sprintf "/f%04d" i) chunk with
    | Ok () -> fill (i + 1)
    | Error Errno.Enospc -> ()
    | Error e -> Alcotest.failf "fill: %s" (Errno.to_string e)
  in
  fill 0;
  fsck_clean "after fill" fs;
  check Alcotest.bool "create in empty /d" true
    (Cffs.create fs "/d/x" = Error Errno.Enospc);
  fsck_clean "after ENOSPC" fs

let test_external_ino_reuse () =
  let fs = fresh (Cffs.config_ffs_like) () in
  ok "w1" (Cffs.write_file fs "/a" (Bytes.of_string "1"));
  let ino_a = ok "r" (Cffs.resolve fs "/a") in
  ok "rm" (Cffs.unlink fs "/a");
  ok "w2" (Cffs.write_file fs "/b" (Bytes.of_string "2"));
  let ino_b = ok "r2" (Cffs.resolve fs "/b") in
  check Alcotest.int "slot reused" ino_a ino_b

let test_ext_free_list_survives_remount () =
  let fs = fresh (Cffs.config_ffs_like) () in
  for i = 0 to 9 do
    ok "w" (Cffs.write_file fs (Printf.sprintf "/f%d" i) (Bytes.of_string "x"))
  done;
  for i = 0 to 4 do
    ok "rm" (Cffs.unlink fs (Printf.sprintf "/f%d" i))
  done;
  Cffs.remount fs;
  (* New files reuse the freed slots rather than growing the inode file. *)
  let high_before = (Cffs.superblock fs).Csb.ext_high in
  for i = 10 to 14 do
    ok "w" (Cffs.write_file fs (Printf.sprintf "/f%d" i) (Bytes.of_string "y"))
  done;
  check Alcotest.int "ext_high stable" high_before (Cffs.superblock fs).Csb.ext_high

let test_long_name_rejected_when_embedded () =
  let fs = fresh_default () in
  let name = "/" ^ String.make 150 'n' in
  check Alcotest.bool "too long for a chunk" true
    (Cffs.create fs name = Error Errno.Enametoolong);
  (* The dense format accepts it. *)
  let fs2 = fresh (Cffs.config_ffs_like) () in
  ok "dense accepts" (Cffs.create fs2 name)

(* ------------------------------------------------------------------ *)
(* Explicit grouping *)

let timed_fs config =
  let dev =
    Blockdev.of_drive (Cffs_disk.Drive.create Cffs_disk.Profile.seagate_st31200)
      ~block_size:4096
  in
  (Cffs.format ~config ~policy:Cache.Sync_metadata dev, dev)

let test_small_files_share_frames () =
  let fs = fresh_default () in
  ok "mk" (Cffs.mkdir fs "/d");
  for i = 0 to 15 do
    ok "w" (Cffs.write_file fs (Printf.sprintf "/d/f%02d" i) (Bytes.make 1024 'x'))
  done;
  (* The 16 files' data blocks occupy very few distinct frames. *)
  let frames = Hashtbl.create 8 in
  for i = 0 to 15 do
    let ino = ok "resolve" (Cffs.resolve fs (Printf.sprintf "/d/f%02d" i)) in
    let inode = ok "inode" (Cffs.read_inode fs ino) in
    match Cffs_vfs.Bmap.read (Cffs.cache fs) inode 0 with
    | Ok (Some p) -> begin
        match Cffs.frame_of_block fs p with
        | Some f -> Hashtbl.replace frames f ()
        | None -> Alcotest.fail "block outside any frame"
      end
    | _ -> Alcotest.fail "unmapped block"
  done;
  check Alcotest.bool "at most 2 frames" true (Hashtbl.length frames <= 2);
  (* A frame's last block may sit alone with the next directory block, so
     the quality metric can be a shade under 1. *)
  check Alcotest.bool "grouped fraction ~1" true (Cffs.grouped_fraction fs >= 0.9)

let test_group_read_single_request () =
  let fs, dev = timed_fs Cffs.config_default in
  ok "mk" (Cffs.mkdir fs "/d");
  for i = 0 to 13 do
    ok "w" (Cffs.write_file fs (Printf.sprintf "/d/f%02d" i) (Bytes.make 1024 'x'))
  done;
  Cffs.remount fs;
  let before = Request.Stats.copy (Blockdev.stats dev) in
  for i = 0 to 13 do
    ignore (ok "r" (Cffs.read_file fs (Printf.sprintf "/d/f%02d" i)))
  done;
  let d = Request.Stats.diff (Blockdev.stats dev) before in
  (* One frame read covers the whole directory's data (plus a directory
     block read): far fewer requests than files. *)
  check Alcotest.bool "few requests" true (d.Request.Stats.reads <= 3)

let test_no_group_read_when_disabled () =
  let fs, dev = timed_fs { Cffs.config_default with grouping = false } in
  ok "mk" (Cffs.mkdir fs "/d");
  for i = 0 to 13 do
    ok "w" (Cffs.write_file fs (Printf.sprintf "/d/f%02d" i) (Bytes.make 1024 'x'))
  done;
  Cffs.remount fs;
  let before = Request.Stats.copy (Blockdev.stats dev) in
  for i = 0 to 13 do
    ignore (ok "r" (Cffs.read_file fs (Printf.sprintf "/d/f%02d" i)))
  done;
  let d = Request.Stats.diff (Blockdev.stats dev) before in
  check Alcotest.bool "one request per file" true (d.Request.Stats.reads >= 14)

let test_large_file_not_grouped () =
  let fs = fresh_default () in
  ok "mk" (Cffs.mkdir fs "/d");
  ok "w" (Cffs.write_file fs "/d/big" (Bytes.make (1024 * 1024) 'b'));
  let ino = ok "resolve" (Cffs.resolve fs "/d/big") in
  let inode = ok "inode" (Cffs.read_inode fs ino) in
  (* Beyond the small-file threshold the blocks are laid out contiguously
     regardless of frames: successive physical blocks. *)
  let p20 = ok "b20" (Cffs_vfs.Bmap.read (Cffs.cache fs) inode 20) in
  let p21 = ok "b21" (Cffs_vfs.Bmap.read (Cffs.cache fs) inode 21) in
  match (p20, p21) with
  | Some a, Some b -> check Alcotest.int "contiguous tail" (a + 1) b
  | _ -> Alcotest.fail "unmapped"

let test_frame_of_block_alignment () =
  let fs = fresh_default () in
  let sb = Cffs.superblock fs in
  let data0 = Csb.cg_data_start sb 0 in
  check (Alcotest.option Alcotest.int) "first frame" (Some data0)
    (Cffs.frame_of_block fs data0);
  check (Alcotest.option Alcotest.int) "mid frame" (Some data0)
    (Cffs.frame_of_block fs (data0 + 7));
  check (Alcotest.option Alcotest.int) "next frame" (Some (data0 + 16))
    (Cffs.frame_of_block fs (data0 + 16));
  check (Alcotest.option Alcotest.int) "header not in frame" None
    (Cffs.frame_of_block fs (Csb.cg_start sb 0))

let test_grouping_fraction_zero_without_grouping () =
  let fs = fresh (Cffs.config_ffs_like) () in
  ok "mk" (Cffs.mkdir fs "/d");
  for i = 0 to 9 do
    ok "w" (Cffs.write_file fs (Printf.sprintf "/d/f%d" i) (Bytes.make 1024 'x'))
  done;
  check (Alcotest.float 0.01) "no frames at all" 0.0 (Cffs.grouped_fraction fs)

let test_readahead_extension () =
  (* Our future-work extension: sequential read-ahead should cut cold
     large-file read requests without changing the data. *)
  let data = Bytes.make (4 * 1024 * 1024) 'r' in
  let cold_reads window =
    let fs, dev = timed_fs { Cffs.config_default with readahead_blocks = window } in
    ok "w" (Cffs.write_file fs "/big" data);
    Cffs.remount fs;
    let before = Request.Stats.copy (Blockdev.stats dev) in
    let got = ok "r" (Cffs.read_file fs "/big") in
    check Alcotest.bool "content intact" true (Bytes.equal data got);
    (Request.Stats.diff (Blockdev.stats dev) before).Request.Stats.reads
  in
  let off = cold_reads 0 in
  let on = cold_reads 16 in
  check Alcotest.bool
    (Printf.sprintf "requests %d -> %d (>4x fewer)" off on)
    true (on * 4 < off)

let test_mount_preserves_config () =
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:6144 in
  let fs = Cffs.format ~config:{ Cffs.config_default with group_blocks = 32 } dev in
  ok "w" (Cffs.write_file fs "/f" (Bytes.of_string "x"));
  Cffs.sync fs;
  match Cffs.mount dev with
  | None -> Alcotest.fail "mount failed"
  | Some fs2 ->
      let c = Cffs.config fs2 in
      check Alcotest.int "group size persisted" 32 c.Cffs.group_blocks;
      check Alcotest.bool "embed persisted" true c.Cffs.embed_inodes;
      check Alcotest.bytes "data there" (Bytes.of_string "x")
        (ok "r" (Cffs.read_file fs2 "/f"))

(* ------------------------------------------------------------------ *)
(* Cross-configuration equivalence: the four C-FFS configurations and the
   independent FFS implementation are different LAYOUTS of the same
   semantics — any trace must leave the same namespace and contents. *)

let qcheck_config_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25 ~name:"all configurations agree on random traces"
       QCheck.small_nat
       (fun seed ->
         let trace = Cffs_workload.Trace.synthesize ~ops:120 ~dirs:3 ~seed () in
         let fingerprint (packed : Fs_intf.packed) =
           let (Fs_intf.Packed ((module F), fs)) = packed in
           let buf = Buffer.create 256 in
           let rec walk path =
             match F.list_dir fs path with
             | Error _ -> ()
             | Ok names ->
                 List.iter
                   (fun n ->
                     let p = Cffs_vfs.Path.join path n in
                     match F.stat fs p with
                     | Error _ -> Buffer.add_string buf (p ^ "?")
                     | Ok st ->
                         if st.Fs_intf.st_kind = Inode.Directory then begin
                           Buffer.add_string buf (p ^ "/;");
                           walk p
                         end
                         else begin
                           let data =
                             match F.read_file fs p with
                             | Ok d -> Digest.to_hex (Digest.bytes d)
                             | Error _ -> "!"
                           in
                           Buffer.add_string buf
                             (Printf.sprintf "%s=%d:%s;" p st.Fs_intf.st_size data)
                         end)
                   names
           in
           walk "/";
           Buffer.contents buf
         in
         let run_cffs config =
           let dev = Blockdev.memory ~block_size:4096 ~nblocks:8192 in
           let fs = Cffs.format ~config dev in
           let env =
             Cffs_workload.Env.make (Fs_intf.Packed ((module Cffs), fs)) dev
           in
           ignore (Cffs_workload.Trace.replay env trace);
           Cffs.remount fs;
           fingerprint (Fs_intf.Packed ((module Cffs), fs))
         in
         let run_ffs () =
           let dev = Blockdev.memory ~block_size:4096 ~nblocks:8192 in
           let fs = Ffs.format dev in
           let env =
             Cffs_workload.Env.make (Fs_intf.Packed ((module Ffs), fs)) dev
           in
           ignore (Cffs_workload.Trace.replay env trace);
           Ffs.remount fs;
           fingerprint (Fs_intf.Packed ((module Ffs), fs))
         in
         let reference = run_cffs Cffs.config_default in
         List.for_all (fun c -> run_cffs c = reference)
           [
             Cffs.config_ffs_like;
             { Cffs.config_default with grouping = false };
             { Cffs.config_default with embed_inodes = false };
             { Cffs.config_default with readahead_blocks = 8 };
           ]
         && run_ffs () = reference))

(* ------------------------------------------------------------------ *)
(* Adaptive readahead through the read path (regression tests for the
   async-pipeline extension): sequential streams must converge to the
   configured window, random access must never trigger a prefetch, and
   group reads must keep servicing grouped blocks without the readahead
   path double-fetching them. *)

module Registry = Cffs_obs.Registry

let ra_config = { Cffs.config_ffs_like with Cffs.readahead_blocks = 8 }

let seq_file fs ~blocks =
  ok "w" (Cffs.write_file fs "/seq" (Bytes.make (blocks * 4096) 's'));
  Cffs.remount fs

let read_blk fs lblk =
  ignore (ok "r" (Cffs.read fs "/seq" ~off:(lblk * 4096) ~len:4096))

let test_readahead_sequential_reaches_max () =
  let fs = fresh ra_config () in
  seq_file fs ~blocks:32;
  let before = Registry.snapshot () in
  for l = 0 to 31 do
    read_blk fs l
  done;
  let now = Registry.snapshot () in
  let delta = Registry.diff now before in
  check Alcotest.bool "readahead reads happened" true
    (Registry.get_counter delta "cffs.readahead_reads" >= 3);
  (* the adaptive window converged to the configured maximum *)
  check (Alcotest.float 0.01) "window at max" 8.0
    (Registry.get_gauge now "cache.readahead_window");
  (* far fewer data requests than blocks: the stream travelled in runs *)
  check Alcotest.bool "batched transfers" true
    (Registry.get_counter delta "ioqueue.submitted" < 20)

let test_readahead_random_stays_off () =
  let fs = fresh ra_config () in
  seq_file fs ~blocks:32;
  let prng = Cffs_util.Prng.create 5 in
  (* a random permutation with no two consecutive sequential pairs would
     be overkill: plain random hits the seek path almost every access *)
  let order = Array.init 32 (fun i -> i) in
  Cffs_util.Prng.shuffle prng order;
  let before = Registry.snapshot () in
  Array.iter (read_blk fs) order;
  let delta = Registry.diff (Registry.snapshot ()) before in
  check Alcotest.int "no readahead" 0
    (Registry.get_counter delta "cffs.readahead_reads");
  check Alcotest.bool "seeks reset the detector" true
    (Registry.get_counter delta "cache.readahead_resets" > 0)

let test_readahead_composes_with_group_reads () =
  (* grouping on AND readahead on: a small grouped file is serviced by
     frame reads alone — the readahead path must not fetch those blocks a
     second time *)
  let fs = fresh { Cffs.config_default with Cffs.readahead_blocks = 8 } () in
  seq_file fs ~blocks:4;
  let dev = Cache.device (Cffs.cache fs) in
  let sectors0 = (Blockdev.stats dev).Request.Stats.read_sectors in
  let before = Registry.snapshot () in
  for l = 0 to 3 do
    read_blk fs l
  done;
  let delta = Registry.diff (Registry.snapshot ()) before in
  check Alcotest.bool "group read serviced the file" true
    (Registry.get_counter delta "cffs.group_reads" >= 1);
  check Alcotest.int "no readahead on grouped blocks" 0
    (Registry.get_counter delta "cffs.readahead_reads");
  (* every data block travelled at most once: one 16-block frame covers
     the whole file, so even with metadata the cold read moves well under
     two frames' worth of sectors *)
  let sectors = (Blockdev.stats dev).Request.Stats.read_sectors - sectors0 in
  check Alcotest.bool "no double fetch" true (sectors <= 2 * 16 * 8)

let test_file_runs () =
  let fs = fresh_default () in
  ok "w" (Cffs.write_file fs "/f" (Bytes.make (6 * 4096) 'r'));
  let runs = ok "runs" (Cffs.file_runs fs "/f") in
  check Alcotest.int "covers the file" 6
    (List.fold_left (fun a (_, n) -> a + n) 0 runs);
  (* runs are maximal: no two adjacent entries are physically contiguous *)
  let rec maximal = function
    | (s1, n1) :: ((s2, _) :: _ as rest) ->
        s1 + n1 <> s2 && maximal rest
    | _ -> true
  in
  check Alcotest.bool "maximal runs" true (maximal runs);
  ok "mkdir" (Cffs.mkdir fs "/d");
  (match Cffs.file_runs fs "/d" with
  | Error Errno.Eisdir -> ()
  | Ok _ | Error _ -> Alcotest.fail "file_runs on a directory must be Eisdir");
  (* holes are omitted *)
  ok "create" (Cffs.create fs "/sparse");
  ok "far" (Cffs.write fs "/sparse" ~off:(100 * 4096) (Bytes.make 4096 'e'));
  let sparse = ok "runs" (Cffs.file_runs fs "/sparse") in
  check Alcotest.int "one block" 1
    (List.fold_left (fun a (_, n) -> a + n) 0 sparse)

(* ------------------------------------------------------------------ *)
(* The in-core inode table: a read hands out the record the table holds
   while that record still equals its block's bytes, and decodes afresh
   otherwise, whatever changed the bytes or the record. *)

let table_fs () =
  let fs = fresh_default () in
  ok "write" (Cffs.write_file fs "/f" (Bytes.of_string "twelve bytes"));
  (fs, ok "resolve" (Cffs.resolve fs "/f"))

let size_of fs ino = (ok "read_inode" (Cffs.read_inode fs ino)).Inode.size

let test_table_shares_unchanged () =
  let fs, ino = table_fs () in
  let a = ok "read" (Cffs.read_inode fs ino) in
  check Alcotest.bool "same record" true (a == ok "read" (Cffs.read_inode fs ino));
  (* A shared record costs only the result's [Ok] box: no decode. *)
  Alloc_probe.at_most "repeat read_inode" 2.0
    (Alloc_probe.words_per_call (fun () -> Cffs.read_inode fs ino))

let test_table_drops_mutated () =
  let fs, ino = table_fs () in
  let a = ok "read" (Cffs.read_inode fs ino) in
  a.Inode.size <- 999;
  a.Inode.direct.(3) <- 77;
  let b = ok "read" (Cffs.read_inode fs ino) in
  check Alcotest.bool "fresh record" false (a == b);
  check Alcotest.int "block's size" 12 b.Inode.size;
  check Alcotest.int "block's pointer" 0 b.Inode.direct.(3)

let test_table_after_raw_write () =
  let fs, ino = table_fs () in
  let c = Inode.copy (ok "read" (Cffs.read_inode fs ino)) in
  c.Inode.size <- 5;
  ok "write_inode_raw" (Cffs.write_inode_raw fs ino c);
  check Alcotest.int "fsck's size" 5 (size_of fs ino)

let test_table_after_device_write () =
  let fs, ino = table_fs () in
  check Alcotest.int "before" 12 (size_of fs ino);
  Cffs.sync fs;
  let dev = Cache.device (Cffs.cache fs) in
  let blk = (ino - Csb.embed_bit) / Cdir.chunks_per_block ~block_size:4096 in
  let chunk = (ino - Csb.embed_bit) mod Cdir.chunks_per_block ~block_size:4096 in
  let b = Blockdev.read dev blk 1 in
  Cffs_util.Codec.set_u64 b (Cdir.inode_off chunk + 4) 7;
  Blockdev.write dev blk b;
  Cffs.remount fs;
  check Alcotest.int "the device's size" 7 (size_of fs ino)

let test_table_after_rename () =
  let fs, ino = table_fs () in
  ok "mkdir" (Cffs.mkdir fs "/d");
  check Alcotest.int "before" 12 (size_of fs ino);
  ok "rename" (Cffs.rename_path fs ~src:"/f" ~dst:"/d/g");
  check Alcotest.bool "old number gone" true (Cffs.read_inode fs ino = Error Errno.Enoent);
  check Alcotest.int "moved inode" 12 (size_of fs (ok "resolve" (Cffs.resolve fs "/d/g")));
  (* A new file takes the chunk the moved inode left. *)
  ok "write" (Cffs.write_file fs "/h" (Bytes.of_string "new"));
  check Alcotest.int "same position" ino (ok "resolve" (Cffs.resolve fs "/h"));
  check Alcotest.int "new file's size" 3 (size_of fs ino)

(* ------------------------------------------------------------------ *)
(* The file-system call path's allocation: one call on the small-file
   path allocates a small constant plus its result.  The standard setup
   (timed drive, synchronous metadata), 1 KB files, 100 per directory,
   and a 64-entry name cache that the calls cycle past, so every path
   walk misses it as the 10^4-file benchmark's do.  The bounds are the
   counts measured when the guards were last set (464, 289, 152, 11.1
   and 156 words) plus up to a tenth; before the in-core inode table the
   calls measured 667, 347, 181, 11.1 and 241, and before the
   allocation-lean call path 1317, 596, 411, 48.3 and 538. *)

module Setup = Cffs_harness.Setup
module Namei = Cffs_namei.Namei

let guard_files = 1000
let guard_paths = Array.init guard_files (fun i -> Printf.sprintf "/g/d%02d/f%04d" (i / 100) i)

let guard_fs namei =
  let setup = Setup.standard ~namei (Setup.Cffs_fs Cffs.config_default) in
  let fs = Option.get (Setup.instantiate setup).Setup.cffs in
  ok "mkdir" (Cffs.mkdir fs "/g");
  for d = 0 to (guard_files / 100) - 1 do
    ok "mkdir" (Cffs.mkdir fs (Printf.sprintf "/g/d%02d" d))
  done;
  fs

(* The next path of the cycle. *)
let cycle () =
  let i = ref (-1) in
  fun () ->
    incr i;
    guard_paths.(!i mod guard_files)

let populate fs payload =
  Array.iter (fun p -> ok "create" (Cffs.write_file fs p payload)) guard_paths;
  Cffs.sync fs

let test_call_allocation () =
  let payload = Bytes.make 1024 'x' in
  let fs = guard_fs { Namei.config_default with capacity = 64; attr_capacity = 64 } in
  let next = cycle () in
  let words f = Alloc_probe.words_per_call ~n:guard_files f in
  Alloc_probe.at_most "create + unlink" 510.0
    (words (fun () ->
         let p = next () in
         ok "create" (Cffs.write_file fs p payload);
         ok "unlink" (Cffs.unlink fs p)));
  populate fs payload;
  Alloc_probe.at_most "read_file" 315.0 (words (fun () -> ok "read" (Cffs.read_file fs (next ()))));
  let overwrite () = ok "overwrite" (Cffs.write fs (next ()) ~off:0 payload) in
  Alloc_probe.at_most "overwrite" 165.0 (words overwrite);
  (* A sync's words are those of a directory's overwrites and the sync
     that ends them, less the overwrites' own. *)
  let per_dir () =
    for _ = 1 to 100 do
      overwrite ()
    done
  in
  let written () =
    Cffs_obs.Registry.get_counter (Cffs_obs.Registry.snapshot ()) "cache.writebacks"
  in
  let w0 = written () in
  let synced = Alloc_probe.words_per_call ~n:20 (fun () -> per_dir (); Cffs.sync fs) in
  let blocks = float_of_int (written () - w0) /. 21.0 in
  let unsynced = Alloc_probe.words_per_call ~n:20 per_dir in
  Alloc_probe.at_most "sync, per written-back block" 12.0 ((synced -. unsynced) /. blocks)

(* A stat whose path walk misses every name cache: uncached resolution. *)
let test_miss_stat_allocation () =
  let fs = guard_fs Namei.config_disabled in
  populate fs (Bytes.make 1024 'x');
  let next = cycle () in
  Alloc_probe.at_most "namei-miss stat" 170.0
    (Alloc_probe.words_per_call ~n:guard_files (fun () -> ok "stat" (Cffs.stat fs (next ()))))

let () =
  Alcotest.run "cffs"
    [
      ( "superblock",
        [
          Alcotest.test_case "roundtrip" `Quick test_csb_roundtrip;
          Alcotest.test_case "bad magic" `Quick test_csb_bad_magic;
          Alcotest.test_case "bad geometry refused" `Quick test_csb_bad_geometry_refused;
        ] );
      ( "cdir",
        [
          Alcotest.test_case "chunks per block" `Quick test_cdir_chunks;
          Alcotest.test_case "embedded entry" `Quick test_cdir_embedded_entry;
          Alcotest.test_case "external entry" `Quick test_cdir_external_entry;
          Alcotest.test_case "name limit" `Quick test_cdir_name_limit;
          Alcotest.test_case "fills" `Quick test_cdir_fills;
          qcheck_cdir_find_oracle;
          qcheck_cdir_probe_oracle;
          qcheck_inode_roundtrip;
          qcheck_cdir_header_roundtrip;
          Alcotest.test_case "find miss allocates nothing" `Quick
            test_cdir_find_miss_allocates_nothing;
        ] );
      ("equivalence", [ qcheck_config_equivalence ]);
      ( "readahead",
        [
          Alcotest.test_case "sequential reaches max window" `Quick
            test_readahead_sequential_reaches_max;
          Alcotest.test_case "random stays off" `Quick
            test_readahead_random_stays_off;
          Alcotest.test_case "composes with group reads" `Quick
            test_readahead_composes_with_group_reads;
          Alcotest.test_case "file_runs" `Quick test_file_runs;
        ] );
      ("battery EI+EG", battery_default);
      ("battery none", battery_none);
      ("battery EI", battery_ei);
      ("battery EG", battery_eg);
      ( "embedded inodes",
        [
          Alcotest.test_case "positional numbers" `Quick test_embedded_ino_positions;
          Alcotest.test_case "root resident" `Quick test_root_ino_resident;
          Alcotest.test_case "create = 1 sync write" `Quick test_create_single_sync_write;
          Alcotest.test_case "external create = 2 sync writes" `Quick
            test_external_create_two_sync_writes;
          Alcotest.test_case "link externalizes" `Quick test_link_externalizes;
          Alcotest.test_case "link past link_max" `Quick test_link_max;
          Alcotest.test_case "create reads each block once" `Quick
            test_create_reads_each_block_once;
          Alcotest.test_case "rename moves inode" `Quick test_rename_changes_embedded_ino;
          Alcotest.test_case "rename across promotion" `Quick test_rename_across_promotion;
          Alcotest.test_case "ENOSPC create frees its inode" `Quick
            test_enospc_create_frees_inode;
          Alcotest.test_case "external slot reuse" `Quick test_external_ino_reuse;
          Alcotest.test_case "free list after remount" `Quick
            test_ext_free_list_survives_remount;
          Alcotest.test_case "long names" `Quick test_long_name_rejected_when_embedded;
        ] );
      ( "explicit grouping",
        [
          Alcotest.test_case "small files share frames" `Quick test_small_files_share_frames;
          Alcotest.test_case "group read = 1 request" `Quick test_group_read_single_request;
          Alcotest.test_case "no grouping -> per-file reads" `Quick
            test_no_group_read_when_disabled;
          Alcotest.test_case "large files not grouped" `Quick test_large_file_not_grouped;
          Alcotest.test_case "frame alignment" `Quick test_frame_of_block_alignment;
          Alcotest.test_case "fraction 0 when off" `Quick
            test_grouping_fraction_zero_without_grouping;
          Alcotest.test_case "read-ahead extension" `Quick test_readahead_extension;
          Alcotest.test_case "mount preserves config" `Quick test_mount_preserves_config;
        ] );
      ( "inode table",
        [
          Alcotest.test_case "unchanged inode shared" `Quick test_table_shares_unchanged;
          Alcotest.test_case "mutated record not handed out" `Quick test_table_drops_mutated;
          Alcotest.test_case "after write_inode_raw" `Quick test_table_after_raw_write;
          Alcotest.test_case "after device write + remount" `Quick
            test_table_after_device_write;
          Alcotest.test_case "after rename" `Quick test_table_after_rename;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "file-system calls" `Quick test_call_allocation;
          Alcotest.test_case "namei-miss stat" `Quick test_miss_stat_allocation;
        ] );
    ]
