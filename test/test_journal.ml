(* The write-ahead metadata journal: the @journal alias.

   Unit tests against the raw log (lib/cache/journal.ml) plus full-stack
   crash tests for the properties the design hangs on:

   - geometry: header at [usable-1], log below it, file system confined
     to [fs_blocks]; transactions cost [nimages + 2] log blocks;
   - redo replay is idempotent: applying the log twice leaves the same
     media as applying it once (a crash mid-recovery is just a crash);
   - torn transaction payloads (512-byte-sector granularity) are caught
     by the commit CRC and discarded whole — the volume lands on the
     previous barrier, never on a half-applied transaction;
   - a torn commit block keeps its single-sector payload, so the fully
     drained transaction before it still applies completely;
   - [Cache.policy_of_name] round-trips every canonical name and the
     documented variants;
   - the acceptance criterion: journaled create/delete churn beats
     synchronous metadata by >= 1.5x on the simulated testbed drive. *)

module Blockdev = Cffs_blockdev.Blockdev
module Faultdev = Cffs_blockdev.Faultdev
module Journal = Cffs_cache.Journal
module Cache = Cffs_cache.Cache
module Registry = Cffs_obs.Registry
module Prng = Cffs_util.Prng
module Setup = Cffs_harness.Setup
module Smallfile = Cffs_workload.Smallfile

let check = Alcotest.check

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Cffs_vfs.Errno.to_string e)

let block_pattern bs byte = Bytes.make bs (Char.chr byte)

(* --- Raw log: geometry, commit, replay ------------------------------- *)

let test_geometry () =
  check Alcotest.int "small device log" 32 (Journal.recommended_blocks ~usable:64);
  check Alcotest.int "mid device log" 512 (Journal.recommended_blocks ~usable:4096);
  check Alcotest.int "log is capped" 1024
    (Journal.recommended_blocks ~usable:1_000_000);
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:256 in
  let j = Journal.format dev ~usable:256 in
  check Alcotest.int "log + header below usable" 256
    (Journal.log_start j + Journal.log_blocks j + 1);
  check Alcotest.int "fs ends where the log starts" (Journal.log_start j)
    (Journal.fs_blocks j);
  check Alcotest.int "fresh log is empty" 0 (Journal.head j);
  check Alcotest.int "txn cost is images + desc + commit" 5
    (Journal.blocks_needed ~nimages:3);
  (match Journal.attach dev ~usable:256 with
  | None -> Alcotest.fail "attach did not find the freshly formatted header"
  | Some j2 ->
      check Alcotest.int "reattached geometry" (Journal.log_start j)
        (Journal.log_start j2));
  check Alcotest.bool "no header, no journal" true
    (Journal.attach (Blockdev.memory ~block_size:4096 ~nblocks:256) ~usable:256
    = None)

let test_commit_replay_roundtrip () =
  let bs = 4096 in
  let dev = Blockdev.memory ~block_size:bs ~nblocks:256 in
  let j = Journal.format dev ~usable:256 in
  let images = [ (5, block_pattern bs 0xa1); (9, block_pattern bs 0xb2) ] in
  (match Journal.commit j ~images ~revokes:[] with
  | Journal.Committed -> ()
  | _ -> Alcotest.fail "commit failed");
  check Alcotest.int "head advanced by the txn cost"
    (Journal.blocks_needed ~nimages:2)
    (Journal.head j);
  (* the home blocks are untouched until replay: write-ahead, not in-place *)
  check Alcotest.bool "home blocks still stale" true
    (not (Bytes.equal (Blockdev.read dev 5 1) (block_pattern bs 0xa1)));
  check Alcotest.int "one txn replayed" 1 (Journal.replay_once dev ~usable:256);
  check Alcotest.bool "first image home-written" true
    (Bytes.equal (Blockdev.read dev 5 1) (block_pattern bs 0xa1));
  check Alcotest.bool "second image home-written" true
    (Bytes.equal (Blockdev.read dev 9 1) (block_pattern bs 0xb2));
  (* attach = replay + reset: afterwards the log is empty *)
  (match Journal.attach dev ~usable:256 with
  | None -> Alcotest.fail "attach lost the header"
  | Some j2 -> check Alcotest.int "attach reset the log" 0 (Journal.head j2));
  check Alcotest.int "nothing left to replay" 0
    (Journal.replay_once dev ~usable:256)

let test_no_space_and_revoke () =
  let bs = 4096 in
  let dev = Blockdev.memory ~block_size:bs ~nblocks:256 in
  let j = Journal.format dev ~usable:256 in
  (* 32-block log: 31 images need 33 blocks — must be refused whole *)
  let huge = List.init 31 (fun i -> (10 + i, block_pattern bs 0x33)) in
  (match Journal.commit j ~images:huge ~revokes:[] with
  | Journal.No_space -> ()
  | _ -> Alcotest.fail "oversized txn was not refused");
  check Alcotest.int "refused txn left the log untouched" 0 (Journal.head j);
  (* a revoke in a later txn suppresses the earlier image on replay *)
  (match Journal.commit j ~images:[ (7, block_pattern bs 0x44) ] ~revokes:[] with
  | Journal.Committed -> ()
  | _ -> Alcotest.fail "first commit failed");
  (match Journal.commit j ~images:[ (8, block_pattern bs 0x55) ] ~revokes:[ 7 ] with
  | Journal.Committed -> ()
  | _ -> Alcotest.fail "revoking commit failed");
  check Alcotest.int "both txns replayed" 2 (Journal.replay_once dev ~usable:256);
  check Alcotest.bool "revoked image was not applied" true
    (not (Bytes.equal (Blockdev.read dev 7 1) (block_pattern bs 0x44)));
  check Alcotest.bool "live image was applied" true
    (Bytes.equal (Blockdev.read dev 8 1) (block_pattern bs 0x55))

let test_replay_idempotent () =
  (* Byte-for-byte: replaying the log twice equals replaying it once. *)
  let bs = 4096 and nblocks = 256 in
  let prng = Prng.create 11 in
  let dev1 = Blockdev.memory ~block_size:bs ~nblocks in
  let j = Journal.format dev1 ~usable:nblocks in
  for txn = 0 to 4 do
    let images =
      List.init 3 (fun i -> ((txn * 3) + i + 5, Prng.bytes prng bs))
    in
    let revokes = if txn = 3 then [ 5; 6 ] else [] in
    match Journal.commit j ~images ~revokes with
    | Journal.Committed -> ()
    | _ -> Alcotest.failf "commit %d failed" txn
  done;
  (* clone the media, then replay once on one copy and twice on the other *)
  let dev2 = Blockdev.memory ~block_size:bs ~nblocks in
  for blk = 0 to nblocks - 1 do
    Blockdev.write dev2 blk (Blockdev.read dev1 blk 1)
  done;
  check Alcotest.int "once: five txns" 5 (Journal.replay_once dev1 ~usable:nblocks);
  check Alcotest.int "twice: five txns" 5 (Journal.replay_once dev2 ~usable:nblocks);
  check Alcotest.int "twice more" 5 (Journal.replay_once dev2 ~usable:nblocks);
  for blk = 0 to nblocks - 1 do
    if not (Bytes.equal (Blockdev.read dev1 blk 1) (Blockdev.read dev2 blk 1))
    then Alcotest.failf "block %d differs between replay x1 and replay x2" blk
  done

(* --- Full stack: torn transactions ----------------------------------- *)

(* Run a two-barrier journaled C-FFS workload under the fault recorder and
   hand back everything a torn-crash test needs: the fault device, the two
   file sets, and the index of phase 2's journal append (the big
   multi-sector log write) — the commit record is the entry after it. *)
let two_phase_journaled () =
  let prng = Prng.create 3 in
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:4096 in
  let fs = Cffs.format ~policy:Cache.Journaled dev in
  Cffs.sync fs;
  let fdev = Faultdev.attach ~seed:3 dev in
  let mkfiles tag n =
    List.init n (fun i ->
        let path = Printf.sprintf "/%s_%02d" tag i in
        let data = Prng.bytes prng 1500 in
        ok (Cffs.write_file fs path data);
        (path, data))
  in
  let a = mkfiles "a" 6 in
  Cffs.sync fs;
  let b = mkfiles "b" 6 in
  Cffs.sync fs;
  let jlen2 = Faultdev.journal_length fdev in
  Faultdev.detach fdev;
  let entries = Array.of_list (Faultdev.journal fdev) in
  (* The barrier's last two writes are the journal append (descriptor +
     every metadata image, one contiguous request) and the commit record:
     data home writes all precede them. *)
  let append_idx = jlen2 - 2 in
  let widest = Faultdev.entry_sectors fdev entries.(append_idx) in
  if widest < 16 then
    Alcotest.failf "journal append is only %d sectors — not a multi-block txn"
      widest;
  (fdev, a, b, append_idx, widest)

let mount_and_verify img ~present ~absent what =
  match Cffs.mount img with
  | None -> Alcotest.failf "%s: image unmountable" what
  | Some fs2 ->
      let report = Cffs_fsck.Fsck_cffs.check fs2 in
      if not (Cffs_fsck.Report.is_clean report) then
        Alcotest.failf "%s: replayed image not clean (%d problems)" what
          (List.length report.Cffs_fsck.Report.problems);
      List.iter
        (fun (path, data) ->
          match Cffs.read_file fs2 path with
          | Error e ->
              Alcotest.failf "%s: %s lost (%s)" what path
                (Cffs_vfs.Errno.to_string e)
          | Ok got ->
              if not (Bytes.equal got data) then
                Alcotest.failf "%s: %s read back wrong" what path)
        present;
      List.iter
        (fun (path, _) ->
          match Cffs.read_file fs2 path with
          | Ok _ -> Alcotest.failf "%s: %s half-applied" what path
          | Error _ -> ())
        absent

let test_torn_txn_discarded () =
  (* Tear phase 2's journal append mid-image: the descriptor survives (the
     tear keeps at least its 8 sectors) but the commit CRC can never match,
     so the whole transaction is discarded and the volume lands exactly on
     barrier 1 — phase-a intact, phase-b invisible, fsck clean. *)
  let fdev, a, b, append_idx, widest = two_phase_journaled () in
  let before = Registry.snapshot () in
  List.iter
    (fun k ->
      let img = Faultdev.materialize ~tear:k fdev ~upto:append_idx in
      mount_and_verify img ~present:a ~absent:b
        (Printf.sprintf "append torn at %d/%d sectors" k widest))
    [ 8; widest / 2; widest - 1 ];
  let d = Registry.diff (Registry.snapshot ()) before in
  check Alcotest.bool "torn txns were counted as discarded" true
    (Registry.get_counter d "journal.discarded_txns" >= 3)

let test_torn_commit_is_atomic () =
  (* The entry after the append is the commit record, payload confined to
     sector 0: keeping a single sector of it keeps the whole commit, and
     the drained images before it make the transaction land completely.
     Dropping it entirely (crash at the boundary before) loses the
     transaction completely.  Nothing in between exists. *)
  let fdev, a, b, append_idx, _ = two_phase_journaled () in
  let entries = Array.of_list (Faultdev.journal fdev) in
  let commit_idx = append_idx + 1 in
  check Alcotest.int "commit record is one block"
    (4096 / 512)
    (Faultdev.entry_sectors fdev entries.(commit_idx));
  (* cut just before the commit: txn fully absent *)
  let img = Faultdev.materialize fdev ~upto:commit_idx in
  mount_and_verify img ~present:a ~absent:b "cut before commit";
  (* commit torn to one sector: txn fully present *)
  let img = Faultdev.materialize ~tear:1 fdev ~upto:commit_idx in
  mount_and_verify img ~present:(a @ b) ~absent:[] "commit torn to 1 sector";
  (* commit fully landed: same *)
  let img = Faultdev.materialize fdev ~upto:(commit_idx + 1) in
  mount_and_verify img ~present:(a @ b) ~absent:[] "commit landed"

(* --- Policy-name round-trips ------------------------------------------ *)

let test_policy_names () =
  List.iter
    (fun p ->
      check Alcotest.bool (Cache.policy_name p) true
        (Cache.policy_of_name (Cache.policy_name p) = Some p))
    Cache.all_policies;
  let expect name p =
    check Alcotest.bool name true (Cache.policy_of_name name = Some p)
  in
  expect "journaled" Cache.Journaled;
  expect "journal" Cache.Journaled;
  expect "soft-updates" Cache.Soft_updates;
  expect "soft updates" Cache.Soft_updates;
  expect "Sync-Metadata" Cache.Sync_metadata;
  expect "sync" Cache.Sync_metadata;
  check Alcotest.bool "nonsense is refused" true
    (Cache.policy_of_name "lazy" = None)

(* --- The acceptance criterion ----------------------------------------- *)

let test_churn_beats_sync_metadata () =
  (* Create/delete churn on the simulated testbed drive: batching every
     barrier's metadata into one sequential log append must beat one
     synchronous scattered write per metadata block by >= 1.5x. *)
  let run policy =
    let env = Setup.env ~policy (Setup.Cffs_fs Cffs.config_default) in
    Smallfile.run ~nfiles:400 env
  in
  let rate results phase =
    match
      List.find_opt (fun r -> r.Smallfile.phase = phase) results
    with
    | Some r -> r.Smallfile.files_per_sec
    | None -> Alcotest.failf "missing %s phase" (Smallfile.phase_name phase)
  in
  let sync = run Cache.Sync_metadata in
  let jour = run Cache.Journaled in
  List.iter
    (fun phase ->
      let s = rate sync phase and j = rate jour phase in
      if j < 1.5 *. s then
        Alcotest.failf "%s: journaled %.0f files/s vs sync_metadata %.0f — %.2fx < 1.5x"
          (Smallfile.phase_name phase) j s (j /. s))
    [ Smallfile.Create; Smallfile.Delete ]

(* Allocation guard: a commit hands its descriptor and images to the
   device block by block, without concatenating and re-splitting them, so
   once the log's blocks exist on the media a 16-image commit allocates
   only its descriptor and commit record — two blocks of direct major
   words. *)
let test_commit_allocation () =
  let bs = 4096 in
  let dev = Blockdev.memory ~block_size:bs ~nblocks:4096 in
  let j = Journal.format dev ~usable:4096 in
  let images = List.init 16 (fun i -> (10 + i, block_pattern bs (0x40 + i))) in
  let commit () =
    match Journal.commit j ~images ~revokes:[] with
    | Journal.Committed -> ()
    | _ -> Alcotest.fail "commit failed"
  in
  commit ();
  Journal.reset j;
  let _, p0, m0 = Gc.counters () in
  commit ();
  let _, p1, m1 = Gc.counters () in
  let blocks = ((m1 -. p1) -. (m0 -. p0)) /. float_of_int (bs / 8) in
  check Alcotest.bool
    (Printf.sprintf "16-image commit allocates %.2f blocks <= 2.5" blocks)
    true (blocks <= 2.5);
  check Alcotest.int "the transaction replays" 1 (Journal.replay_once dev ~usable:4096);
  List.iter
    (fun (blk, img) -> check Alcotest.bytes "image applied" img (Blockdev.read dev blk 1))
    images

let () =
  Alcotest.run "cffs_journal"
    [
      ( "raw log",
        [
          Alcotest.test_case "geometry and sizing" `Quick test_geometry;
          Alcotest.test_case "commit / replay roundtrip" `Quick
            test_commit_replay_roundtrip;
          Alcotest.test_case "no-space refusal and revokes" `Quick
            test_no_space_and_revoke;
          Alcotest.test_case "replay is idempotent (x2 = x1)" `Quick
            test_replay_idempotent;
          Alcotest.test_case "commit allocates no payload copies" `Quick
            test_commit_allocation;
        ] );
      ( "torn writes",
        [
          Alcotest.test_case "torn txn payload is discarded whole" `Quick
            test_torn_txn_discarded;
          Alcotest.test_case "commit record is sector-atomic" `Quick
            test_torn_commit_is_atomic;
        ] );
      ( "policy names",
        [ Alcotest.test_case "round-trips and variants" `Quick test_policy_names ] );
      ( "throughput",
        [
          Alcotest.test_case "journaled churn beats sync_metadata 1.5x" `Quick
            test_churn_beats_sync_metadata;
        ] );
    ]
