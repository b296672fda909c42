(* The online regrouper: the @regroup alias.

   - A regroup pass on an aged image strictly increases group residency,
     never decreases it, and leaves every file byte-identical with the
     image fsck-clean — under every write policy.
   - ENOSPC mid-pass aborts cleanly: the pass reports [No_space], nothing
     is torn, the image stays fsck-clean and residency does not decrease.
   - A sticky bad sector under a source file skips just that file
     (counted), the pass completes, and every healthy file still moves.
   - Transient read faults are survived (retried inside the cache).
   - The cursor checkpoint resumes a budget-capped pass instead of
     restarting it.
   - Crashmc's regroup phase: every crash prefix during compaction is
     fsck-clean (after repair; pre-repair under Journaled), loses no
     acknowledged data, and reads every file back byte-identical; the
     Journaled volume is integrity-formatted, so its images replay the
     log and scrub with no loss.
   - The aged-then-regrouped smallfile read rate recovers most of the way
     to the fresh layout (the A7 ablation criterion, quick scale). *)

module Blockdev = Cffs_blockdev.Blockdev
module Faultdev = Cffs_blockdev.Faultdev
module Cache = Cffs_cache.Cache
module Fs_intf = Cffs_vfs.Fs_intf
module Errno = Cffs_vfs.Errno
module Env = Cffs_workload.Env
module Aging = Cffs_workload.Aging
module Sizes = Cffs_workload.Sizes
module Layout = Cffs_fsck.Layout
module Regroup = Cffs_fsck.Regroup
module Fsck_cffs = Cffs_fsck.Fsck_cffs
module Report = Cffs_fsck.Report
module Registry = Cffs_obs.Registry
module Crashmc = Cffs_harness.Crashmc
module Experiments = Cffs_harness.Experiments

let check = Alcotest.check

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Errno.to_string e)

(* An aged C-FFS image on a memory device: create/delete churn at high
   utilization until grouping has visibly decayed. *)
let aged_fs ?policy ?(util = 0.85) ?(ops = 4000) () =
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:2048 in
  let fs = Cffs.format ~cg_size:512 ?policy dev in
  let env = Env.make ~cpu_per_op:0.0 (Fs_intf.Packed ((module Cffs), fs)) dev in
  let spec = { (Aging.default_spec util) with Aging.operations = ops; dirs = 6 } in
  let (_ : Aging.outcome) = Aging.run env spec in
  (dev, fs)

let snapshot_files fs =
  let rec go acc path =
    match Cffs.list_dir fs path with
    | Error _ -> acc
    | Ok names ->
        List.fold_left
          (fun acc name ->
            let child = if path = "/" then "/" ^ name else path ^ "/" ^ name in
            match Cffs.stat fs child with
            | Ok st when st.Fs_intf.st_kind = Cffs_vfs.Inode.Directory ->
                go acc child
            | Ok _ -> (child, ok (Cffs.read_file fs child)) :: acc
            | Error _ -> acc)
          acc (List.sort compare names)
  in
  go [] "/"

let assert_clean fs what =
  let r = Fsck_cffs.check fs in
  if not (Report.is_clean r) then
    Alcotest.failf "%s: image not fsck-clean: %s" what
      (Format.asprintf "%a" Report.pp r)

let residency fs = (Layout.cffs_report fs).Layout.group_residency

(* --- Residency recovery, byte identity, every policy ----------------- *)

let test_pass_recovers_residency policy () =
  let _dev, fs = aged_fs ~policy () in
  let before_files = snapshot_files fs in
  let before = residency fs in
  check Alcotest.bool "aging produced broken files" true (before < 0.999);
  let o = Regroup.run fs in
  check Alcotest.string "pass completed" "completed"
    (Regroup.status_name o.Regroup.status);
  check Alcotest.bool "files were moved" true (o.Regroup.moved > 0);
  check Alcotest.bool
    (Printf.sprintf "residency strictly increases (%.3f -> %.3f)"
       o.Regroup.residency_before o.Regroup.residency_after)
    true
    (o.Regroup.residency_after > o.Regroup.residency_before);
  assert_clean fs "after pass";
  check Alcotest.bool "cursor removed" false (Cffs.exists fs Regroup.cursor_path);
  (* Every file byte-identical. *)
  List.iter
    (fun (path, data) ->
      let got = ok (Cffs.read_file fs path) in
      if not (Bytes.equal got data) then
        Alcotest.failf "%s: contents changed across regroup" path)
    before_files;
  (* Idempotence: a second pass never decreases residency. *)
  let o2 = Regroup.run fs in
  check Alcotest.bool "second pass does not decrease residency" true
    (o2.Regroup.residency_after >= o.Regroup.residency_after -. 1e-9)

(* --- ENOSPC: clean abort --------------------------------------------- *)

let test_enospc_aborts_cleanly () =
  let _dev, fs = aged_fs ~util:0.9 () in
  (* Exhaust the free space so no destination frame (nor enough free
     blocks inside any candidate frame) can exist. *)
  let filler = ref 0 in
  let rec fill () =
    let path = Printf.sprintf "/fill%04d" !filler in
    incr filler;
    match Cffs.write_file fs path (Bytes.make (64 * 1024) 'F') with
    | Ok () -> fill ()
    | Error _ ->
        (* Top up with single-block files until really full. *)
        let rec top () =
          let path = Printf.sprintf "/fill%04d" !filler in
          incr filler;
          match Cffs.write_file fs path (Bytes.make 4096 'f') with
          | Ok () -> top ()
          | Error _ -> ()
        in
        top ()
  in
  fill ();
  Cffs.sync fs;
  let before = residency fs in
  let o = Regroup.run fs in
  (match o.Regroup.status with
  | Regroup.No_space -> ()
  | s ->
      (* Only acceptable alternative: nothing was movable at all. *)
      if o.Regroup.broken > 0 && o.Regroup.moved = 0 then
        Alcotest.failf "expected no_space, got %s" (Regroup.status_name s));
  assert_clean fs "after ENOSPC abort";
  check Alcotest.bool "residency did not decrease" true
    (residency fs >= before -. 1e-9)

(* --- Sticky bad sector under a source block -------------------------- *)

let test_sticky_bad_sector_skips_file () =
  let dev, fs = aged_fs () in
  Cffs.sync fs;
  (* Find a genuinely broken small file — data blocks spanning more than
     one frame, so the regrouper must copy at least one of them — and
     damage every data block on the media, then drop the cache so the copy
     really reads one. *)
  let small_blocks = (Cffs.superblock fs).Cffs.Csb.group_file_blocks in
  let file_blocks path =
    match Cffs.file_runs fs path with
    | Error _ -> []
    | Ok runs ->
        List.concat_map (fun (s, n) -> List.init n (fun i -> s + i)) runs
  in
  let is_broken path =
    let blocks = file_blocks path in
    List.length blocks > 0
    && List.length blocks <= small_blocks
    &&
    match List.map (Cffs.frame_of_block fs) blocks with
    | Some f :: rest -> not (List.for_all (fun g -> g = Some f) rest)
    | None :: _ -> true
    | [] -> false
  in
  let broken_path =
    let rec find = function
      | [] -> None
      | (path, _) :: rest -> if is_broken path then Some path else find rest
    in
    find (snapshot_files fs)
  in
  match broken_path with
  | None -> Alcotest.skip ()
  | Some path ->
      let fd = Faultdev.attach dev in
      List.iter (fun b -> Faultdev.mark_bad fd b) (file_blocks path);
      Cffs.remount fs;
      let o = Regroup.run fs in
      check Alcotest.string "pass still completes" "completed"
        (Regroup.status_name o.Regroup.status);
      check Alcotest.bool "the damaged file was skipped and counted" true
        (o.Regroup.skipped_io >= 1);
      check Alcotest.bool "healthy files still moved" true (o.Regroup.moved > 0);
      Faultdev.detach fd;
      assert_clean fs "after pass with bad sector"

(* --- Transient read faults are survived ------------------------------ *)

let test_transient_faults_survived () =
  let dev, fs = aged_fs () in
  Cffs.sync fs;
  let fd = Faultdev.attach dev in
  Faultdev.set_transient_read_rate fd 0.2;
  Cffs.remount fs;
  let o = Regroup.run fs in
  Faultdev.set_transient_read_rate fd 0.0;
  Faultdev.detach fd;
  check Alcotest.string "pass completes under transient faults" "completed"
    (Regroup.status_name o.Regroup.status);
  assert_clean fs "after pass under transient faults"

(* --- Cursor checkpoint and resumption -------------------------------- *)

let test_cursor_resumes () =
  let _dev, fs = aged_fs () in
  let spec = { Regroup.default_spec with Regroup.max_moves = Some 1 } in
  let o1 = Regroup.run ~spec fs in
  check Alcotest.string "budget-capped pass stops" "move_budget"
    (Regroup.status_name o1.Regroup.status);
  check Alcotest.bool "cursor persisted" true (Cffs.exists fs Regroup.cursor_path);
  assert_clean fs "between capped passes";
  let o2 = Regroup.run fs in
  check Alcotest.bool "second pass resumed from the cursor" true
    o2.Regroup.resumed;
  check Alcotest.string "resumed pass completes" "completed"
    (Regroup.status_name o2.Regroup.status);
  check Alcotest.bool "cursor removed on completion" false
    (Cffs.exists fs Regroup.cursor_path);
  check Alcotest.bool "residency recovered across the two passes" true
    (o2.Regroup.residency_after > o1.Regroup.residency_before)

(* --- Crashmc: every crash prefix during compaction ------------------- *)

let crashmc_regroup_phase ~points policy =
  let before = Registry.snapshot () in
  let o = Crashmc.run_regroup ~points policy in
  if o.Crashmc.violations <> [] then
    Alcotest.failf "crashmc regroup violations: %s"
      (String.concat "; " o.Crashmc.violations);
  check Alcotest.bool "crash points were explored" true (o.Crashmc.points > 40);
  check Alcotest.bool "files were verified" true (o.Crashmc.durable_reads > 0);
  (o, Registry.diff (Registry.snapshot ()) before)

let test_crashmc_regroup_sync_metadata () =
  ignore (crashmc_regroup_phase ~points:120 Cache.Sync_metadata)

(* The journaled volume carries an integrity layer, so every image is
   replayed and scrubbed as well as fsck-checked and read back; an image
   that comes back without the layer is a violation. *)
let test_crashmc_regroup_journaled () =
  let o, d = crashmc_regroup_phase ~points:200 Cache.Journaled in
  check Alcotest.bool "at least 97 images" true (o.Crashmc.points >= 97);
  check Alcotest.bool "at least 48 torn variants" true (o.Crashmc.torn_points >= 48);
  check Alcotest.bool "reads verified" true (o.Crashmc.durable_reads > 100);
  check Alcotest.bool "mounts replayed the log" true
    (Registry.get_counter d "journal.replays" > 0);
  check Alcotest.bool "images were scrubbed" true
    (Registry.get_counter d "scrub.blocks_verified" > 0)

(* --- A7: read-throughput recovery (quick scale) ---------------------- *)

let test_regroup_recovery_criterion () =
  let r = Experiments.regroup_recovery Experiments.quick in
  check Alcotest.bool "aging decayed residency" true
    (r.Experiments.aged_residency < r.Experiments.fresh_residency +. 1e-9);
  check Alcotest.bool
    (Printf.sprintf "residency strictly increases (%.3f -> %.3f)"
       r.Experiments.aged_residency r.Experiments.regrouped_residency)
    true
    (r.Experiments.regrouped_residency > r.Experiments.aged_residency);
  (* Quick scale lands at ~0.85x of fresh: the regrouper recovers every
     file's residency, but on an 80%-full disk the free space left to
     consolidate into is fragmented, so the working set spans a few more
     frames than a fresh allocation does.  Gate at 0.80 to keep margin;
     the aged baseline sits near 0.63. *)
  let ratio = r.Experiments.regrouped_read_s /. r.Experiments.fresh_read_s in
  check Alcotest.bool
    (Printf.sprintf "read rate recovers toward fresh (ratio %.3f)" ratio)
    true
    (ratio >= 0.80);
  check Alcotest.bool
    (Printf.sprintf "read rate beats aged (%.1f > %.1f files/s)"
       r.Experiments.regrouped_read_s r.Experiments.aged_read_s)
    true
    (r.Experiments.regrouped_read_s > r.Experiments.aged_read_s)

(* The regrouped row reports what every convergence pass moved, not only
   the last pass, which moves nothing by construction. *)
let test_regroup_recovery_reports_moves () =
  let r = Experiments.regroup_recovery Experiments.quick in
  match r.Experiments.regroup_outcome with
  | None -> Alcotest.fail "the regrouped row ran no pass"
  | Some o ->
      check Alcotest.bool
        (Printf.sprintf "moved %d files (%d blocks) in %d passes" o.Regroup.moved
           o.Regroup.blocks_copied r.Experiments.regroup_passes)
        true
        (o.Regroup.moved > 0 && o.Regroup.blocks_copied >= o.Regroup.moved
        && r.Experiments.regroup_passes > 1)

let () =
  Alcotest.run "regroup"
    [
      ( "pass",
        [
          Alcotest.test_case "sync_metadata: residency recovers, bytes intact"
            `Quick
            (test_pass_recovers_residency Cache.Sync_metadata);
          Alcotest.test_case "journaled: residency recovers, bytes intact"
            `Quick
            (test_pass_recovers_residency Cache.Journaled);
          Alcotest.test_case "soft_updates: residency recovers, bytes intact"
            `Quick
            (test_pass_recovers_residency Cache.Soft_updates);
        ] );
      ( "faults",
        [
          Alcotest.test_case "ENOSPC aborts cleanly" `Quick
            test_enospc_aborts_cleanly;
          Alcotest.test_case "sticky bad sector skips only that file" `Quick
            test_sticky_bad_sector_skips_file;
          Alcotest.test_case "transient read faults survived" `Quick
            test_transient_faults_survived;
          Alcotest.test_case "cursor checkpoint resumes a capped pass" `Quick
            test_cursor_resumes;
        ] );
      ( "crash",
        [
          Alcotest.test_case "journaled: every prefix old-or-new layout" `Quick
            test_crashmc_regroup_journaled;
          Alcotest.test_case "sync_metadata: every prefix repairs clean" `Quick
            test_crashmc_regroup_sync_metadata;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "aged+regrouped read rate recovers" `Quick
            test_regroup_recovery_criterion;
          Alcotest.test_case "A7 reports the moves of every pass" `Quick
            test_regroup_recovery_reports_moves;
        ] );
    ]
