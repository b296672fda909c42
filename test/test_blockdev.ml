(* Tests for the block-device layer: both the untimed memory backend and the
   drive-backed backend, batched writes and crash images. *)

module Blockdev = Cffs_blockdev.Blockdev
module Faultdev = Cffs_blockdev.Faultdev
module Drive = Cffs_disk.Drive
module Profile = Cffs_disk.Profile
module Request = Cffs_disk.Request
module Prng = Cffs_util.Prng
module Io_error = Cffs_util.Io_error

let check = Alcotest.check
let qtest ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

let mem () = Blockdev.memory ~block_size:4096 ~nblocks:1024
let timed () = Blockdev.of_drive (Drive.create Profile.seagate_st31200) ~block_size:4096

let block c = Bytes.make 4096 c

let test_mem_roundtrip () =
  let dev = mem () in
  Blockdev.write dev 5 (block 'x');
  check Alcotest.bytes "read back" (block 'x') (Blockdev.read dev 5 1);
  check Alcotest.bytes "unwritten is zero" (block '\000') (Blockdev.read dev 6 1)

let test_mem_multi_block () =
  let dev = mem () in
  let data = Bytes.concat Bytes.empty [ block 'a'; block 'b'; block 'c' ] in
  Blockdev.write dev 10 data;
  check Alcotest.bytes "read 3" data (Blockdev.read dev 10 3);
  check Alcotest.bytes "middle" (block 'b') (Blockdev.read dev 11 1)

(* Out-of-range requests raise the typed I/O error (satellite: both
   backends), carrying the offending range; partial-block payloads remain a
   programming error. *)
let test_bounds_typed mk () =
  let dev = mk () in
  let n = Blockdev.nblocks dev in
  let oob f =
    match f () with
    | _ -> false
    | exception Io_error.E e -> e.Io_error.cause = Io_error.Out_of_bounds
  in
  check Alcotest.bool "read past end" true
    (oob (fun () -> ignore (Blockdev.read dev (n - 1) 2)));
  check Alcotest.bool "negative read" true
    (oob (fun () -> ignore (Blockdev.read dev (-1) 1)));
  check Alcotest.bool "write past end" true
    (oob (fun () -> Blockdev.write dev n (block 'x')));
  check Alcotest.bool "batch unit past end" true
    (oob (fun () -> Blockdev.write_batch_units dev [ (n - 1, [ block 'a'; block 'b' ]) ]));
  check Alcotest.bool "partial block write" true
    (try
       Blockdev.write dev 0 (Bytes.make 100 'x');
       false
     with Invalid_argument _ -> true)

let test_mem_time_is_zero () =
  let dev = mem () in
  Blockdev.write dev 0 (block 'x');
  ignore (Blockdev.read dev 0 1);
  check (Alcotest.float 0.0) "clock still 0" 0.0 (Blockdev.now dev);
  Blockdev.advance dev 2.0;
  check (Alcotest.float 0.0) "advance works" 2.0 (Blockdev.now dev)

let test_timed_advances_clock () =
  let dev = timed () in
  let t0 = Blockdev.now dev in
  ignore (Blockdev.read dev 500 1);
  check Alcotest.bool "time passed" true (Blockdev.now dev > t0);
  check Alcotest.int "stat recorded" 1 (Blockdev.stats dev).Request.Stats.reads

let test_write_batch_counts () =
  let dev = timed () in
  Blockdev.write_batch_units dev
    [ (1, [ block 'a' ]); (2, [ block 'b' ]); (3, [ block 'c' ]) ];
  (* No clustering across units: one request per one-block unit. *)
  check Alcotest.int "3 requests" 3 (Blockdev.stats dev).Request.Stats.writes;
  check Alcotest.bytes "stored" (block 'b') (Blockdev.read dev 2 1)

let test_write_batch_units_single_request () =
  let dev = timed () in
  Blockdev.write_batch_units dev [ (10, [ block 'a'; block 'b'; block 'c' ]) ];
  check Alcotest.int "1 request" 1 (Blockdev.stats dev).Request.Stats.writes;
  check Alcotest.int "24 sectors" 24 (Blockdev.stats dev).Request.Stats.write_sectors;
  check Alcotest.bytes "unit stored" (block 'c') (Blockdev.read dev 12 1)

let test_snapshot_restore () =
  let dev = mem () in
  Blockdev.write dev 1 (block 'a');
  let img = Blockdev.snapshot dev in
  check Alcotest.int "one block in image" 1 (Blockdev.blocks_written img);
  Blockdev.write dev 1 (block 'b');
  Blockdev.write dev 2 (block 'c');
  Blockdev.restore dev img;
  check Alcotest.bytes "block 1 restored" (block 'a') (Blockdev.read dev 1 1);
  check Alcotest.bytes "block 2 gone" (block '\000') (Blockdev.read dev 2 1)

let test_snapshot_isolated () =
  let dev = mem () in
  Blockdev.write dev 1 (block 'a');
  let img = Blockdev.snapshot dev in
  Blockdev.write dev 1 (block 'z');
  Blockdev.restore dev img;
  check Alcotest.bytes "snapshot deep-copied" (block 'a') (Blockdev.read dev 1 1)

let test_corrupt_block () =
  let dev = mem () in
  Blockdev.write dev 3 (block 'a');
  Blockdev.corrupt_block dev 3 (Prng.create 1);
  check Alcotest.bool "changed" true (Blockdev.read dev 3 1 <> block 'a')

let qcheck_store_model =
  qtest "blockdev: random writes then reads agree with a model"
    QCheck.(list (pair (int_bound 63) (int_bound 255)))
    (fun writes ->
      let dev = mem () in
      let model = Array.make 64 (block '\000') in
      List.iter
        (fun (blk, v) ->
          let b = block (Char.chr v) in
          Blockdev.write dev blk b;
          model.(blk) <- b)
        writes;
      let ok = ref true in
      Array.iteri (fun i expect -> if Blockdev.read dev i 1 <> expect then ok := false) model;
      !ok)

let test_clook_batch_cheaper_than_fcfs () =
  (* The scheduler matters: a scattered batch serviced in C-LOOK order takes
     less simulated time than the same batch first-come-first-served. *)
  let run policy =
    let dev =
      Blockdev.of_drive ~policy (Drive.create Profile.seagate_st31200) ~block_size:4096
    in
    let prng = Prng.create 9 in
    let batch =
      List.init 200 (fun i ->
          ignore i;
          (Prng.int prng (Blockdev.nblocks dev), block 'x'))
    in
    (* Deduplicate blocks to keep the batch well-formed. *)
    let seen = Hashtbl.create 64 in
    let batch =
      List.filter
        (fun (b, _) ->
          if Hashtbl.mem seen b then false
          else begin
            Hashtbl.add seen b ();
            true
          end)
        batch
    in
    Blockdev.write_batch_units dev (List.map (fun (b, d) -> (b, [ d ])) batch);
    Blockdev.now dev
  in
  let fcfs = run Cffs_disk.Scheduler.Fcfs in
  let clook = run Cffs_disk.Scheduler.Clook in
  check Alcotest.bool "C-LOOK at least 1.5x faster" true (clook *. 1.5 < fcfs)

(* ------------------------------------------------------------------ *)
(* Fault injection *)

let sector = Cffs_util.Units.sector_size

let cause_is c f =
  match f () with
  | _ -> false
  | exception Io_error.E e -> e.Io_error.cause = c

let test_fault_transient_read () =
  let dev = mem () in
  Blockdev.write dev 1 (block 'a');
  let fd = Faultdev.attach dev in
  Faultdev.set_transient_read_rate fd 1.0;
  check Alcotest.bool "read fails transiently" true
    (cause_is Io_error.Transient (fun () -> Blockdev.read dev 1 1));
  Faultdev.set_transient_read_rate fd 0.0;
  check Alcotest.bytes "retry succeeds" (block 'a') (Blockdev.read dev 1 1);
  Faultdev.detach fd

let test_fault_bad_sector_sticky () =
  let dev = mem () in
  Blockdev.write dev 5 (block 'a');
  let fd = Faultdev.attach dev in
  Faultdev.mark_bad fd 5;
  check Alcotest.bool "read fails" true
    (cause_is Io_error.Bad_sector (fun () -> Blockdev.read dev 5 1));
  check Alcotest.bool "still failing" true
    (cause_is Io_error.Bad_sector (fun () -> Blockdev.read dev 4 2));
  check Alcotest.bool "write fails too" true
    (cause_is Io_error.Bad_sector (fun () -> Blockdev.write dev 5 (block 'b')));
  check Alcotest.int "failed write not journaled" 0 (Faultdev.journal_length fd);
  Faultdev.clear_bad fd 5;
  check Alcotest.bytes "recovered, old content" (block 'a') (Blockdev.read dev 5 1);
  Faultdev.detach fd

let test_fault_torn_write () =
  let dev = mem () in
  Blockdev.write dev 7 (block 'o');
  let fd = Faultdev.attach dev in
  Faultdev.tear_write fd ~seq:(Faultdev.writes_attempted fd) ~keep_sectors:3;
  check Alcotest.bool "tear reports power cut" true
    (cause_is Io_error.Power_cut (fun () -> Blockdev.write dev 7 (block 'n')));
  check Alcotest.bool "device died" false (Faultdev.alive fd);
  Faultdev.revive fd;
  let got = Blockdev.read dev 7 1 in
  check Alcotest.bytes "first 3 sectors new"
    (Bytes.make (3 * sector) 'n')
    (Bytes.sub got 0 (3 * sector));
  check Alcotest.bytes "tail sectors old"
    (Bytes.make (4096 - (3 * sector)) 'o')
    (Bytes.sub got (3 * sector) (4096 - (3 * sector)));
  (match Faultdev.journal fd with
  | [ e ] ->
      check Alcotest.int "journaled first block" 7 e.Faultdev.blk;
      check (Alcotest.option Alcotest.int) "tear extent recorded" (Some 3)
        e.Faultdev.torn;
      check Alcotest.bytes "full intended payload kept" (block 'n') e.Faultdev.data
  | es -> Alcotest.failf "expected 1 journal entry, got %d" (List.length es));
  Faultdev.detach fd

let test_fault_power_cut_at () =
  let dev = mem () in
  let fd = Faultdev.attach dev in
  Faultdev.cut_power_at fd ~seq:1;
  Blockdev.write dev 1 (block 'a');
  check Alcotest.bool "second write hits the cut" true
    (cause_is Io_error.Power_cut (fun () -> Blockdev.write dev 2 (block 'b')));
  check Alcotest.bool "everything after fails" true
    (cause_is Io_error.Power_cut (fun () -> Blockdev.read dev 1 1));
  check Alcotest.int "only first write journaled" 1 (Faultdev.journal_length fd);
  Faultdev.revive fd;
  check Alcotest.bytes "first write persisted" (block 'a') (Blockdev.read dev 1 1);
  check Alcotest.bytes "second write lost" (block '\000') (Blockdev.read dev 2 1);
  Faultdev.detach fd

let test_fault_materialize () =
  let dev = mem () in
  Blockdev.write dev 0 (block 'z');
  let fd = Faultdev.attach dev in
  Blockdev.write dev 1 (block 'a');
  Blockdev.write dev 2 (block 'b');
  Blockdev.write dev 3 (block 'c');
  check Alcotest.int "three entries" 3 (Faultdev.journal_length fd);
  let img = Faultdev.materialize fd ~upto:2 in
  check Alcotest.bytes "base present" (block 'z') (Blockdev.read img 0 1);
  check Alcotest.bytes "first applied" (block 'a') (Blockdev.read img 1 1);
  check Alcotest.bytes "second applied" (block 'b') (Blockdev.read img 2 1);
  check Alcotest.bytes "third not applied" (block '\000') (Blockdev.read img 3 1);
  (* The same prefix with the boundary request torn to one sector. *)
  let timg = Faultdev.materialize ~tear:1 fd ~upto:2 in
  let got = Blockdev.read timg 3 1 in
  check Alcotest.bytes "torn boundary: first sector" (Bytes.make sector 'c')
    (Bytes.sub got 0 sector);
  check Alcotest.bytes "torn boundary: rest zero"
    (Bytes.make (4096 - sector) '\000')
    (Bytes.sub got sector (4096 - sector));
  (* Materialization is offline: the live device is untouched. *)
  check Alcotest.bytes "live device unaffected" (block 'c') (Blockdev.read dev 3 1);
  Faultdev.detach fd

let test_fault_midbatch_prefix () =
  let dev = mem () in
  let fd = Faultdev.attach dev in
  (* Batch of three one-block units; power cut before the third request:
     exactly the serviced prefix persists. *)
  Faultdev.cut_power_at fd ~seq:2;
  check Alcotest.bool "batch fails at third unit" true
    (cause_is Io_error.Power_cut (fun () ->
         Blockdev.write_batch_units dev
           [ (1, [ block 'a' ]); (2, [ block 'b' ]); (3, [ block 'c' ]) ]));
  Faultdev.revive fd;
  check Alcotest.bytes "unit 1 persisted" (block 'a') (Blockdev.read dev 1 1);
  check Alcotest.bytes "unit 2 persisted" (block 'b') (Blockdev.read dev 2 1);
  check Alcotest.bytes "unit 3 lost" (block '\000') (Blockdev.read dev 3 1);
  Faultdev.detach fd

(* --- Integrity layer: checksums, remapping, replicas ----------------- *)

module Integrity = Cffs_blockdev.Integrity

let iread ig blk = Blockdev.own (Integrity.read_views ig blk 1).(0)

let cause_of f =
  match f () with
  | _ -> None
  | exception Io_error.E e -> Some e.Io_error.cause

let test_integrity_format_attach () =
  let dev = mem () in
  let ig = Integrity.format ~spare_blocks:16 dev in
  let n = Blockdev.nblocks dev in
  check Alcotest.bool "data area shrank" true (Integrity.data_blocks ig < n);
  check Alcotest.bool "tags enabled" true (Blockdev.tags_enabled dev);
  Integrity.write ig 7 (block 'q');
  Integrity.flush_tags ig;
  (* cold reload: the image file carries only blocks; tags must come back
     from the at-rest checksum region, the remap table from its copies *)
  let path = Filename.temp_file "cffs_integrity" ".img" in
  Blockdev.save_file dev path;
  let cold = Blockdev.load_file path in
  Sys.remove path;
  check Alcotest.bool "cold device starts untagged" false
    (Blockdev.tags_enabled cold);
  (match Integrity.attach cold with
  | None -> Alcotest.fail "attach failed on cold image"
  | Some ig2 ->
      check Alcotest.int "same data_blocks" (Integrity.data_blocks ig)
        (Integrity.data_blocks ig2);
      check Alcotest.bytes "contents verified after reload" (block 'q')
        (iread ig2 7));
  (* a device that was never integrity-formatted must not attach *)
  check Alcotest.bool "plain device does not attach" true
    (Integrity.attach (mem ()) = None)

let test_integrity_detects_corruption () =
  let dev = mem () in
  let ig = Integrity.format dev in
  Integrity.write ig 3 (block 'a');
  Blockdev.corrupt_block dev 3 (Prng.create 5);
  check Alcotest.bool "corruption raises Checksum_mismatch" true
    (cause_of (fun () -> ignore (iread ig 3))
    = Some Io_error.Checksum_mismatch);
  (* a verified rewrite heals it *)
  Integrity.write ig 3 (block 'b');
  check Alcotest.bytes "rewrite heals" (block 'b') (iread ig 3);
  check Alcotest.bool "scrub verdict verified" true
    (Integrity.verify_block ig 3 = Integrity.Verified)

let test_integrity_remap_on_write () =
  let dev = mem () in
  let ig = Integrity.format ~spare_blocks:8 dev in
  let fd = Faultdev.attach dev in
  Faultdev.mark_bad fd 5;
  let spares0 = Integrity.spare_left ig in
  Integrity.write ig 5 (block 'r');
  check Alcotest.bool "block remapped" true (Integrity.remapped ig 5);
  check Alcotest.bool "a spare was consumed" true
    (Integrity.spare_left ig < spares0);
  check Alcotest.bool "physical home moved" true (Integrity.phys ig 5 <> 5);
  check Alcotest.bytes "reads follow the map" (block 'r') (iread ig 5);
  (* the mapping survives a cold reload *)
  Faultdev.detach fd;
  let path = Filename.temp_file "cffs_remap" ".img" in
  Integrity.flush_tags ig;
  Blockdev.save_file dev path;
  let cold = Blockdev.load_file path in
  Sys.remove path;
  (match Integrity.attach cold with
  | None -> Alcotest.fail "attach failed"
  | Some ig2 ->
      check Alcotest.bool "remap reloaded" true (Integrity.remapped ig2 5);
      check Alcotest.bytes "spare contents reloaded" (block 'r')
        (iread ig2 5))

let test_integrity_replicas () =
  let dev = mem () in
  let ig = Integrity.format ~spare_blocks:8 dev in
  check Alcotest.bool "unassigned slot reads None" true
    (Integrity.replica_read ig ~slot:0 = None);
  check Alcotest.bool "replica write succeeds" true
    (Integrity.replica_write ig ~slot:0 (block 'm'));
  check Alcotest.bool "replica reads back" true
    (Integrity.replica_read ig ~slot:0 = Some (block 'm'));
  (* damage the replica: the verified read refuses it *)
  (match Integrity.replica_phys ig ~slot:0 with
  | None -> Alcotest.fail "replica has no physical block"
  | Some p -> Blockdev.corrupt_block dev p (Prng.create 9));
  check Alcotest.bool "damaged replica reads None" true
    (Integrity.replica_read ig ~slot:0 = None);
  (* rewriting the slot restores it *)
  check Alcotest.bool "rewrite restores" true
    (Integrity.replica_write ig ~slot:0 (block 'n'));
  check Alcotest.bool "restored replica reads back" true
    (Integrity.replica_read ig ~slot:0 = Some (block 'n'))

let test_integrity_map_copy_repair () =
  let dev = mem () in
  let ig = Integrity.format ~spare_blocks:8 dev in
  ignore (Integrity.replica_write ig ~slot:0 (block 'm'));
  check Alcotest.bool "healthy copies need no repair" false
    (Integrity.repair_map_copies ig);
  (* destroy one on-disk copy; repair must detect and rewrite it *)
  Blockdev.corrupt_block dev (Blockdev.nblocks dev - 1) (Prng.create 3);
  check Alcotest.bool "damaged copy repaired" true (Integrity.repair_map_copies ig);
  check Alcotest.bool "then healthy again" false (Integrity.repair_map_copies ig)

(* Satellite: the out-of-bounds payload names the offending request and
   the device geometry, in the typed error and its rendering. *)
let test_oob_range_payload () =
  let dev = mem () in
  let n = Blockdev.nblocks dev in
  match (fun () -> ignore (Blockdev.read dev (n - 1) 3)) () with
  | _ -> Alcotest.fail "read past end did not raise"
  | exception Io_error.E e -> (
      check Alcotest.bool "cause" true (e.Io_error.cause = Io_error.Out_of_bounds);
      match e.Io_error.range with
      | None -> Alcotest.fail "no range payload"
      | Some r ->
          check Alcotest.int "device blocks" n r.Io_error.dev_blocks;
          check Alcotest.int "sector count" (3 * (4096 / 512))
            r.Io_error.sector_count;
          let msg = Io_error.to_string e in
          let contains s =
            let sl = String.length s and ml = String.length msg in
            let rec go i = i + sl <= ml && (String.sub msg i sl = s || go (i + 1)) in
            go 0
          in
          check Alcotest.bool "message names device size" true
            (contains (string_of_int n ^ " blocks"));
          check Alcotest.bool "message names request" true (contains "request"))

let test_faultdev_barrier_bounds_journal () =
  let dev = mem () in
  let fd = Faultdev.attach dev in
  Blockdev.write dev 1 (block 'a');
  Blockdev.write dev 2 (block 'b');
  check Alcotest.int "two entries in memory" 2 (Faultdev.journal_entries fd);
  Faultdev.barrier fd;
  check Alcotest.int "barrier empties the journal" 0 (Faultdev.journal_entries fd);
  check Alcotest.int "absolute length unaffected" 2 (Faultdev.journal_length fd);
  Blockdev.write dev 3 (block 'c');
  check Alcotest.int "only post-barrier entries held" 1
    (Faultdev.journal_entries fd);
  (* crash points at or after the barrier still materialize *)
  let img = Faultdev.materialize fd ~upto:2 in
  check Alcotest.bytes "pre-barrier writes folded in" (block 'b')
    (Blockdev.read img 2 1);
  check Alcotest.bytes "post-barrier write excluded" (block '\000')
    (Blockdev.read img 3 1);
  let img2 = Faultdev.materialize fd ~upto:3 in
  check Alcotest.bytes "post-barrier write replayed" (block 'c')
    (Blockdev.read img2 3 1)

(* ------------------------------------------------------------------ *)
(* Faults on tagged in-flight requests: the pipeline isolates a failure to
   the tag that covers it; only a power cut takes the rest of the queue
   with it. *)

let find_cqe cqes tag =
  List.find (fun (c : Blockdev.cqe) -> c.Blockdev.cq_tag = tag) cqes

let test_tagged_transient_isolated () =
  let dev = mem () in
  Blockdev.set_queue dev ~depth:4 ~policy:Cffs_disk.Scheduler.Clook () ;
  Blockdev.set_injector dev
    (Some
       (fun op ~blk ~nblocks:_ ->
         if op = Io_error.Write && blk = 30 then Blockdev.Fail Io_error.Transient
         else Blockdev.Proceed));
  let t1 = Blockdev.submit_write dev 10 (block 'a') in
  let t2 = Blockdev.submit_write dev 30 (block 'b') in
  let t3 = Blockdev.submit_write dev 50 (block 'c') in
  let cqes = Blockdev.drain dev in
  check Alcotest.int "three completions" 3 (List.length cqes);
  (match (find_cqe cqes t2).Blockdev.cq_result with
  | Error e ->
      check Alcotest.bool "transient" true (e.Io_error.cause = Io_error.Transient)
  | Ok _ -> Alcotest.fail "faulted tag must fail");
  List.iter
    (fun t ->
      match (find_cqe cqes t).Blockdev.cq_result with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "healthy tag failed")
    [ t1; t3 ];
  Blockdev.set_injector dev None;
  (* the rest of the batch reached the media *)
  check Alcotest.bytes "t1 persisted" (block 'a') (Blockdev.read dev 10 1);
  check Alcotest.bytes "t2 not persisted" (block '\000') (Blockdev.read dev 30 1);
  check Alcotest.bytes "t3 persisted" (block 'c') (Blockdev.read dev 50 1)

let test_tagged_power_cut_fails_rest () =
  let dev = mem () in
  Blockdev.set_queue dev ~depth:1 ~policy:Cffs_disk.Scheduler.Fcfs ();
  Blockdev.set_injector dev
    (Some
       (fun op ~blk ~nblocks:_ ->
         if op = Io_error.Write && blk = 20 then Blockdev.Fail Io_error.Power_cut
         else Blockdev.Proceed));
  let t1 = Blockdev.submit_write dev 10 (block 'a') in
  let t2 = Blockdev.submit_write dev 20 (block 'b') in
  let t3 = Blockdev.submit_write dev 31 (block 'c') in
  let cqes = Blockdev.drain dev in
  check Alcotest.int "three completions" 3 (List.length cqes);
  (match (find_cqe cqes t1).Blockdev.cq_result with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "pre-cut request failed");
  List.iter
    (fun t ->
      match (find_cqe cqes t).Blockdev.cq_result with
      | Error e ->
          check Alcotest.bool "power cut" true
            (e.Io_error.cause = Io_error.Power_cut)
      | Ok _ -> Alcotest.fail "post-cut request completed")
    [ t2; t3 ];
  Blockdev.set_injector dev None;
  (* exactly the pre-cut prefix is on the media *)
  check Alcotest.bytes "prefix" (block 'a') (Blockdev.read dev 10 1);
  check Alcotest.bytes "cut" (block '\000') (Blockdev.read dev 20 1);
  check Alcotest.bytes "after cut" (block '\000') (Blockdev.read dev 31 1)

let test_tagged_matches_synchronous () =
  (* the submit/drain pipeline and the synchronous calls are the same
     machine: interleaving them keeps data coherent *)
  let dev = timed () in
  Blockdev.set_queue dev ~depth:8 ~policy:Cffs_disk.Scheduler.Clook ~coalesce:true ();
  Blockdev.write dev 5 (block 'x');
  let t = Blockdev.submit_write dev 6 (block 'y') in
  let r = Blockdev.submit_read dev 5 1 in
  let cqes = Blockdev.drain dev in
  (match (find_cqe cqes r).Blockdev.cq_result with
  | Ok d -> check Alcotest.bytes "tagged read sees sync write" (block 'x') d
  | Error _ -> Alcotest.fail "tagged read failed");
  (match (find_cqe cqes t).Blockdev.cq_result with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "tagged write failed");
  check Alcotest.bytes "sync read sees tagged write" (block 'y')
    (Blockdev.read dev 6 1)

(* --- Block buffers: the media own their copies ------------------------ *)

let test_writes_copy_into_media () =
  let dev = mem () in
  let one = block 'a' and two = Bytes.cat (block 'b') (block 'c') in
  Blockdev.write dev 10 one;
  Blockdev.write dev 11 two;
  let queued = block 'd' in
  ignore (Blockdev.submit_write dev 13 queued);
  ignore (Blockdev.drain dev);
  let units = [ (20, [ block 'e'; block 'f' ]); (22, [ block 'g' ]) ] in
  Blockdev.set_queue dev ~coalesce:true ();
  Blockdev.write_batch_units dev units;
  List.iter (fun b -> Bytes.fill b 0 (Bytes.length b) '!') [ one; two; queued ];
  List.iter (fun (_, bl) -> List.iter (fun b -> Bytes.fill b 0 4096 '!') bl) units;
  List.iter
    (fun (blk, c) -> check Alcotest.bytes "media unchanged" (block c) (Blockdev.read dev blk 1))
    [ (10, 'a'); (11, 'b'); (12, 'c'); (13, 'd'); (20, 'e'); (21, 'f'); (22, 'g') ]

let test_reads_are_fresh () =
  let dev = mem () in
  Blockdev.write dev 4 (Bytes.cat (block 'p') (block 'q'));
  let read_blocks () = Array.map Blockdev.own (Blockdev.read_views dev 4 2) in
  let a = read_blocks () and b = read_blocks () in
  check Alcotest.int "one buffer per block" 2 (Array.length a);
  check Alcotest.bool "each read gets its own buffers" true (a.(0) != b.(0) && a.(1) != b.(1));
  Bytes.fill a.(0) 0 4096 '!';
  check Alcotest.bytes "media unchanged" (block 'p') (Blockdev.read dev 4 1);
  check Alcotest.bytes "contiguous form" (Bytes.cat (block 'p') (block 'q'))
    (Blockdev.read dev 4 2)

let test_torn_in_place () =
  (* the surviving sectors land in the store's block, the rest keeps its
     old bytes (zeros when never written), and the tag stays the old one *)
  let dev = mem () in
  Blockdev.enable_tags dev;
  Blockdev.write dev 7 (block 'o');
  let old_tag = Blockdev.tag dev 7 in
  Blockdev.write_torn dev 7 (block 'n') ~keep_sectors:3;
  Blockdev.write_torn dev 8 (block 'n') ~keep_sectors:2;
  let mixed keep tail =
    Bytes.cat (Bytes.make (keep * sector) 'n') (Bytes.make (4096 - (keep * sector)) tail)
  in
  check Alcotest.bytes "prefix new, tail old" (mixed 3 'o') (Blockdev.read dev 7 1);
  check Alcotest.bytes "unwritten tail zero" (mixed 2 '\000') (Blockdev.read dev 8 1);
  check (Alcotest.option Alcotest.int) "old tag kept" old_tag (Blockdev.tag dev 7);
  check (Alcotest.option Alcotest.int) "no tag for a torn first write" None (Blockdev.tag dev 8)

(* --- Views: a read copies nothing, a write never changes a view ------- *)

module Volume = Cffs_volume.Volume
module Cache = Cffs_cache.Cache

let view_devices =
  ("plain", mem)
  :: List.map
       (fun drives ->
         ( Printf.sprintf "striped x%d" drives,
           fun () ->
             (Volume.create_memory ~stripe_unit:4 ~block_size:4096 ~nblocks:1024 ~drives
                ~layout:Volume.Striped ())
               .Volume.dev ))
       [ 2; 3; 4 ]

let test_views_survive_writes () =
  List.iter
    (fun (name, mk) ->
      let dev = mk () in
      let what s = Printf.sprintf "%s: %s" name s in
      for b = 0 to 15 do
        Blockdev.write dev b (block 'a')
      done;
      (* blocks 0-15 are written, 16 never was; the group crosses stripes *)
      let views = Blockdev.read_views dev 0 17 in
      check Alcotest.int (what "one view per block") 17 (Array.length views);
      Blockdev.write dev 0 (Bytes.cat (block 'f') (block 'f'));
      Blockdev.write_torn dev 2 (block 't') ~keep_sectors:3;
      Blockdev.write_torn dev 16 (block 't') ~keep_sectors:5;
      Blockdev.set_queue dev ~coalesce:true ();
      Blockdev.write_batch_units dev
        [ (4, [ block 'c'; block 'c' ]); (6, [ block 'c' ]); (8, [ block 'c' ]) ];
      ignore (Blockdev.submit_write dev 10 (Bytes.cat (block 'q') (block 'q')));
      ignore (Blockdev.drain dev);
      Array.iteri
        (fun i v ->
          check Alcotest.bytes
            (what (Printf.sprintf "view of block %d" i))
            (block (if i = 16 then '\000' else 'a'))
            (Blockdev.own v))
        views;
      List.iter
        (fun (b, c) ->
          check Alcotest.bytes (what (Printf.sprintf "media block %d rewritten" b)) (block c)
            (Blockdev.read dev b 1))
        [ (0, 'f'); (1, 'f'); (4, 'c'); (6, 'c'); (8, 'c'); (10, 'q'); (15, 'a') ];
      check Alcotest.bytes (what "torn block")
        (Bytes.cat (Bytes.make (3 * sector) 't') (Bytes.make (4096 - (3 * sector)) 'a'))
        (Blockdev.read dev 2 1))
    view_devices

let test_zero_view () =
  let dev = mem () in
  let v = (Blockdev.read_views dev 40 1).(0) in
  check Alcotest.bytes "never-written block reads as zeros" (block '\000') (Blockdev.own v);
  let a = Blockdev.read_views dev 41 2 in
  check Alcotest.bool "one shared zero view" true (a.(0) == a.(1));
  Array.iter Blockdev.release a

let direct_major_words f =
  let _, p0, m0 = Gc.counters () in
  f ();
  let _, p1, m1 = Gc.counters () in
  (m1 -. p1) -. (m0 -. p0)

let block_words = float_of_int (4096 / 8)

(* A write to a viewed block allocates a fresh buffer; once the cache has
   released every view, a write is in place again and allocates none. *)
let test_released_view_overwrite_in_place () =
  let dev = mem () in
  let c = Cache.create dev ~capacity_blocks:64 in
  for b = 0 to 15 do
    Blockdev.write dev b (block 'a')
  done;
  let data = block 'b' in
  Blockdev.write dev 0 data;
  ignore (Cache.read_group c 0 16);
  let viewed = direct_major_words (fun () -> Blockdev.write dev 3 data) in
  check Alcotest.bool
    (Printf.sprintf "write under a view copies (%.2f blocks)" (viewed /. block_words))
    true
    (viewed >= 0.9 *. block_words);
  Cache.crash c;
  let freed = direct_major_words (fun () -> Blockdev.write dev 5 data) in
  check Alcotest.bool
    (Printf.sprintf "write after release is in place (%.2f blocks)" (freed /. block_words))
    true
    (freed <= 0.1 *. block_words);
  check Alcotest.bytes "written" data (Blockdev.read dev 5 1)

(* A synchronous single-block request on a timed spindle, from submit
   through the queue and the drive to its result: the request's record
   is the spindle's own, reused, so a write allocates nothing and a read
   only its result. *)
let test_sync_request_allocation () =
  let dev = timed () in
  let buf = block 'a' and blocks = 64 in
  for b = 0 to blocks - 1 do
    Blockdev.write dev (b * 97) buf
  done;
  let i = ref 0 in
  let next () =
    incr i;
    !i mod blocks * 97
  in
  let write what =
    Alloc_probe.at_most what 8.0
      (Alloc_probe.words_per_call ~n:500 (fun () -> Blockdev.write dev (next ()) buf))
  and read_views what =
    Alloc_probe.at_most what 10.0
      (Alloc_probe.words_per_call ~n:500 (fun () ->
           Array.iter Blockdev.release (Blockdev.read_views dev (next ()) 1)))
  in
  write "Blockdev.write";
  read_views "Blockdev.read_views";
  (* Installed hooks are walked with no closure per request: a request
     an injector lets proceed, and a write that an observer then sees,
     stays within the plain bound. *)
  Blockdev.set_injector dev (Some (fun _ ~blk:_ ~nblocks:_ -> Blockdev.Proceed));
  write "Blockdev.write under an injector";
  read_views "Blockdev.read_views under an injector";
  Blockdev.set_write_observer dev (Some (fun ~blk:_ ~data:_ ~torn:_ -> ()));
  write "Blockdev.write under an injector and an observer"

(* A batch deeper than a spindle's free list allocates records for the
   rest, and nothing per block besides. *)
let test_batch_allocation () =
  let dev = timed () in
  let buf = block 'b' in
  let units = List.init 256 (fun k -> (k * 3, [ buf ])) in
  Blockdev.write_batch_units dev units;
  Alloc_probe.at_most "write_batch_units, per block" 40.0
    (Alloc_probe.words_per_call ~n:20 (fun () -> Blockdev.write_batch_units dev units)
    /. 256.0)

(* Asynchronous reads pay for their completions, which are the caller's
   to keep, and nothing else per request. *)
let test_async_allocation () =
  let dev = timed () in
  Alloc_probe.at_most "submit_read + drain_views, per request" 24.0
    (Alloc_probe.words_per_call ~n:20 (fun () ->
         for k = 0 to 63 do
           ignore (Blockdev.submit_read dev (k * 5) 1)
         done;
         List.iter
           (fun (c : Blockdev.view array Blockdev.completion) ->
             Result.iter (Array.iter Blockdev.release) c.Blockdev.cq_result)
           (Blockdev.drain_views dev))
    /. 64.0)

let striped4 () =
  (Volume.create_memory ~stripe_unit:4 ~block_size:4096 ~nblocks:1024 ~drives:4
     ~layout:Volume.Striped ())
    .Volume.dev

(* A synchronous write across a chunk boundary (chunk 0 is blocks 1-4)
   is two fragments on two spindles that fold into one parent: the
   parent, the fragments' block arrays and the contiguous adapter's
   split are all it allocates. *)
let test_split_allocation () =
  let dev = striped4 () in
  let data = Bytes.cat (block 'c') (block 'd') in
  Alloc_probe.at_most "split Blockdev.write" 48.0
    (Alloc_probe.words_per_call ~n:500 (fun () -> Blockdev.write dev 4 data));
  check Alcotest.bytes "first fragment" (block 'c') (Blockdev.read dev 4 1);
  check Alcotest.bytes "second fragment" (block 'd') (Blockdev.read dev 5 1)

(* A completion is the caller's: its tag, block and result stay as they
   were handed out while later requests reuse the queue's records —
   also when a power cut fails a batch midway and [reset_queue] tears
   the rest down. *)
let test_completions_stable () =
  List.iter
    (fun (name, mk) ->
      let dev = mk () in
      let what s = Printf.sprintf "%s: %s" name s in
      let blocki i = Bytes.make 4096 (Char.chr (65 + (i mod 26))) in
      for b = 0 to 63 do
        Blockdev.write dev b (blocki b)
      done;
      let snap (c : Blockdev.cqe) =
        ( c.Blockdev.cq_tag,
          c.Blockdev.cq_op,
          c.Blockdev.cq_blk,
          c.Blockdev.cq_nblocks,
          match c.Blockdev.cq_result with
          | Ok d -> Ok (Bytes.to_string d)
          | Error e -> Error e.Io_error.cause )
      in
      let kept = ref [] in
      let keep cqes = kept := List.map (fun c -> (c, snap c)) cqes @ !kept in
      let verify when_ =
        List.iter
          (fun (c, s) ->
            if snap c <> s then
              Alcotest.failf "%s: completion of tag %d changed %s" name c.Blockdev.cq_tag when_)
          !kept
      in
      let views = ref [] in
      let keep_views cs =
        List.iter
          (fun (c : Blockdev.view array Blockdev.completion) ->
            match c.Blockdev.cq_result with
            | Ok vs ->
                views :=
                  (c, c.Blockdev.cq_blk, Array.map (fun v -> Bytes.to_string (Blockdev.own v)) vs)
                  :: !views
            | Error _ -> ())
          cs
      in
      let verify_views when_ =
        List.iter
          (fun ((c : Blockdev.view array Blockdev.completion), blk, data) ->
            if c.Blockdev.cq_blk <> blk then Alcotest.failf "%s: view completion moved %s" name when_;
            Array.iteri
              (fun i d ->
                if d <> Bytes.to_string (blocki (blk + i)) then
                  Alcotest.failf "%s: view data of block %d wrong %s" name (blk + i) when_)
              data)
          !views
      in
      let churn k =
        for j = 0 to 7 do
          ignore (Blockdev.submit_read dev ((k + (j * 7)) mod 60) (1 + (j mod 3)))
        done;
        ignore (Blockdev.submit_write dev (100 + k) (blocki (100 + k)));
        keep_views (Blockdev.drain_views dev);
        Blockdev.write dev (200 + k) (blocki (200 + k));
        ignore (Blockdev.read dev ((k * 3) mod 60) 2);
        Blockdev.write_batch_units dev [ (300 + k, [ blocki 300 ]); (310 + k, [ blocki 310 ]) ]
      in
      for k = 0 to 3 do
        for j = 0 to 9 do
          ignore (Blockdev.submit_read dev ((k * 11) + j) (1 + (j mod 2)))
        done;
        keep (Blockdev.drain dev);
        churn k;
        verify "after later requests";
        verify_views "after later requests"
      done;
      (* A power cut in the middle of a batch, with foreign reads queued,
         then a teardown of what was submitted after it. *)
      let fd = Faultdev.attach dev in
      for j = 0 to 5 do
        ignore (Blockdev.submit_read dev (j * 9) 1)
      done;
      Faultdev.cut_power_at fd ~seq:(Faultdev.writes_attempted fd + 2);
      check Alcotest.bool (what "batch hits the cut") true
        (cause_is Io_error.Power_cut (fun () ->
             Blockdev.write_batch_units dev (List.init 6 (fun i -> (400 + (i * 5), [ blocki 400 ])))));
      ignore (Blockdev.submit_write dev 500 (blocki 500));
      ignore (Blockdev.submit_read dev 5 2);
      check Alcotest.int (what "torn down") 2 (Blockdev.reset_queue dev);
      let cut = Blockdev.drain dev in
      check Alcotest.bool (what "teardown completions reported") true (List.length cut >= 2);
      keep cut;
      Faultdev.revive fd;
      Faultdev.detach fd;
      for k = 4 to 7 do
        churn k
      done;
      verify "after a power cut and a teardown";
      verify_views "after a power cut and a teardown")
    [ ("plain", timed); ("striped x4", striped4) ]

let () =
  Alcotest.run "cffs_blockdev"
    [
      ( "memory",
        [
          Alcotest.test_case "roundtrip" `Quick test_mem_roundtrip;
          Alcotest.test_case "multi-block" `Quick test_mem_multi_block;
          Alcotest.test_case "bounds raise typed io error" `Quick
            (test_bounds_typed mem);
          Alcotest.test_case "zero time" `Quick test_mem_time_is_zero;
          qcheck_store_model;
        ] );
      ( "faults",
        [
          Alcotest.test_case "transient read" `Quick test_fault_transient_read;
          Alcotest.test_case "sticky bad sector" `Quick test_fault_bad_sector_sticky;
          Alcotest.test_case "torn write" `Quick test_fault_torn_write;
          Alcotest.test_case "power cut at boundary" `Quick test_fault_power_cut_at;
          Alcotest.test_case "materialize crash images" `Quick test_fault_materialize;
          Alcotest.test_case "mid-batch cut leaves prefix" `Quick
            test_fault_midbatch_prefix;
        ] );
      ( "tagged faults",
        [
          Alcotest.test_case "transient isolated to its tag" `Quick
            test_tagged_transient_isolated;
          Alcotest.test_case "power cut fails the rest" `Quick
            test_tagged_power_cut_fails_rest;
          Alcotest.test_case "pipeline coherent with sync ops" `Quick
            test_tagged_matches_synchronous;
        ] );
      ( "timed",
        [
          Alcotest.test_case "clock advances" `Quick test_timed_advances_clock;
          Alcotest.test_case "bounds raise typed io error" `Quick
            (test_bounds_typed timed);
          Alcotest.test_case "write_batch one request per block" `Quick
            test_write_batch_counts;
          Alcotest.test_case "write_batch_units one request per unit" `Quick
            test_write_batch_units_single_request;
          Alcotest.test_case "C-LOOK beats FCFS on scattered batch" `Quick
            test_clook_batch_cheaper_than_fcfs;
          Alcotest.test_case "sync request allocation" `Quick test_sync_request_allocation;
          Alcotest.test_case "batch allocation" `Quick test_batch_allocation;
          Alcotest.test_case "async allocation" `Quick test_async_allocation;
          Alcotest.test_case "split request allocation" `Quick test_split_allocation;
          Alcotest.test_case "completions outlive reused records" `Quick test_completions_stable;
        ] );
      ( "image",
        [
          Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
          Alcotest.test_case "snapshot isolation" `Quick test_snapshot_isolated;
          Alcotest.test_case "corrupt block" `Quick test_corrupt_block;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "format/attach cold roundtrip" `Quick
            test_integrity_format_attach;
          Alcotest.test_case "checksum detects corruption" `Quick
            test_integrity_detects_corruption;
          Alcotest.test_case "remap-on-write" `Quick test_integrity_remap_on_write;
          Alcotest.test_case "metadata replicas" `Quick test_integrity_replicas;
          Alcotest.test_case "remap-table copy repair" `Quick
            test_integrity_map_copy_repair;
          Alcotest.test_case "out-of-bounds carries request range" `Quick
            test_oob_range_payload;
          Alcotest.test_case "fault journal barrier" `Quick
            test_faultdev_barrier_bounds_journal;
        ] );
      ( "block buffers",
        [
          Alcotest.test_case "writes copy into the media" `Quick
            test_writes_copy_into_media;
          Alcotest.test_case "reads are fresh" `Quick test_reads_are_fresh;
          Alcotest.test_case "torn write in place" `Quick test_torn_in_place;
        ] );
      ( "views",
        [
          Alcotest.test_case "views survive full, torn and coalesced writes" `Quick
            test_views_survive_writes;
          Alcotest.test_case "never-written block is the zero view" `Quick test_zero_view;
          Alcotest.test_case "released view: overwrite in place" `Quick
            test_released_view_overwrite_in_place;
        ] );
    ]
