(* Tests for the dual-indexed buffer cache: physical/logical lookup, write
   policies, flush clustering, eviction and crash behaviour. *)

module Cache = Cffs_cache.Cache
module Blockdev = Cffs_blockdev.Blockdev
module Drive = Cffs_disk.Drive
module Profile = Cffs_disk.Profile
module Request = Cffs_disk.Request

let check = Alcotest.check

let block c = Bytes.make 4096 c

let mem_cache ?policy ?(capacity = 64) () =
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:4096 in
  (Cache.create ?policy dev ~capacity_blocks:capacity, dev)

let timed_cache ?policy ?(capacity = 64) () =
  let dev = Blockdev.of_drive (Drive.create Profile.seagate_st31200) ~block_size:4096 in
  (Cache.create ?policy dev ~capacity_blocks:capacity, dev)

let same_file_clusterer ~blk:_ ~sequential = sequential

(* ------------------------------------------------------------------ *)

let test_read_through () =
  let c, dev = mem_cache () in
  Blockdev.write dev 7 (block 'x');
  check Alcotest.bytes "reads device" (block 'x') (Cache.read c 7);
  check Alcotest.int "one miss" 1 (Cache.stats c).Cache.misses;
  ignore (Cache.read c 7);
  check Alcotest.int "then a hit" 1 (Cache.stats c).Cache.phys_hits

let test_write_policies () =
  (* Sync_metadata: Meta goes to the device now, Data waits for flush. *)
  let c, dev = mem_cache ~policy:Cache.Sync_metadata () in
  Cache.write c ~kind:`Meta 1 (block 'm');
  Cache.write c ~kind:`Data 2 (block 'd');
  check Alcotest.bytes "meta on device" (block 'm') (Blockdev.read dev 1 1);
  check Alcotest.bytes "data not yet" (block '\000') (Blockdev.read dev 2 1);
  check Alcotest.int "dirty count" 1 (Cache.dirty_count c);
  Cache.flush c;
  check Alcotest.bytes "data after flush" (block 'd') (Blockdev.read dev 2 1);
  check Alcotest.int "clean after flush" 0 (Cache.dirty_count c)

let test_policy_delayed () =
  let c, dev = mem_cache ~policy:Cache.Delayed () in
  Cache.write c ~kind:`Meta 1 (block 'm');
  check Alcotest.bytes "meta also delayed" (block '\000') (Blockdev.read dev 1 1);
  check Alcotest.int "sync writes" 0 (Cache.stats c).Cache.sync_writes;
  Cache.flush c;
  check Alcotest.bytes "after flush" (block 'm') (Blockdev.read dev 1 1)

let test_policy_write_through () =
  let c, dev = mem_cache ~policy:Cache.Write_through () in
  Cache.write c ~kind:`Data 1 (block 'd');
  check Alcotest.bytes "data immediate" (block 'd') (Blockdev.read dev 1 1);
  check Alcotest.int "no dirty" 0 (Cache.dirty_count c)

let test_logical_index () =
  let c, dev = mem_cache () in
  Blockdev.write dev 9 (block 'z');
  check (Alcotest.option Alcotest.bytes) "miss before" None
    (Cache.find_logical c ~ino:5 ~lblk:0);
  ignore (Cache.read c 9);
  Cache.set_logical c 9 ~ino:5 ~lblk:0;
  check (Alcotest.option Alcotest.bytes) "hit after attach" (Some (block 'z'))
    (Cache.find_logical c ~ino:5 ~lblk:0);
  check Alcotest.int "logical hit counted" 1 (Cache.stats c).Cache.logical_hits;
  Cache.drop_logical c ~ino:5 ~lblk:0;
  check (Alcotest.option Alcotest.bytes) "gone after drop" None
    (Cache.find_logical c ~ino:5 ~lblk:0)

let test_logical_moves () =
  let c, dev = mem_cache () in
  Blockdev.write dev 1 (block 'a');
  Blockdev.write dev 2 (block 'b');
  ignore (Cache.read c 1);
  ignore (Cache.read c 2);
  Cache.set_logical c 1 ~ino:5 ~lblk:0;
  Cache.set_logical c 2 ~ino:5 ~lblk:0;
  (* The identity moved to block 2. *)
  check (Alcotest.option Alcotest.bytes) "newest wins" (Some (block 'b'))
    (Cache.find_logical c ~ino:5 ~lblk:0)

let test_set_logical_nonresident () =
  let c, _ = mem_cache () in
  Cache.set_logical c 42 ~ino:1 ~lblk:1;
  check (Alcotest.option Alcotest.bytes) "no-op for non-resident" None
    (Cache.find_logical c ~ino:1 ~lblk:1)

let test_read_group () =
  let c, dev = timed_cache () in
  check Alcotest.bool "request issued" true (Cache.read_group c 100 16);
  check Alcotest.int "single request" 1 (Blockdev.stats dev).Request.Stats.reads;
  (* Every block now resident: physical reads are hits, no new requests. *)
  for i = 0 to 15 do
    ignore (Cache.read c (100 + i))
  done;
  check Alcotest.int "still one request" 1 (Blockdev.stats dev).Request.Stats.reads;
  (* Re-reading a fully resident group is free. *)
  check Alcotest.bool "fully resident: no request" false (Cache.read_group c 100 16);
  check Alcotest.int "no extra request" 1 (Blockdev.stats dev).Request.Stats.reads

let test_read_group_preserves_dirty () =
  let c, dev = mem_cache ~policy:Cache.Delayed () in
  Blockdev.write dev 101 (block 'o');
  Cache.write c ~kind:`Data 101 (block 'n');
  ignore (Cache.read_group c 100 4 : bool);
  check Alcotest.bytes "dirty block kept" (block 'n') (Cache.read c 101);
  Cache.flush c;
  check Alcotest.bytes "flushed version" (block 'n') (Blockdev.read dev 101 1)

let test_flush_clustering () =
  let c, dev = timed_cache ~policy:Cache.Delayed () in
  Cache.set_clusterer c same_file_clusterer;
  (* Ten adjacent blocks of one file + one unrelated metadata block. *)
  for i = 0 to 9 do
    Cache.write c ~kind:`Data (200 + i) (block 'f');
    Cache.set_logical c (200 + i) ~ino:7 ~lblk:i
  done;
  Cache.write c ~kind:`Data 210 (block 'm');
  Cache.flush c;
  (* One clustered unit + one singleton. *)
  check Alcotest.int "two requests" 2 (Blockdev.stats dev).Request.Stats.writes

let test_flush_no_clusterer_is_per_block () =
  let c, dev = timed_cache ~policy:Cache.Delayed () in
  for i = 0 to 9 do
    Cache.write c ~kind:`Data (200 + i) (block 'f')
  done;
  Cache.flush c;
  check Alcotest.int "ten requests" 10 (Blockdev.stats dev).Request.Stats.writes

let test_flush_limit () =
  let c, dev = mem_cache ~policy:Cache.Delayed () in
  for i = 0 to 9 do
    Cache.write c ~kind:`Data i (block 'x')
  done;
  let n = Cache.flush_limit c 4 in
  check Alcotest.int "four written" 4 n;
  check Alcotest.int "six remain dirty" 6 (Cache.dirty_count c);
  ignore dev

let test_eviction_writes_back () =
  let c, dev = mem_cache ~policy:Cache.Delayed ~capacity:8 () in
  for i = 0 to 15 do
    Cache.write c ~kind:`Data i (block (Char.chr (65 + i)))
  done;
  (* Capacity 8 < 16 dirty blocks: evictions must have flushed data. *)
  check Alcotest.bool "evictions happened" true ((Cache.stats c).Cache.evictions > 0);
  Cache.flush c;
  for i = 0 to 15 do
    check Alcotest.bytes "content preserved"
      (block (Char.chr (65 + i)))
      (Blockdev.read dev i 1)
  done

let test_remount_cold () =
  let c, _ = mem_cache ~policy:Cache.Delayed () in
  Cache.write c ~kind:`Data 3 (block 'p');
  Cache.set_logical c 3 ~ino:1 ~lblk:0;
  Cache.remount c;
  check Alcotest.int "nothing resident" 0 (Cache.resident c);
  check (Alcotest.option Alcotest.bytes) "logical gone" None
    (Cache.find_logical c ~ino:1 ~lblk:0);
  (* But the data was flushed first. *)
  check Alcotest.bytes "persisted" (block 'p') (Cache.read c 3)

let test_crash_loses_dirty () =
  let c, dev = mem_cache ~policy:Cache.Delayed () in
  Cache.write c ~kind:`Data 3 (block 'p');
  Cache.crash c;
  check Alcotest.bytes "dirty data lost" (block '\000') (Blockdev.read dev 3 1);
  check Alcotest.int "cache empty" 0 (Cache.resident c)

let test_invalidate () =
  let c, dev = mem_cache ~policy:Cache.Delayed () in
  Cache.write c ~kind:`Data 3 (block 'p');
  Cache.set_logical c 3 ~ino:1 ~lblk:0;
  Cache.invalidate c 3;
  Cache.flush c;
  check Alcotest.bytes "never written" (block '\000') (Blockdev.read dev 3 1);
  check (Alcotest.option Alcotest.bytes) "identity dropped" None
    (Cache.find_logical c ~ino:1 ~lblk:0)

(* ------------------------------------------------------------------ *)
(* Soft updates: dependency-ordered write-back *)

let test_soft_updates_order () =
  let c, dev = mem_cache ~policy:Cache.Soft_updates () in
  Cache.write c ~kind:`Meta 10 (block 'i');
  Cache.write c ~kind:`Meta 20 (block 'd');
  (* Block 10 (the inode) must reach the device before block 20 (the
     dirent). *)
  Cache.order c ~first:10 ~second:20;
  (* A one-block partial flush must pick the prerequisite. *)
  check Alcotest.int "one written" 1 (Cache.flush_limit c 1);
  check Alcotest.bytes "prerequisite first" (block 'i') (Blockdev.read dev 10 1);
  check Alcotest.bytes "dependent still unwritten" (block '\000') (Blockdev.read dev 20 1);
  Cache.flush c;
  check Alcotest.bytes "dependent after" (block 'd') (Blockdev.read dev 20 1)

let test_soft_updates_chain () =
  let c, dev = mem_cache ~policy:Cache.Soft_updates () in
  List.iter (fun i -> Cache.write c ~kind:`Meta i (block (Char.chr (65 + i)))) [ 1; 2; 3 ];
  Cache.order c ~first:1 ~second:2;
  Cache.order c ~first:2 ~second:3;
  check Alcotest.int "first wave" 1 (Cache.flush_limit c 1);
  check Alcotest.bytes "1 first" (block 'B') (Blockdev.read dev 1 1);
  check Alcotest.int "second wave" 1 (Cache.flush_limit c 1);
  check Alcotest.bytes "2 second" (block 'C') (Blockdev.read dev 2 1);
  check Alcotest.bytes "3 waits" (block '\000') (Blockdev.read dev 3 1)

let test_soft_updates_cycle_broken () =
  let c, dev = mem_cache ~policy:Cache.Soft_updates () in
  Cache.write c ~kind:`Meta 1 (block 'a');
  Cache.write c ~kind:`Meta 2 (block 'b');
  Cache.order c ~first:1 ~second:2;
  (* The reverse edge would complete a cycle: block 2 is written out
     immediately instead. *)
  Cache.order c ~first:2 ~second:1;
  check Alcotest.bytes "cycle broken by early write" (block 'b') (Blockdev.read dev 2 1);
  Cache.flush c;
  check Alcotest.bytes "rest flushed" (block 'a') (Blockdev.read dev 1 1)

let test_soft_updates_full_flush_waves () =
  let c, dev = timed_cache ~policy:Cache.Soft_updates () in
  Cache.write c ~kind:`Meta 10 (block 'i');
  Cache.write c ~kind:`Meta 20 (block 'd');
  Cache.order c ~first:10 ~second:20;
  Cache.flush c;
  (* Two waves = two separate requests even though both blocks were dirty. *)
  check Alcotest.int "two requests" 2 (Blockdev.stats dev).Request.Stats.writes;
  check Alcotest.bytes "both there" (block 'd') (Blockdev.read dev 20 1)

let test_soft_updates_noop_for_other_policies () =
  let c, dev = mem_cache ~policy:Cache.Delayed () in
  Cache.write c ~kind:`Meta 1 (block 'a');
  Cache.write c ~kind:`Meta 2 (block 'b');
  Cache.order c ~first:2 ~second:1;
  Cache.order c ~first:1 ~second:2;
  (* No early writes happened. *)
  check Alcotest.bytes "still delayed" (block '\000') (Blockdev.read dev 2 1);
  Cache.flush c

(* ------------------------------------------------------------------ *)
(* Device faults: transparent retries, pinned buffers *)

module Io_error = Cffs_util.Io_error
module Registry = Cffs_obs.Registry

(* Fail the next [n] requests matching [op] with [cause], then proceed. *)
let fail_next dev op cause n =
  let remaining = ref n in
  Blockdev.set_injector dev
    (Some
       (fun o ~blk:_ ~nblocks:_ ->
         if o = op && !remaining > 0 then begin
           decr remaining;
           Blockdev.Fail cause
         end
         else Blockdev.Proceed))

let test_transient_read_retried () =
  let c, dev = mem_cache () in
  Blockdev.write dev 7 (block 'r');
  let before = Registry.snapshot () in
  fail_next dev Io_error.Read Io_error.Transient 2;
  (* Two transient failures, then success: the caller never sees them. *)
  check Alcotest.bytes "read succeeds through retries" (block 'r') (Cache.read c 7);
  let delta = Registry.diff (Registry.snapshot ()) before in
  check Alcotest.int "retries counted" 2 (Registry.get_counter delta "blockdev.retries");
  Blockdev.set_injector dev None

let test_persistent_read_raises () =
  let c, dev = mem_cache () in
  Blockdev.write dev 7 (block 'r');
  Blockdev.set_injector dev
    (Some (fun _ ~blk:_ ~nblocks:_ -> Blockdev.Fail Io_error.Bad_sector));
  (match Cache.read c 7 with
  | _ -> Alcotest.fail "expected Io_error"
  | exception Io_error.E e ->
      check Alcotest.bool "bad sector" true (e.Io_error.cause = Io_error.Bad_sector));
  Blockdev.set_injector dev None;
  check Alcotest.bytes "recovers once fault clears" (block 'r') (Cache.read c 7)

let test_write_failure_pins_sync () =
  (* A sync-policy write that the device refuses must not raise and must
     not lose the data: the buffer stays dirty and pinned. *)
  let c, dev = mem_cache ~policy:Cache.Write_through () in
  Blockdev.set_injector dev
    (Some
       (fun op ~blk:_ ~nblocks:_ ->
         if op = Io_error.Write then Blockdev.Fail Io_error.Bad_sector
         else Blockdev.Proceed));
  Cache.write c ~kind:`Data 3 (block 'p');
  check Alcotest.int "pinned" 1 (Cache.pinned_count c);
  check Alcotest.int "still dirty" 1 (Cache.dirty_count c);
  check Alcotest.bytes "content retained" (block 'p') (Cache.read c 3);
  Blockdev.set_injector dev None;
  Cache.flush c;
  check Alcotest.int "unpinned after healthy flush" 0 (Cache.pinned_count c);
  check Alcotest.bytes "persisted" (block 'p') (Blockdev.read dev 3 1)

let test_pinned_survives_eviction_pressure () =
  let c, dev = mem_cache ~policy:Cache.Delayed ~capacity:4 () in
  Blockdev.set_injector dev
    (Some
       (fun op ~blk:_ ~nblocks:_ ->
         if op = Io_error.Write then Blockdev.Fail Io_error.Bad_sector
         else Blockdev.Proceed));
  (* Twice the capacity in dirty blocks against a dead device: eviction
     cannot write anything back, so everything must be retained. *)
  for i = 0 to 7 do
    Cache.write c ~kind:`Data i (block (Char.chr (65 + i)))
  done;
  ignore (Cache.flush_limit c 8);
  check Alcotest.int "all dirty retained" 8 (Cache.dirty_count c);
  check Alcotest.bool "grew past capacity rather than drop" true (Cache.resident c >= 8);
  Blockdev.set_injector dev None;
  Cache.flush c;
  check Alcotest.int "drained" 0 (Cache.dirty_count c);
  check Alcotest.int "unpinned" 0 (Cache.pinned_count c);
  for i = 0 to 7 do
    check Alcotest.bytes "nothing lost" (block (Char.chr (65 + i))) (Blockdev.read dev i 1)
  done

(* ------------------------------------------------------------------ *)
(* Soft updates: the issued write sequence respects declared order *)

(* One timeline of binding order declarations (cache observer) and write
   requests (device observer).  A request is the atomicity grain: blocks
   travelling together satisfy/violate nothing among themselves. *)
type order_ev = Decl of int * int | Req of int list

let record_timeline c dev =
  let tl = ref [] in
  let bs = Blockdev.block_size dev in
  Blockdev.set_write_observer dev
    (Some
       (fun ~blk ~data ~torn:_ ->
         let n = Bytes.length data / bs in
         tl := Req (List.init n (fun i -> blk + i)) :: !tl));
  Cache.set_observer c
    (Some
       (function
       | Cache.Order { first; second } -> tl := Decl (first, second) :: !tl
       | _ -> ()));
  tl

(* A declared constraint (f, s) is violated if s reaches the device in a
   request that does not include f, before any post-declaration request
   carried f. *)
let first_order_violation timeline =
  let active = ref [] in
  let viol = ref None in
  List.iter
    (function
      | Decl (f, s) -> active := (f, s) :: !active
      | Req blks ->
          (match
             List.find_opt
               (fun (f, s) -> List.mem s blks && not (List.mem f blks))
               !active
           with
          | Some (f, s) when !viol = None ->
              viol := Some (Printf.sprintf "block %d written before its prerequisite %d" s f)
          | _ -> ());
          active := List.filter (fun (f, _) -> not (List.mem f blks)) !active)
    (List.rev timeline);
  !viol

let test_su_cycle_break_persists_prereqs () =
  (* The cycle-breaking write must carry the forced block's own
     prerequisite closure first: with 3 < 1 < 2 declared, completing the
     cycle via (2, 3) forces 2 out -- but 3 and 1 must hit the device
     before it, in that order. *)
  let c, dev = mem_cache ~policy:Cache.Soft_updates () in
  let tl = record_timeline c dev in
  Cache.write c ~kind:`Meta 1 (block 'a');
  Cache.write c ~kind:`Meta 2 (block 'b');
  Cache.write c ~kind:`Meta 3 (block 'c');
  Cache.order c ~first:1 ~second:2;
  Cache.order c ~first:3 ~second:1;
  Cache.order c ~first:2 ~second:3;
  (* Cycle broken by writing 2 early -- after its prerequisites. *)
  check Alcotest.bytes "forced block on device" (block 'b') (Blockdev.read dev 2 1);
  Cache.flush c;
  (match first_order_violation !tl with
  | None -> ()
  | Some msg -> Alcotest.fail msg);
  check Alcotest.bytes "1 there" (block 'a') (Blockdev.read dev 1 1);
  check Alcotest.bytes "3 there" (block 'c') (Blockdev.read dev 3 1)

let qtest ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

let qcheck_su_order_respected =
  qtest ~count:150 "issued writes respect declared order"
    QCheck.(list_of_size (Gen.int_range 0 60) (triple (int_bound 5) (int_bound 15) (int_bound 15)))
    (fun ops ->
      let c, dev = mem_cache ~policy:Cache.Soft_updates ~capacity:8 () in
      let tl = record_timeline c dev in
      List.iter
        (fun (op, x, y) ->
          match op with
          | 0 | 1 | 2 ->
              Cache.write c ~kind:`Meta x (block (Char.chr (65 + (x mod 26))))
          | 3 -> Cache.order c ~first:x ~second:y
          | 4 -> ignore (Cache.flush_limit c ((y mod 3) + 1))
          | _ -> Cache.flush c)
        ops;
      Cache.flush c;
      Cache.set_observer c None;
      Blockdev.set_write_observer dev None;
      match first_order_violation !tl with
      | None -> Cache.dirty_count c = 0
      | Some msg -> QCheck.Test.fail_report msg)

let test_observer_events () =
  let c, _dev = mem_cache ~policy:Cache.Delayed () in
  let events = ref [] in
  Cache.set_observer c (Some (fun e -> events := e :: !events));
  ignore (Cache.read c 5);
  ignore (Cache.read c 5);
  Cache.write c ~kind:`Data 6 (block 'a');
  Cache.flush c;
  Cache.set_observer c None;
  ignore (Cache.read c 7);
  (match List.rev !events with
  | [
   Cache.Read_miss { blk = 5; nblocks = 1 };
   Cache.Read_hit { blk = 5; logical = false };
   Cache.Write { blk = 6; sync = false };
   Cache.Writeback { blk = 6; nblocks = 1 };
   Cache.Flush { nblocks = 1 };
  ] ->
      ()
  | evs -> Alcotest.failf "unexpected event stream (%d events)" (List.length evs));
  (* After detaching, nothing more is delivered. *)
  check Alcotest.int "observer detached" 5 (List.length !events)

(* ------------------------------------------------------------------ *)
(* Adaptive readahead *)

module Readahead = Cffs_cache.Readahead

let drive_streak ra ino lblks =
  (* advise-before-note, as the read path does; returns the advised
     windows *)
  List.map
    (fun lblk ->
      let w = Readahead.advise ra ~ino ~lblk in
      Readahead.note ra ~ino ~lblk;
      w)
    lblks

let test_readahead_window_doubles () =
  let ra = Readahead.create ~max_window:16 () in
  let widths = drive_streak ra 7 [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  (* first access is cold, the second only builds the streak; from there
     the window doubles 2 -> 4 -> 8 and saturates at max_window *)
  check (Alcotest.list Alcotest.int) "doubling to max" [ 0; 0; 2; 4; 8; 16; 16; 16 ]
    widths;
  check Alcotest.int "window getter" 16 (Readahead.window ra ~ino:7)

let test_readahead_resets_on_seek () =
  let ra = Readahead.create ~max_window:16 () in
  let before = Registry.snapshot () in
  ignore (drive_streak ra 7 [ 0; 1; 2; 3 ]);
  check Alcotest.bool "streaking" true (Readahead.window ra ~ino:7 > 0);
  (* a seek kills streak and window; the next sequential pair restarts
     from the smallest window *)
  ignore (drive_streak ra 7 [ 90 ]);
  check Alcotest.int "reset" 0 (Readahead.window ra ~ino:7);
  let delta = Registry.diff (Registry.snapshot ()) before in
  check Alcotest.bool "reset counted" true
    (Registry.get_counter delta "cache.readahead_resets" > 0);
  check (Alcotest.list Alcotest.int) "restarts small" [ 0; 2 ]
    (drive_streak ra 7 [ 91; 92 ])

let test_readahead_rereads_neutral () =
  let ra = Readahead.create ~max_window:8 () in
  ignore (drive_streak ra 3 [ 0; 1; 2 ]);
  let w = Readahead.window ra ~ino:3 in
  (* re-reading the current block neither grows nor resets *)
  ignore (drive_streak ra 3 [ 2; 2 ]);
  check Alcotest.int "unchanged" w (Readahead.window ra ~ino:3);
  check Alcotest.bool "still streaking" true
    (List.hd (drive_streak ra 3 [ 3 ]) > 0)

let test_readahead_disabled () =
  let ra = Readahead.create ~max_window:0 () in
  check (Alcotest.list Alcotest.int) "never advises" [ 0; 0; 0; 0; 0 ]
    (drive_streak ra 1 [ 0; 1; 2; 3; 4 ]);
  check Alcotest.int "no window" 0 (Readahead.window ra ~ino:1)

let test_readahead_independent_files () =
  let ra = Readahead.create ~max_window:8 () in
  ignore (drive_streak ra 1 [ 0; 1; 2; 3 ]);
  (* interleaved random traffic on another file leaves file 1's streak
     alone *)
  ignore (drive_streak ra 2 [ 40; 7; 300 ]);
  check Alcotest.bool "file 1 streaking" true (Readahead.window ra ~ino:1 > 0);
  check Alcotest.int "file 2 idle" 0 (Readahead.window ra ~ino:2);
  check Alcotest.bool "file 1 continues" true (List.hd (drive_streak ra 1 [ 4 ]) > 0)

(* ------------------------------------------------------------------ *)
(* Batched prefetch *)

let reads dev = (Blockdev.stats dev).Request.Stats.reads

let test_prefetch_single_request_per_run () =
  let c, dev = mem_cache () in
  for i = 0 to 9 do
    Blockdev.write dev (100 + i) (block (Char.chr (Char.code 'a' + i)))
  done;
  let r0 = reads dev in
  Cache.prefetch c [ (100, 10) ];
  check Alcotest.int "one request" 1 (reads dev - r0);
  for i = 0 to 9 do
    check Alcotest.bool "resident" true (Cache.resident_block c (100 + i))
  done;
  (* contents arrived intact and later reads are hits *)
  check Alcotest.bytes "data" (block 'c') (Cache.read c 102);
  check Alcotest.int "no further requests" 1 (reads dev - r0)

let test_prefetch_skips_resident () =
  let c, dev = mem_cache () in
  for i = 0 to 9 do
    Blockdev.write dev (200 + i) (block 'x')
  done;
  (* make the middle of the run resident (and dirty, to prove prefetch
     does not clobber it) *)
  Cache.write c ~kind:`Data 204 (block 'd');
  let r0 = reads dev in
  Cache.prefetch c [ (200, 10) ];
  (* split into the two non-resident sub-runs around block 204 *)
  check Alcotest.int "two requests" 2 (reads dev - r0);
  check Alcotest.bytes "dirty preserved" (block 'd') (Cache.read c 204);
  let r1 = reads dev in
  Cache.prefetch c [ (200, 10) ];
  check Alcotest.int "fully resident: no requests" 0 (reads dev - r1)

let test_prefetch_many_runs_one_drain () =
  let c, dev = mem_cache () in
  Blockdev.set_queue dev ~depth:8 ~policy:Cffs_disk.Scheduler.Clook ~coalesce:true ();
  for i = 0 to 49 do
    Blockdev.write dev (300 + i) (block 'y')
  done;
  let r0 = reads dev in
  (* adjacent runs coalesce in the shared drain: fewer device requests
     than runs *)
  Cache.prefetch c [ (300, 10); (310, 10); (330, 10); (320, 10); (340, 10) ];
  check Alcotest.bool "coalesced" true (reads dev - r0 < 5);
  for i = 0 to 49 do
    check Alcotest.bool "resident" true (Cache.resident_block c (300 + i))
  done

let test_prefetch_fault_swallowed () =
  let c, dev = mem_cache () in
  for i = 0 to 5 do
    Blockdev.write dev (400 + i) (block 'z')
  done;
  Blockdev.set_injector dev
    (Some
       (fun op ~blk ~nblocks ->
         if op = Cffs_util.Io_error.Read && blk <= 402 && 402 < blk + nblocks then
           Blockdev.Fail Cffs_util.Io_error.Bad_sector
         else Blockdev.Proceed));
  Cache.prefetch c [ (400, 6) ];
  Blockdev.set_injector dev None;
  (* the faulted block stays non-resident; a direct read still works *)
  check Alcotest.bool "bad block absent" false (Cache.resident_block c 402);
  check Alcotest.bytes "read-through recovers" (block 'z') (Cache.read c 402)

let test_prefetch_fault_swallowed_integrity () =
  (* with an integrity layer attached prefetch runs verified group reads;
     a failed run is swallowed and counted, like the plain path's *)
  let c, dev = mem_cache () in
  Cache.set_integrity c (Some (Cffs_blockdev.Integrity.format dev));
  for i = 0 to 5 do
    Cache.write c ~kind:`Data (400 + i) (block 'z')
  done;
  Cache.flush c;
  Cache.remount c;
  Blockdev.set_injector dev
    (Some
       (fun op ~blk ~nblocks ->
         if op = Cffs_util.Io_error.Read && blk <= 402 && 402 < blk + nblocks then
           Blockdev.Fail Cffs_util.Io_error.Bad_sector
         else Blockdev.Proceed));
  let before = Registry.snapshot () in
  Cache.prefetch c [ (402, 1) ];
  let delta = Registry.diff (Registry.snapshot ()) before in
  check Alcotest.int "failed run counted" 1 (Registry.get_counter delta "cache.prefetch_failed");
  Cache.prefetch c [ (400, 6) ];
  Blockdev.set_injector dev None;
  check Alcotest.bool "bad block absent" false (Cache.resident_block c 402);
  check Alcotest.bool "neighbours installed" true
    (List.for_all (Cache.resident_block c) [ 400; 401; 403; 404; 405 ]);
  check Alcotest.bytes "read-through recovers" (block 'z') (Cache.read c 402)

(* ------------------------------------------------------------------ *)
(* Block buffers: one copy from the media into the cache, one copy from
   the cache into the media. *)

let test_write_buffers_not_kept () =
  List.iter
    (fun policy ->
      let c, dev = mem_cache ~policy () in
      let buf = block 'a' in
      Cache.write c ~kind:`Data 50 buf;
      Cache.flush c;
      Bytes.fill buf 0 4096 'Z';
      check Alcotest.bytes
        (Cache.policy_name policy ^ ": media keep the written bytes")
        (block 'a') (Blockdev.read dev 50 1))
    [ Cache.Write_through; Cache.Delayed ]

let test_installed_buffers_distinct () =
  let c, dev = mem_cache ~capacity:256 () in
  Blockdev.set_queue dev ~coalesce:true ();
  for i = 0 to 95 do
    Blockdev.write dev (100 + i) (block (Char.chr (Char.code '0' + (i mod 64))))
  done;
  ignore (Cache.read_group c 100 16);
  Cache.prefetch c (List.init 8 (fun r -> (132 + (8 * r), 8)));
  let blks = List.init 16 (fun i -> 100 + i) @ List.init 64 (fun i -> 132 + i) in
  let bufs = List.map (Cache.read c) blks in
  List.iteri
    (fun i b ->
      List.iteri
        (fun j b' -> if i < j && b == b' then Alcotest.failf "blocks %d and %d share a buffer" i j)
        bufs)
    bufs;
  (* none of them is the store's own: scribbling leaves the media alone *)
  List.iter (fun b -> Bytes.fill b 0 4096 '!') bufs;
  List.iter
    (fun blk ->
      check Alcotest.bytes "media unchanged"
        (block (Char.chr (Char.code '0' + ((blk - 100) mod 64))))
        (Blockdev.read dev blk 1))
    blks

(* Allocation guard: words allocated straight into the major heap — where
   every block-sized buffer goes — per block of the request.  A cold
   group read and a coalesced prefetch copy each block once (1x); a batch
   write over blocks the media already hold copies into the store's
   buffers and allocates none. *)
let direct_major_words f =
  let _, p0, m0 = Gc.counters () in
  f ();
  let _, p1, m1 = Gc.counters () in
  (m1 -. p1) -. (m0 -. p0)

let per_block_ratio nblocks f = direct_major_words f /. float_of_int (nblocks * 4096 / 8)

let test_copy_guard () =
  let guard what limit nblocks run =
    run 0;
    (* the first round warms up the tables and queues *)
    let r = per_block_ratio nblocks (fun () -> run 1) in
    check Alcotest.bool (Printf.sprintf "%s: %.2fx the blocks <= %.2fx" what r limit) true
      (r <= limit)
  in
  let c, dev = mem_cache ~capacity:1024 () in
  Blockdev.set_queue dev ~coalesce:true ();
  for b = 0 to 1023 do
    Blockdev.write dev b (block 'w')
  done;
  guard "cold 16-block read_group" 1.1 16 (fun k ->
      ignore (Cache.read_group c (16 * k) 16));
  guard "8x8 coalesced prefetch" 1.1 64 (fun k ->
      Cache.prefetch c (List.init 8 (fun r -> (128 + (64 * k) + (8 * r), 8))));
  let units k = List.init 8 (fun u -> (512 + (64 * k) + (8 * u), List.init 8 (fun _ -> block 'u'))) in
  List.iter
    (fun coalesce ->
      Blockdev.set_queue dev ~coalesce ();
      (* the payloads are built outside the measured call *)
      let us = [ units 0; units 1 ] in
      guard
        (Printf.sprintf "8x8 write_batch_units (coalesce %b)" coalesce)
        0.1 64
        (fun k -> Blockdev.write_batch_units dev (List.nth us k)))
    [ false; true ]

(* --- Views: group-read blocks are copied only when handed out --------- *)

(* A block a group read installed keeps the bytes the media had then, even
   when the device is written behind the cache's back. *)
let test_view_isolated_from_device_writes () =
  let c, dev = mem_cache ~capacity:64 () in
  for b = 0 to 15 do
    Blockdev.write dev b (block 'a')
  done;
  ignore (Cache.read_group c 0 16);
  Blockdev.write dev 3 (block 'w');
  Blockdev.write_torn dev 5 (block 't') ~keep_sectors:2;
  Blockdev.write dev 6 (Bytes.cat (block 'w') (block 'w'));
  check Alcotest.bytes "full write hidden" (block 'a') (Cache.read c 3);
  check Alcotest.bytes "torn write hidden" (block 'a') (Cache.read c 5);
  let out = Bytes.make 4096 '?' in
  Cache.read_into c 6 ~src_off:0 out ~dst_off:0 ~len:4096;
  check Alcotest.bytes "read_into sees the installed bytes" (block 'a') out;
  Cache.set_logical c 7 ~ino:9 ~lblk:0;
  check (Alcotest.option Alcotest.bytes) "logical hit too" (Some (block 'a'))
    (Cache.find_logical c ~ino:9 ~lblk:0);
  check Alcotest.bytes "the media did change" (block 'w') (Blockdev.read dev 3 1)

(* Every way an entry leaves the cache ends its view: afterwards a write
   to the block is in place and allocates no block. *)
let test_views_released () =
  let z = block 'z' in
  let write_words dev =
    direct_major_words (fun () ->
        for b = 0 to 15 do
          Blockdev.write dev b z
        done)
  in
  List.iter
    (fun (what, drop) ->
      let c, dev = mem_cache ~capacity:16 () in
      for b = 0 to 15 do
        Blockdev.write dev b (block 'a')
      done;
      ignore (Cache.read_group c 0 16);
      drop c;
      let r = write_words dev /. float_of_int (4096 / 8) in
      check Alcotest.bool
        (Printf.sprintf "%s: writes after it allocate %.2f blocks <= 0.1" what r)
        true (r <= 0.1))
    [
      ("evict", fun c -> ignore (Cache.read_group c 100 16));
      ("invalidate", fun c -> for b = 0 to 15 do Cache.invalidate c b done);
      ("remount", Cache.remount);
      ("crash", Cache.crash);
    ];
  let c, _ = mem_cache ~capacity:16 () in
  ignore (Cache.read_group c 0 16);
  ignore (Cache.read c 0);
  let before = Registry.snapshot () in
  ignore (Cache.read_group c 100 16);
  check Alcotest.int "evictions of never-used views counted" 15
    (Registry.get_counter (Registry.diff (Registry.snapshot ()) before) "cache.evicted_unused")

(* Allocation guard next to "one copy per block": a cold group read copies
   nothing, and the first read of one member copies that block once. *)
let test_view_copy_guard () =
  let c, dev = mem_cache ~capacity:1024 () in
  for b = 0 to 63 do
    Blockdev.write dev b (block 'w')
  done;
  ignore (Cache.read_group c 0 16);
  ignore (Cache.read c 0);
  let group = per_block_ratio 1 (fun () -> ignore (Cache.read_group c 16 16)) in
  check Alcotest.bool
    (Printf.sprintf "cold 16-block read_group: %.2f blocks <= 0.1" group)
    true (group <= 0.1);
  let first = per_block_ratio 1 (fun () -> ignore (Cache.read c 20)) in
  check Alcotest.bool
    (Printf.sprintf "first read of a member: %.2f blocks <= 1.1" first)
    true (first <= 1.1)

let () =
  Alcotest.run "cffs_cache"
    [
      ( "basics",
        [
          Alcotest.test_case "read-through" `Quick test_read_through;
          Alcotest.test_case "sync-metadata policy" `Quick test_write_policies;
          Alcotest.test_case "delayed policy" `Quick test_policy_delayed;
          Alcotest.test_case "write-through policy" `Quick test_policy_write_through;
        ] );
      ( "logical index",
        [
          Alcotest.test_case "attach/lookup/drop" `Quick test_logical_index;
          Alcotest.test_case "identity moves" `Quick test_logical_moves;
          Alcotest.test_case "non-resident attach" `Quick test_set_logical_nonresident;
        ] );
      ( "groups",
        [
          Alcotest.test_case "read_group single request" `Quick test_read_group;
          Alcotest.test_case "read_group preserves dirty" `Quick
            test_read_group_preserves_dirty;
        ] );
      ( "flush",
        [
          Alcotest.test_case "clusterer forms units" `Quick test_flush_clustering;
          Alcotest.test_case "default is per-block" `Quick
            test_flush_no_clusterer_is_per_block;
          Alcotest.test_case "flush_limit" `Quick test_flush_limit;
        ] );
      ( "soft updates",
        [
          Alcotest.test_case "order respected" `Quick test_soft_updates_order;
          Alcotest.test_case "chains" `Quick test_soft_updates_chain;
          Alcotest.test_case "cycle broken" `Quick test_soft_updates_cycle_broken;
          Alcotest.test_case "flush waves" `Quick test_soft_updates_full_flush_waves;
          Alcotest.test_case "no-op elsewhere" `Quick test_soft_updates_noop_for_other_policies;
          Alcotest.test_case "cycle break persists prereqs" `Quick
            test_su_cycle_break_persists_prereqs;
          qcheck_su_order_respected;
        ] );
      ( "faults",
        [
          Alcotest.test_case "transient read retried" `Quick test_transient_read_retried;
          Alcotest.test_case "persistent read raises" `Quick test_persistent_read_raises;
          Alcotest.test_case "write failure pins (sync)" `Quick test_write_failure_pins_sync;
          Alcotest.test_case "pinned survives eviction pressure" `Quick
            test_pinned_survives_eviction_pressure;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "eviction writes back" `Quick test_eviction_writes_back;
          Alcotest.test_case "remount" `Quick test_remount_cold;
          Alcotest.test_case "crash" `Quick test_crash_loses_dirty;
          Alcotest.test_case "invalidate" `Quick test_invalidate;
          Alcotest.test_case "observer events" `Quick test_observer_events;
        ] );
      ( "readahead",
        [
          Alcotest.test_case "window doubles to max" `Quick
            test_readahead_window_doubles;
          Alcotest.test_case "seek resets" `Quick test_readahead_resets_on_seek;
          Alcotest.test_case "re-reads neutral" `Quick test_readahead_rereads_neutral;
          Alcotest.test_case "max_window 0 disables" `Quick test_readahead_disabled;
          Alcotest.test_case "per-file state" `Quick
            test_readahead_independent_files;
        ] );
      ( "prefetch",
        [
          Alcotest.test_case "one request per run" `Quick
            test_prefetch_single_request_per_run;
          Alcotest.test_case "skips resident, keeps dirty" `Quick
            test_prefetch_skips_resident;
          Alcotest.test_case "many runs share one drain" `Quick
            test_prefetch_many_runs_one_drain;
          Alcotest.test_case "read fault swallowed" `Quick
            test_prefetch_fault_swallowed;
          Alcotest.test_case "read fault swallowed under integrity" `Quick
            test_prefetch_fault_swallowed_integrity;
        ] );
      ( "block buffers",
        [
          Alcotest.test_case "written buffers not kept" `Quick
            test_write_buffers_not_kept;
          Alcotest.test_case "installed buffers distinct" `Quick
            test_installed_buffers_distinct;
          Alcotest.test_case "one copy per block" `Quick test_copy_guard;
        ] );
      ( "views",
        [
          Alcotest.test_case "device writes do not reach installed blocks" `Quick
            test_view_isolated_from_device_writes;
          Alcotest.test_case "evict, invalidate, remount, crash release views" `Quick
            test_views_released;
          Alcotest.test_case "group read copies nothing" `Quick test_view_copy_guard;
        ] );
    ]
