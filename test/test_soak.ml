(* Self-healing soak and remap-persistence properties: the @soak alias.

   - The bounded soak (lib/harness/soak.ml) drives an integrity-formatted
     C-FFS volume through sustained transient faults, sticky bad sectors
     and latent metadata corruption, and must finish with zero violations:
     no acknowledged write lost, every injected fault detected, scrub
     converged, cold remount intact.
   - A power cut at sampled boundaries of a journal checkpoint and the
     transaction after it (Crashmc's checkpoint phase) loses no
     acknowledged file; every image replays clean and scrubs with no loss.
   - The QCheck property materializes power-cut images at and between
     sync barriers after random bad-sector remaps and checks every
     acknowledged file back byte-for-byte — remap tables, replicas and
     checksums must all survive the crash/reload cycle.
   - The telemetry document must always carry the self-healing counters. *)

module Blockdev = Cffs_blockdev.Blockdev
module Faultdev = Cffs_blockdev.Faultdev
module Integrity = Cffs_blockdev.Integrity
module Cache = Cffs_cache.Cache
module Registry = Cffs_obs.Registry
module Json = Cffs_obs.Json
module Prng = Cffs_util.Prng
module Soak = Cffs_harness.Soak
module Crashmc = Cffs_harness.Crashmc
module Csb = Cffs.Csb

let check = Alcotest.check

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Cffs_vfs.Errno.to_string e)

(* --- The bounded soak ------------------------------------------------ *)

let test_soak_no_violations () =
  let o = Soak.run () in
  if o.Soak.violations <> [] then
    Alcotest.failf "soak violations: %s" (String.concat "; " o.Soak.violations);
  check Alcotest.bool "acknowledged files survived" true
    (o.Soak.files_acknowledged > 0);
  check Alcotest.bool "reads actually verified" true (o.Soak.reads_verified > 100);
  check Alcotest.bool "bad sectors were injected" true
    (o.Soak.bad_sectors_marked >= 8);
  check Alcotest.bool "corruption was detected" true
    (o.Soak.checksum_failures >= 1);
  check Alcotest.bool "bad sectors were remapped" true (o.Soak.remaps >= 1);
  check Alcotest.bool "degraded reads served" true (o.Soak.degraded_reads >= 1);
  check Alcotest.int "nothing unrecoverable" 0 o.Soak.scrub_lost;
  check Alcotest.bool "fault journal stays bounded" true
    (o.Soak.max_journal_entries > 0 && o.Soak.max_journal_entries < 2000)

let test_soak_deterministic () =
  let a = Soak.run ~seed:7 ~rounds:3 ~files_per_round:15 () in
  let b = Soak.run ~seed:7 ~rounds:3 ~files_per_round:15 () in
  check Alcotest.(list string) "same violations" a.Soak.violations b.Soak.violations;
  check Alcotest.int "same remaps" a.Soak.remaps b.Soak.remaps;
  check Alcotest.int "same checksum failures" a.Soak.checksum_failures
    b.Soak.checksum_failures

(* --- Power cut during journal flush / checkpoint sweep ---------------- *)

let test_checkpoint_cut_no_loss () =
  let before = Registry.snapshot () in
  let o = Crashmc.run_checkpoint () in
  let d = Registry.diff (Registry.snapshot ()) before in
  if o.Crashmc.violations <> [] then
    Alcotest.failf "checkpoint-cut violations: %s"
      (String.concat "; " o.Crashmc.violations);
  check Alcotest.bool "boundaries explored" true (o.Crashmc.points > 20);
  check Alcotest.bool "torn variants explored" true (o.Crashmc.torn_points > 0);
  check Alcotest.bool "reads verified" true (o.Crashmc.durable_reads > 100);
  check Alcotest.bool "mounts actually replayed the log" true
    (Registry.get_counter d "journal.replays" > 0);
  check Alcotest.bool "images were scrubbed" true
    (Registry.get_counter d "scrub.blocks_verified" > 0)

(* --- Remap persistence across power cuts ----------------------------- *)

(* Never overwrite or delete an acknowledged file: then for any crash
   point at or after sync [k], every file acknowledged by sync [k] must
   read back byte-identical from the materialized image — whatever
   remapping happened to the blocks around it.  The random free blocks
   poisoned each round may all stay unwritten (seed 64's do), so each
   round also poisons the first data block of its first file while that
   block is still dirty in the cache: the round's sync is certain to
   write it, and it must come back remapped. *)
let remap_persistence seed =
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:4096 in
  let fs = Cffs.format ~integrity:true ~policy:Cache.Sync_metadata dev in
  let ig = Option.get (Cffs.integrity fs) in
  let sb = Cffs.superblock fs in
  let fdev = Faultdev.attach ~seed dev in
  let prng = Prng.create ((seed * 7919) + 1) in
  let model = Hashtbl.create 128 in
  let snaps = ref [] in
  let certain = ref [] in
  for round = 0 to 2 do
    (* poison free blocks before allocating, so fresh writes land on them *)
    let marked = ref 0 and attempts = ref 0 in
    while !marked < 48 && !attempts < 1000 do
      incr attempts;
      let blk = 1 + Prng.int prng (Csb.total_blocks sb) in
      if not (Cffs.block_in_use fs blk) then begin
        Faultdev.mark_bad fdev blk;
        incr marked
      end
    done;
    for i = 0 to 29 do
      let path = Printf.sprintf "/r%d_f%02d" round i in
      let data = Prng.bytes prng 1024 in
      ok (Cffs.write_file fs path data);
      if i = 0 then begin
        match Cffs.file_runs fs path with
        | Ok ((blk, _) :: _) ->
            Faultdev.mark_bad fdev blk;
            certain := blk :: !certain
        | Ok [] | Error _ -> Alcotest.failf "seed %d: %s has no data block" seed path
      end;
      Hashtbl.replace model path data
    done;
    Cffs.sync fs;
    snaps := (Faultdev.journal_length fdev, Hashtbl.copy model) :: !snaps
  done;
  let verify_image ~upto m what =
    let img = Faultdev.materialize fdev ~upto in
    match Cffs.mount img with
    | None -> Alcotest.failf "seed %d: %s image unmountable" seed what
    | Some fs2 ->
        Hashtbl.iter
          (fun path data ->
            match Cffs.read_file fs2 path with
            | Error e ->
                Alcotest.failf "seed %d: %s lost %s (%s)" seed what path
                  (Cffs_vfs.Errno.to_string e)
            | Ok got ->
                if not (Bytes.equal got data) then
                  Alcotest.failf "seed %d: %s corrupted %s" seed what path)
          m
  in
  let snaps = List.rev !snaps in
  let total = Faultdev.journal_length fdev in
  List.iteri
    (fun k (jlen, m) ->
      (* power cut exactly at the sync barrier... *)
      verify_image ~upto:jlen m (Printf.sprintf "sync %d" k);
      (* ...and at a random later point mid-burst: files acknowledged at
         sync [k] are never rewritten, so they must still be intact *)
      if jlen < total then
        let upto = jlen + Prng.int prng (total - jlen) in
        verify_image ~upto m (Printf.sprintf "post-sync %d (+%d)" k (upto - jlen)))
    snaps;
  List.for_all (Integrity.remapped ig) !certain

let prop_remap_persistence =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:4
       ~name:"remaps + power cut preserve acknowledged contents"
       QCheck.small_nat remap_persistence)

(* --- Telemetry contract ---------------------------------------------- *)

let test_telemetry_integrity_counters () =
  let doc = Cffs_harness.Telemetry.document ~nfiles:30 () in
  match doc with
  | Json.Obj fields -> (
      match List.assoc_opt "integrity" fields with
      | Some (Json.Obj section) ->
          List.iter
            (fun key ->
              check Alcotest.bool (key ^ " present") true
                (List.mem_assoc key section))
            [
              "integrity.checksum_failures";
              "integrity.remaps";
              "integrity.degraded_reads";
              "scrub.blocks_verified";
            ]
      | _ -> Alcotest.fail "document has no integrity section")
  | _ -> Alcotest.fail "document is not an object"

let () =
  Alcotest.run "soak"
    [
      ( "self-healing",
        [
          Alcotest.test_case "soak run has no violations" `Quick
            test_soak_no_violations;
          Alcotest.test_case "soak is deterministic in its seed" `Quick
            test_soak_deterministic;
          Alcotest.test_case "power cut through journal flush and checkpoint"
            `Quick test_checkpoint_cut_no_loss;
          prop_remap_persistence;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "integrity counters always exported" `Quick
            test_telemetry_integrity_counters;
        ] );
    ]
