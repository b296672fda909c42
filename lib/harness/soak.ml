module Blockdev = Cffs_blockdev.Blockdev
module Faultdev = Cffs_blockdev.Faultdev
module Integrity = Cffs_blockdev.Integrity
module Cache = Cffs_cache.Cache
module Registry = Cffs_obs.Registry
module Prng = Cffs_util.Prng
module Inode = Cffs_vfs.Inode
module Scrub = Cffs_fsck.Scrub
module Csb = Cffs.Csb

type outcome = {
  rounds : int;
  files_acknowledged : int;  (** model files alive at the end *)
  reads_verified : int;  (** byte-compared reads over the whole run *)
  bad_sectors_marked : int;
  corruptions_injected : int;  (** metadata primaries/replicas damaged *)
  checksum_failures : int;  (** [integrity.checksum_failures] delta *)
  remaps : int;  (** [integrity.remaps] delta *)
  degraded_reads : int;  (** [integrity.degraded_reads] delta *)
  scrub_lost : int;  (** blocks the final scrub could not recover *)
  max_journal_entries : int;  (** in-memory fault-journal high-water mark *)
  violations : string list;
}

let ok = function Ok v -> v | Error e -> failwith (Cffs_vfs.Errno.to_string e)

(* Soak the self-healing stack: a create/overwrite/read/delete workload on
   an integrity-formatted C-FFS volume while the fault layer injects
   transient read errors, sticky bad sectors (only on blocks that carry no
   acknowledged data — a failing write must remap, never lose), and
   latent corruption of replicated metadata.  The invariant under test is
   the acceptance bar: no acknowledged write is ever lost or silently
   wrong, and every injected fault is either healed or surfaced as a
   detected, counted failure. *)
let run ?(seed = 42) ?(rounds = 6) ?(files_per_round = 40) ?(file_bytes = 1024)
    ?(transient_rate = 1e-3) ?(bad_per_round = 3) () =
  let prng = Prng.create seed in
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:4096 in
  let fs = Cffs.format ~integrity:true ~policy:Cache.Sync_metadata dev in
  let ig = Option.get (Cffs.integrity fs) in
  let sb = Cffs.superblock fs in
  let fdev = Faultdev.attach ~seed dev in
  Faultdev.set_transient_read_rate fdev transient_rate;
  let before = Registry.snapshot () in
  let model : (string, bytes) Hashtbl.t = Hashtbl.create 256 in
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let reads_verified = ref 0 in
  let bad_marked = ref 0 in
  let corruptions = ref 0 in
  let max_journal = ref 0 in
  let verify_all read_file label =
    Hashtbl.iter
      (fun path data ->
        match read_file path with
        | Error e ->
            violate "%s: acknowledged %s lost: %s" label path
              (Cffs_vfs.Errno.to_string e)
        | Ok got ->
            incr reads_verified;
            if not (Bytes.equal got data) then
              violate "%s: %s read back wrong contents" label path)
      model
  in
  for round = 0 to rounds - 1 do
    (* 1. new files (not acknowledged until the sync below) *)
    let fresh = ref [] in
    for i = 0 to files_per_round - 1 do
      let path = Printf.sprintf "/r%d_f%03d" round i in
      let data = Prng.bytes prng file_bytes in
      ok (Cffs.write_file fs path data);
      fresh := (path, data) :: !fresh
    done;
    (* 2. overwrite one existing file whose first data block we mark bad:
       the sync's writeback MUST hit the sticky sector and remap *)
    (match !fresh with
    | (path, _) :: rest -> (
        match Cffs.resolve fs path with
        | Error _ -> ()
        | Ok ino -> (
            match Cffs.read_inode fs ino with
            | Error _ -> ()
            | Ok inode ->
                let p = inode.Inode.direct.(0) in
                if p > 0 && not (Integrity.remapped ig p) then begin
                  Faultdev.mark_bad fdev p;
                  incr bad_marked;
                  let data = Prng.bytes prng file_bytes in
                  (* overwrite in place (no truncate) so the writeback is
                     forced onto the now-bad sector *)
                  ok (Cffs.write fs path ~off:0 data);
                  fresh := (path, data) :: rest
                end))
    | [] -> ());
    (* 3. sticky bad sectors on blocks holding no acknowledged data: the
       allocator will reuse them and remap-on-write absorbs the fault *)
    let total = Csb.total_blocks sb in
    let marked = ref 0 in
    let attempts = ref 0 in
    while !marked < bad_per_round && !attempts < 200 do
      incr attempts;
      let blk = 1 + Prng.int prng total in
      if not (Cffs.block_in_use fs blk) then begin
        Faultdev.mark_bad fdev blk;
        incr marked;
        incr bad_marked
      end
    done;
    (* 4. sync: everything written this round is now acknowledged *)
    Cffs.sync fs;
    List.iter (fun (path, data) -> Hashtbl.replace model path data) !fresh;
    max_journal := max !max_journal (Faultdev.journal_entries fdev);
    Faultdev.barrier fdev;
    if Faultdev.journal_entries fdev <> 0 then
      violate "round %d: barrier left %d journal entries" round
        (Faultdev.journal_entries fdev);
    (* 5. latent corruption of replicated metadata, alternating sides *)
    let slot = Prng.int prng (1 + sb.Csb.cg_count) in
    let primary_blk = if slot = 0 then 0 else Csb.cg_start sb (slot - 1) in
    if round mod 2 = 0 then begin
      Blockdev.corrupt_block dev primary_blk prng;
      Cache.invalidate (Cffs.cache fs) primary_blk;
      incr corruptions
    end
    else begin
      match Integrity.replica_phys ig ~slot with
      | Some p ->
          Blockdev.corrupt_block dev p prng;
          incr corruptions
      | None -> ()
    end;
    (* 6. every acknowledged file must read back byte-identical — the
       corrupted primary above is exercised here and must degrade to its
       replica, never to EIO *)
    verify_all (Cffs.read_file fs) (Printf.sprintf "round %d" round);
    (* 7. delete about a third of the population; their blocks (some now
       sticky-bad) return to the allocator *)
    let paths = Hashtbl.fold (fun p _ acc -> p :: acc) model [] in
    List.iter
      (fun path ->
        if Prng.chance prng 0.33 then begin
          ok (Cffs.unlink fs path);
          Hashtbl.remove model path
        end)
      paths
  done;
  (* Final heal: scrub to completion, then demand convergence — a second
     scrub must find nothing left to repair. *)
  let scrub_lost =
    match Scrub.run_to_completion fs with
    | None ->
        violate "scrub: volume has no integrity layer";
        0
    | Some r ->
        (match Scrub.run_to_completion fs with
        | Some r2 ->
            if
              r2.Scrub.mismatches <> 0
              || r2.Scrub.replicas_repaired <> 0
              || r2.Scrub.primaries_repaired <> 0
            then violate "scrub did not converge: %s" (Scrub.to_string r2)
        | None -> ());
        r.Scrub.lost
  in
  if scrub_lost > 0 then violate "scrub: %d blocks unrecoverable" scrub_lost;
  verify_all (Cffs.read_file fs) "post-scrub";
  (* Cold restart: materialize the media as of now (journal is empty after
     the barrier, so this is the base snapshot), remount it fresh, and
     verify again — proving the remap table, replicas and checksum region
     all reload from disk. *)
  Cffs.sync fs;
  Faultdev.barrier fdev;
  let cold = Faultdev.materialize fdev ~upto:(Faultdev.journal_length fdev) in
  (match Cffs.mount cold with
  | None -> violate "cold remount failed"
  | Some fs2 -> verify_all (Cffs.read_file fs2) "cold remount");
  let after = Registry.snapshot () in
  let delta = Registry.diff after before in
  let d name = Registry.get_counter delta name in
  let checksum_failures = d "integrity.checksum_failures" in
  let remaps = d "integrity.remaps" in
  let degraded = d "integrity.degraded_reads" in
  if !corruptions > 0 && checksum_failures = 0 then
    violate "%d corruptions injected but no checksum failure detected"
      !corruptions;
  if !bad_marked > 0 && remaps = 0 then
    violate "%d sticky bad sectors marked but nothing was remapped" !bad_marked;
  if rounds >= 1 && degraded = 0 then
    violate "primary metadata was corrupted but no degraded read happened";
  {
    rounds;
    files_acknowledged = Hashtbl.length model;
    reads_verified = !reads_verified;
    bad_sectors_marked = !bad_marked;
    corruptions_injected = !corruptions;
    checksum_failures;
    remaps;
    degraded_reads = degraded;
    scrub_lost;
    max_journal_entries = !max_journal;
    violations = List.rev !violations;
  }

let pp ppf o =
  Format.fprintf ppf
    "soak: %d rounds, %d files alive, %d reads verified, %d bad sectors, %d \
     corruptions -> %d checksum failures, %d remaps, %d degraded reads, %d \
     lost, journal high-water %d, %d violations"
    o.rounds o.files_acknowledged o.reads_verified o.bad_sectors_marked
    o.corruptions_injected o.checksum_failures o.remaps o.degraded_reads
    o.scrub_lost o.max_journal_entries
    (List.length o.violations)

let to_string o = Format.asprintf "%a" pp o
