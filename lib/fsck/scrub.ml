module Cache = Cffs_cache.Cache
module Blockdev = Cffs_blockdev.Blockdev
module Integrity = Cffs_blockdev.Integrity
module Registry = Cffs_obs.Registry
module Json = Cffs_obs.Json
module Csb = Cffs.Csb

let m_verified = Registry.counter "scrub.blocks_verified"
let m_prefetched = Registry.counter "scrub.blocks_prefetched"

(* Batch this scan window's in-use blocks through the tagged queue as
   contiguous group reads before verifying them one by one: on a timed
   device the sweep then streams off the platter in a few large transfers
   and the per-block verification reads hit the drive's on-board cache
   instead of paying a rotation each.  Read faults are swallowed here —
   [verify_block] is the authority on classifying them.  Pointless on the
   memory backend (no mechanical cost), so gated on having a drive. *)
let prefetch_window t dev ~start ~stop =
  if Blockdev.drive dev <> None then begin
    let cap = 64 in
    let flush_run run_start len =
      if len > 0 then begin
        ignore (Blockdev.submit_read dev run_start len);
        Registry.add m_prefetched len
      end
    in
    let run_start = ref 0 and run_len = ref 0 in
    for blk = start to stop - 1 do
      if Cffs.block_in_use t blk then
        if !run_len > 0 && !run_start + !run_len = blk && !run_len < cap then
          incr run_len
        else begin
          flush_run !run_start !run_len;
          run_start := blk;
          run_len := 1
        end
    done;
    flush_run !run_start !run_len;
    List.iter
      (fun c -> Result.iter (Array.iter Blockdev.release) c.Blockdev.cq_result)
      (Blockdev.drain_views dev)
  end

type report = {
  blocks_scanned : int;
  verified : int;
  mismatches : int;
  remapped : int;
  lost : int;
  replicas_repaired : int;
  primaries_repaired : int;
  map_repaired : bool;
  next : int;
  total : int;
}

let complete r = r.next >= r.total

(* One replicated metadata block: compare the primary (on the media,
   through the remap table) against its replica slot and heal whichever
   side is damaged.  Scrub runs just after [Cffs.sync], so primary, cache
   and replica agree unless the media corrupted one of them. *)
let scrub_meta_slot t ig ~slot blk st =
  let scanned, verified, mismatches, primaries, replicas, lost = st in
  let replica = Integrity.replica_read ig ~slot in
  match Integrity.verify_block ig blk with
  | Integrity.Verified | Integrity.Untagged -> (
      Registry.incr m_verified;
      let data = Cache.read (Cffs.cache t) blk in
      match replica with
      | Some r when Bytes.equal r data ->
          (scanned + 1, verified + 1, mismatches, primaries, replicas, lost)
      | Some _ | None ->
          (* replica missing, stale or damaged: refresh it from the good
             primary.  A [false] return means the spare pool is exhausted —
             the slot stays unreplicated, which is degradation, not loss. *)
          let repaired = Integrity.replica_write ig ~slot data in
          ( scanned + 1,
            verified + 1,
            mismatches,
            primaries,
            (replicas + if repaired then 1 else 0),
            lost ))
  | Integrity.Mismatch | Integrity.Unreadable -> (
      match replica with
      | Some r ->
          (* primary damaged, replica intact: restore the primary in place
             (remapping its sector if the fault is sticky). *)
          Integrity.rewrite_block ig blk r;
          (scanned + 1, verified, mismatches + 1, primaries + 1, replicas, lost)
      | None ->
          (scanned + 1, verified, mismatches + 1, primaries, replicas, lost + 1))

let scrub_metadata t ig =
  let sb = Cffs.superblock t in
  let st = ref (0, 0, 0, 0, 0, 0) in
  st := scrub_meta_slot t ig ~slot:0 0 !st;
  for cg = 0 to sb.Csb.cg_count - 1 do
    st := scrub_meta_slot t ig ~slot:(1 + cg) (Csb.cg_start sb cg) !st
  done;
  !st

let run ?(start = 0) ?limit t =
  match Cffs.integrity t with
  | None -> None
  | Some ig ->
      (* Make the media current first: replicas refresh, dirty blocks land,
         the checksum region is re-encoded.  Everything scrub then reads off
         the device is supposed to verify. *)
      Cffs.sync t;
      let sb = Cffs.superblock t in
      let total = Csb.total_blocks sb + 1 (* block 0 .. total_blocks *) in
      let limit = match limit with Some l -> max 0 l | None -> total in
      let remaps_before = Integrity.remap_count ig in
      let scanned, verified, mismatches, primaries, replicas, lost =
        if start = 0 then scrub_metadata t ig else (0, 0, 0, 0, 0, 0)
      in
      let scanned = ref scanned
      and verified = ref verified
      and mismatches = ref mismatches
      and lost = ref lost in
      let cache = Cffs.cache t in
      let stop = min total (start + limit) in
      prefetch_window t (Cache.device cache) ~start ~stop;
      for blk = start to stop - 1 do
        if Cffs.block_in_use t blk then begin
          incr scanned;
          match Integrity.verify_block ig blk with
          | Integrity.Verified | Integrity.Untagged ->
              Registry.incr m_verified;
              incr verified
          | Integrity.Mismatch | Integrity.Unreadable ->
              incr mismatches;
              if Cache.resident_block cache blk then
                (* the cache still holds the acknowledged contents: rewrite
                   them (remapping a sticky sector) before they are evicted *)
                Integrity.rewrite_block ig blk (Cache.read cache blk)
              else incr lost
        end
      done;
      let map_repaired = Integrity.repair_map_copies ig in
      (* rewrites above refreshed in-memory tags; re-encode the at-rest
         region so a crash right now still attaches cleanly *)
      Integrity.flush_tags ig;
      Some
        {
          blocks_scanned = !scanned;
          verified = !verified;
          mismatches = !mismatches;
          remapped = Integrity.remap_count ig - remaps_before;
          lost = !lost;
          replicas_repaired = replicas;
          primaries_repaired = primaries;
          map_repaired;
          next = stop;
          total;
        }

let run_to_completion ?(step = 4096) t =
  match run ~start:0 ~limit:step t with
  | None -> None
  | Some first ->
      let merge a b =
        {
          blocks_scanned = a.blocks_scanned + b.blocks_scanned;
          verified = a.verified + b.verified;
          mismatches = a.mismatches + b.mismatches;
          remapped = a.remapped + b.remapped;
          lost = a.lost + b.lost;
          replicas_repaired = a.replicas_repaired + b.replicas_repaired;
          primaries_repaired = a.primaries_repaired + b.primaries_repaired;
          map_repaired = a.map_repaired || b.map_repaired;
          next = b.next;
          total = b.total;
        }
      in
      let rec go acc =
        if complete acc then acc
        else
          match run ~start:acc.next ~limit:step t with
          | None -> acc
          | Some r -> go (merge acc r)
      in
      Some (go first)

let to_json r =
  Json.Obj
    [
      ("blocks_scanned", Json.Int r.blocks_scanned);
      ("verified", Json.Int r.verified);
      ("mismatches", Json.Int r.mismatches);
      ("remapped", Json.Int r.remapped);
      ("lost", Json.Int r.lost);
      ("replicas_repaired", Json.Int r.replicas_repaired);
      ("primaries_repaired", Json.Int r.primaries_repaired);
      ("map_repaired", Json.Bool r.map_repaired);
      ("next", Json.Int r.next);
      ("total", Json.Int r.total);
      ("complete", Json.Bool (complete r));
    ]

let pp ppf r =
  Format.fprintf ppf
    "scrubbed %d/%d blocks: %d verified, %d mismatches (%d primaries \
     restored, %d replicas refreshed, %d remapped), %d lost%s%s"
    r.next r.total r.verified r.mismatches r.primaries_repaired
    r.replicas_repaired r.remapped r.lost
    (if r.map_repaired then ", remap table repaired" else "")
    (if complete r then "" else " [partial]")

let to_string r = Format.asprintf "%a" pp r
