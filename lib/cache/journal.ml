module Blockdev = Cffs_blockdev.Blockdev
module Integrity = Cffs_blockdev.Integrity
module Io_error = Cffs_util.Io_error
module Codec = Cffs_util.Codec
module Crc32 = Cffs_util.Crc32
module Obs = Cffs_obs.Registry

let m_commits = Obs.counter "journal.commits"
let m_records = Obs.counter "journal.records"
let m_revokes = Obs.counter "journal.revokes"
let m_replays = Obs.counter "journal.replays"
let m_replayed_txns = Obs.counter "journal.replayed_txns"
let m_replayed_blocks = Obs.counter "journal.replayed_blocks"
let m_discarded_txns = Obs.counter "journal.discarded_txns"

(* All three record types confine their payload to the block's first
   512-byte sector only where sector-atomicity matters (header, commit);
   the descriptor also carries its entry table past the fixed fields.  A
   descriptor or image torn mid-transaction is caught by the commit CRC,
   so those need no atomicity of their own. *)
let header_magic = "CFJH"
let desc_magic = "CFJD"
let commit_magic = "CFJC"
let version = 1

type t = {
  dev : Blockdev.t;
  block_size : int;
  header_blk : int;
  log_start : int;
  log_len : int;
  mutable head : int;  (* next free log offset *)
  mutable base_seq : int;  (* seq of the first live transaction *)
  mutable next_seq : int;  (* seq the next commit will carry *)
}

let recommended_blocks ~usable = max 32 (min 1024 (usable / 8))
let fs_blocks t = t.log_start
let log_start t = t.log_start
let log_blocks t = t.log_len
let head t = t.head
let free_blocks t = t.log_len - t.head
let blocks_needed ~nimages = nimages + 2

(* Header: magic(4) version(u32) base_seq(u64) log_start(u32) log_len(u32)
   crc(u32 over the first 24 bytes), all within sector 0. *)

let encode_header t =
  let b = Bytes.make t.block_size '\000' in
  Codec.set_string b 0 header_magic;
  Codec.set_u32 b 4 version;
  Codec.set_u64 b 8 t.base_seq;
  Codec.set_u32 b 16 t.log_start;
  Codec.set_u32 b 20 t.log_len;
  Codec.set_u32 b 24 (Crc32.digest_sub b 0 24);
  b

let decode_header b ~usable =
  if Codec.get_string b 0 4 <> header_magic then None
  else if Codec.get_u32 b 4 <> version then None
  else if Codec.get_u32 b 24 <> Crc32.digest_sub b 0 24 then None
  else
    let base_seq = Codec.get_u64 b 8 in
    let log_start = Codec.get_u32 b 16 in
    let log_len = Codec.get_u32 b 20 in
    if log_start <= 0 || log_len <= 0 || log_start + log_len + 1 <> usable then
      None
    else Some (base_seq, log_start, log_len)

let write_header t = Blockdev.write t.dev t.header_blk (encode_header t)

let format dev ~usable =
  if usable < 64 then
    invalid_arg "Journal.format: device too small for a journal";
  let log_len = recommended_blocks ~usable in
  let t =
    {
      dev;
      block_size = Blockdev.block_size dev;
      header_blk = usable - 1;
      log_start = usable - 1 - log_len;
      log_len;
      head = 0;
      base_seq = 1;
      next_seq = 1;
    }
  in
  write_header t;
  t

let reset t =
  t.base_seq <- t.next_seq;
  t.head <- 0;
  write_header t

(* Descriptor: magic(4) seq(u64) count(u32) nrev(u32), then [count] image
   home-block numbers and [nrev] revoked block numbers, u32 each. *)

let desc_capacity bs = (bs - 20) / 4

let encode_desc t ~seq ~images ~revokes =
  let b = Bytes.make t.block_size '\000' in
  Codec.set_string b 0 desc_magic;
  Codec.set_u64 b 4 seq;
  Codec.set_u32 b 12 (List.length images);
  Codec.set_u32 b 16 (List.length revokes);
  let off = ref 20 in
  List.iter
    (fun (blk, _) ->
      Codec.set_u32 b !off blk;
      off := !off + 4)
    images;
  List.iter
    (fun blk ->
      Codec.set_u32 b !off blk;
      off := !off + 4)
    revokes;
  b

(* Commit: magic(4) seq(u64) count(u32) crc(u32), within sector 0.  The
   CRC covers the descriptor block and every image, in log order. *)

let txn_crc desc images =
  let crc = Crc32.update 0 desc 0 (Bytes.length desc) in
  List.fold_left (fun crc img -> Crc32.update crc img 0 (Bytes.length img)) crc
    images

let encode_commit t ~seq ~count ~crc =
  let b = Bytes.make t.block_size '\000' in
  Codec.set_string b 0 commit_magic;
  Codec.set_u64 b 4 seq;
  Codec.set_u32 b 12 count;
  Codec.set_u32 b 16 crc;
  b

type commit_result = Committed | No_space | Io_failed

let commit t ~images ~revokes =
  let nimages = List.length images in
  let need = blocks_needed ~nimages in
  if need > free_blocks t then No_space
  else if nimages + List.length revokes > desc_capacity t.block_size then
    No_space
  else
    let seq = t.next_seq in
    let desc = encode_desc t ~seq ~images ~revokes in
    let image_bytes = List.map snd images in
    let crc = txn_crc desc image_bytes in
    (* One scatter/gather append of descriptor + images, handed to the
       device block by block (it copies each once, into the media), and
       drained before the commit record is issued: the drain is the write
       barrier that keeps the commit from reaching the media first. *)
    let append_ok =
      try
        let _tag =
          Blockdev.submit_write_blocks t.dev (t.log_start + t.head)
            (Array.of_list (desc :: image_bytes))
        in
        List.for_all
          (fun cqe -> Result.is_ok cqe.Blockdev.cq_result)
          (Blockdev.drain t.dev)
      with Io_error.E _ -> false
    in
    if not append_ok then Io_failed
    else
      match
        Blockdev.write t.dev
          (t.log_start + t.head + 1 + nimages)
          (encode_commit t ~seq ~count:nimages ~crc)
      with
      | () ->
          t.head <- t.head + need;
          t.next_seq <- seq + 1;
          Obs.incr m_commits;
          Obs.add m_records nimages;
          Obs.add m_revokes (List.length revokes);
          Committed
      | exception Io_error.E _ -> Io_failed

(* Recovery.  The log is scanned from the front: transactions carry
   strictly increasing sequence numbers starting at the header's base, and
   commits are issued synchronously in order, so the first record that
   fails validation (bad magic, out-of-sequence, or CRC mismatch — a torn
   or never-completed append) ends the committed region; nothing after it
   can be visible. *)

type txn = { tx_images : (int * bytes) list; tx_revokes : int list }

let scan_txns dev ~block_size ~log_start ~log_len ~base_seq =
  let rec go pos seq acc =
    if pos + 2 > log_len then List.rev acc
    else
      let desc = Blockdev.read dev (log_start + pos) 1 in
      if Codec.get_string desc 0 4 <> desc_magic then List.rev acc
      else if Codec.get_u64 desc 4 <> seq then List.rev acc
      else
        let count = Codec.get_u32 desc 12 in
        let nrev = Codec.get_u32 desc 16 in
        if
          count < 0 || nrev < 0
          || 20 + (4 * (count + nrev)) > block_size
          || pos + count + 2 > log_len
        then List.rev acc
        else
          let images =
            List.init count (fun i ->
                ( Codec.get_u32 desc (20 + (4 * i)),
                  Blockdev.read dev (log_start + pos + 1 + i) 1 ))
          in
          let revokes =
            List.init nrev (fun i -> Codec.get_u32 desc (20 + (4 * (count + i))))
          in
          let cb = Blockdev.read dev (log_start + pos + 1 + count) 1 in
          if
            Codec.get_string cb 0 4 <> commit_magic
            || Codec.get_u64 cb 4 <> seq
            || Codec.get_u32 cb 12 <> count
            || Codec.get_u32 cb 16 <> txn_crc desc (List.map snd images)
          then (
            Obs.incr m_discarded_txns;
            List.rev acc)
          else
            go (pos + count + 2) (seq + 1)
              ({ tx_images = images; tx_revokes = revokes } :: acc)
  in
  go 0 base_seq []

let apply_txns ?integ dev ~fs_blocks txns =
  (* An image is suppressed when its block is revoked by the same or any
     later transaction: the block was freed and may since hold file data
     that replay must not clobber.  Walking the list backwards builds that
     "revoked from here on" set per transaction. *)
  let revoked = Hashtbl.create 16 in
  let filtered =
    List.rev_map
      (fun txn ->
        List.iter (fun blk -> Hashtbl.replace revoked blk ()) txn.tx_revokes;
        List.filter
          (fun (blk, _) ->
            blk >= 0 && blk < fs_blocks && not (Hashtbl.mem revoked blk))
          txn.tx_images)
      (List.rev txns)
  in
  let applied = ref 0 in
  List.iter
    (fun images ->
      List.iter
        (fun (blk, data) ->
          (match integ with
          | Some ig -> Integrity.write ig blk data
          | None -> Blockdev.write dev blk data);
          incr applied)
        images)
    filtered;
  !applied

let probe dev ~usable =
  if usable < 2 then None
  else
    match Blockdev.read dev (usable - 1) 1 with
    | b -> decode_header b ~usable
    | exception Io_error.E _ -> None

let replay ?integ dev ~usable =
  match probe dev ~usable with
  | None -> None
  | Some (base_seq, log_start, log_len) ->
      let block_size = Blockdev.block_size dev in
      let txns =
        scan_txns dev ~block_size ~log_start ~log_len ~base_seq
      in
      let blocks = apply_txns ?integ dev ~fs_blocks:log_start txns in
      (* Re-flush the checksum region so at-rest tags describe the
         replayed contents; the log itself carries no tags. *)
      (match integ with Some ig -> Integrity.flush_tags ig | None -> ());
      Obs.incr m_replays;
      Obs.add m_replayed_txns (List.length txns);
      Obs.add m_replayed_blocks blocks;
      Some (base_seq, log_start, log_len, List.length txns)

let replay_once ?integ dev ~usable =
  match replay ?integ dev ~usable with
  | None -> 0
  | Some (_, _, _, ntxns) -> ntxns

let attach ?integ dev ~usable =
  match replay ?integ dev ~usable with
  | None -> None
  | Some (base_seq, log_start, log_len, ntxns) ->
      let t =
        {
          dev;
          block_size = Blockdev.block_size dev;
          header_blk = usable - 1;
          log_start;
          log_len;
          head = 0;
          base_seq;
          next_seq = base_seq + ntxns;
        }
      in
      (* Empty the log now that every committed image is home.  A crash
         before this header write lands simply replays again at the next
         mount — replay is idempotent. *)
      reset t;
      Some t
