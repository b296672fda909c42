module Cache = Cffs_cache.Cache
module Codec = Cffs_util.Codec
open Errno

let drop_logical cache ~ino ~from ~until =
  for l = from to until - 1 do
    Cache.drop_logical cache ~ino ~lblk:l
  done

module type FS = sig
  type t

  val cache : t -> Cache.t
  val read_inode : t -> int -> Inode.t Errno.result
  val write_inode : t -> int -> Inode.t -> kind:Cache.kind -> unit Errno.result
  val alloc : t -> ino:int -> Inode.t -> int -> hint:int -> int Errno.result
  val free : t -> int -> unit
  val fault_in : t -> ino:int -> Inode.t -> int -> int -> unit
  val note : t -> ino:int -> int -> unit
end

module Make (F : FS) = struct
  module Blockdev = Cffs_blockdev.Blockdev

  let mtime_now t = int_of_float (Blockdev.now (Cache.device (F.cache t)))
  let block_size t = Blockdev.block_size (Cache.device (F.cache t))
  let nblocks t (inode : Inode.t) = (inode.Inode.size + block_size t - 1) / block_size t

  let mapped t inode lblk =
    let p = Bmap.find (F.cache t) inode lblk in
    if p > 0 then Ok p else Error (if p = 0 then Einval else Bmap.unmapped_error lblk)

  (* Logical block [lblk] of directory [ino] as the cache's buffer, or
     [Bytes.empty] for a hole.  [lblk] lies in the map: a logical lookup
     outside it would miss and touch nothing, so callers check the range
     first. *)
  let dir_buf t ~ino inode lblk =
    let cache = F.cache t in
    match Cache.find_logical_exn cache ~ino ~lblk with
    | b ->
        F.note t ~ino lblk;
        b
    | exception Not_found ->
        let p = Bmap.find cache inode lblk in
        if p <= 0 then Bytes.empty
        else begin
          (* A logical miss: fault the block in and give it its identity. *)
          F.fault_in t ~ino inode lblk p;
          let b = Cache.read cache p in
          Cache.set_logical cache p ~ino ~lblk;
          F.note t ~ino lblk;
          b
        end

  let in_map t lblk = lblk >= 0 && lblk < Bmap.reach (F.cache t)

  let dir_block t ~ino inode lblk =
    if not (in_map t lblk) then Error (Bmap.unmapped_error lblk)
    else begin
      let b = dir_buf t ~ino inode lblk in
      if Bytes.length b = 0 then Error Einval
      else match mapped t inode lblk with Ok p -> Ok (p, b) | Error e -> Error e
    end

  (* The walk: blocks [lblk .. n - 1] of directory [ino] until [f]
     answers.  A functor-level loop, so a block costs no allocation. *)
  let rec scan_from t ~ino inode f n lblk =
    if lblk >= n then Ok None
    else if not (in_map t lblk) then Error Efbig
    else begin
      let b = dir_buf t ~ino inode lblk in
      if Bytes.length b = 0 then scan_from t ~ino inode f n (lblk + 1)
      else
        match f ~lblk b with
        | Some _ as r -> Ok r
        | None -> scan_from t ~ino inode f n (lblk + 1)
    end

  let dir_scan t ~ino inode f = scan_from t ~ino inode f (nblocks t inode) 0

  let dir_probe t ~ino inode probe =
    let room = ref None in
    match
      dir_scan t ~ino inode (fun ~lblk b ->
          match probe b with
          | `Hit h -> Some (lblk, h)
          | `Room at ->
              if Option.is_none !room then room := Some (lblk, at);
              None
          | `Full -> None)
    with
    | Error e -> Error e
    | Ok (Some h) -> Ok (`Found h)
    | Ok None -> Ok (`Absent !room)

  (* [block] for a reader that only copies bytes out: [n] bytes of the
     block from [boff] land in [out] at [pos], and the cache makes no
     private copy of the block.  [Ok false] for a hole. *)
  let block_into t ~ino inode lblk ~boff out ~pos ~n =
    let cache = F.cache t in
    if Cache.find_logical_into cache ~ino ~lblk ~src_off:boff out ~dst_off:pos ~len:n
    then begin
      F.note t ~ino lblk;
      Ok true
    end
    else begin
      let p = Bmap.find cache inode lblk in
      if p < 0 then Error (Bmap.unmapped_error lblk)
      else if p = 0 then Ok false
      else begin
        F.fault_in t ~ino inode lblk p;
        Cache.read_into cache p ~src_off:boff out ~dst_off:pos ~len:n;
        Cache.set_logical cache p ~ino ~lblk;
        F.note t ~ino lblk;
        Ok true
      end
    end

  (* The block loops are functor-level functions that match where
     [let*] would build a continuation closure per block. *)

  let rec read_blocks t ~ino inode ~off ~len out bsz pos =
    if pos >= len then Ok out
    else begin
      let fo = off + pos in
      let lblk = fo / bsz in
      let boff = fo mod bsz in
      let n = min (bsz - boff) (len - pos) in
      match block_into t ~ino inode lblk ~boff out ~pos ~n with
      | Error e -> Error e
      | Ok copied ->
          if not copied then Bytes.fill out pos n '\000';
          read_blocks t ~ino inode ~off ~len out bsz (pos + n)
    end

  let read_ino t ~ino ~off ~len =
    match F.read_inode t ino with
    | Error e -> Error e
    | Ok inode ->
        if off < 0 || len < 0 then Error Einval
        else begin
          let len = max 0 (min len (inode.Inode.size - off)) in
          read_blocks t ~ino inode ~off ~len (Bytes.create len) (block_size t) 0
        end

  (* [reached] follows the loop, so a failed write still knows how far
     it got. *)
  let rec write_blocks t ~ino inode ~off data ~old_size bsz reached pos =
    reached := pos;
    let len = Bytes.length data in
    if pos >= len then Ok ()
    else begin
      let cache = F.cache t in
      let fo = off + pos in
      let lblk = fo / bsz in
      let boff = fo mod bsz in
      let n = min (bsz - boff) (len - pos) in
      let existed = Bmap.find cache inode lblk in
      if existed < 0 then Error (Bmap.unmapped_error lblk)
      else begin
        let alloc ~hint = F.alloc t ~ino inode lblk ~hint in
        match Bmap.alloc cache inode lblk ~alloc with
        | Error e -> Error e
        | Ok p ->
            (* Read-modify-write is only needed when the write leaves
               some of the block's previously valid bytes in place;
               fresh blocks and whole-valid-range overwrites build the
               buffer from zeros.  A block just allocated for a hole
               also starts from zeros — its physical block may carry
               stale contents of whatever file freed it, but the
               hole's bytes are zeros by definition. *)
            let valid = max 0 (min bsz (old_size - (lblk * bsz))) in
            let need_rmw = n < bsz && (boff > 0 || n < valid) && existed > 0 in
            let buf =
              if not need_rmw then Bytes.make bsz '\000'
              else begin
                match Cache.find_logical_exn cache ~ino ~lblk with
                | b -> Bytes.copy b
                | exception Not_found -> Bytes.copy (Cache.read cache p)
              end
            in
            Bytes.blit data pos buf boff n;
            Cache.write cache ~kind:`Data p buf;
            Cache.set_logical cache p ~ino ~lblk;
            write_blocks t ~ino inode ~off data ~old_size bsz reached (pos + n)
      end
    end

  let write_ino t ~ino ~off data =
    match F.read_inode t ino with
    | Error e -> Error e
    | Ok inode ->
        if off < 0 then Error Einval
        else if inode.Inode.kind = Inode.Directory then Error Eisdir
        else begin
          let reached = ref 0 in
          let r =
            write_blocks t ~ino inode ~off data ~old_size:inode.Inode.size (block_size t)
              reached 0
          in
          (* On an error the blocks taken so far are named only by this copy
             of the inode: it is written all the same, as a short write, or
             they would leak. *)
          inode.Inode.size <- max inode.Inode.size (off + !reached);
          inode.Inode.mtime <- mtime_now t;
          let w = F.write_inode t ino inode ~kind:`Meta_delayed in
          match r with Ok () -> w | Error _ -> r
        end

  let truncate_ino t ~ino ~size =
    let* inode = F.read_inode t ino in
    if size < 0 then Error Einval
    else if inode.Inode.kind = Inode.Directory then Error Eisdir
    else begin
      let cache = F.cache t in
      let bsz = block_size t in
      if size < inode.Inode.size then begin
        let keep = (size + bsz - 1) / bsz in
        drop_logical cache ~ino ~from:keep ~until:(nblocks t inode);
        Bmap.shrink cache inode ~keep_blocks:keep ~free:(F.free t);
        (* Zero the cut tail of the last kept block so a later size
           extension reads zeros there, as POSIX requires. *)
        if size mod bsz <> 0 then begin
          match Bmap.read cache inode (keep - 1) with
          | Ok (Some p) ->
              let b = Bytes.copy (Cache.read cache p) in
              Codec.zero b (size mod bsz) (bsz - (size mod bsz));
              Cache.write cache ~kind:`Data p b;
              Cache.set_logical cache p ~ino ~lblk:(keep - 1)
          | Ok None | Error _ -> ()
        end
      end;
      inode.Inode.size <- size;
      inode.Inode.mtime <- mtime_now t;
      F.write_inode t ino inode ~kind:`Meta
    end

  let free_all t ~ino inode =
    drop_logical (F.cache t) ~ino ~from:0 ~until:(nblocks t inode);
    let free = F.free t in
    Bmap.iter (F.cache t) inode ~data:free ~meta:free

  let data_runs t ~ino =
    let* inode = F.read_inode t ino in
    if inode.Inode.kind = Inode.Directory then Error Eisdir
    else begin
      let n = nblocks t inode in
      let rec go l acc =
        if l >= n then Ok (List.rev acc)
        else
          let* p = Bmap.read (F.cache t) inode l in
          match p with
          | None -> go (l + 1) acc (* hole *)
          | Some p ->
              let acc =
                match acc with
                | (start, n) :: rest when start + n = p -> (start, n + 1) :: rest
                | _ -> (p, 1) :: acc
              in
              go (l + 1) acc
      in
      go 0 []
    end
end
