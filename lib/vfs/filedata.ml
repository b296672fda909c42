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

  let block t ~ino inode lblk =
    let cache = F.cache t in
    match Cache.find_logical cache ~ino ~lblk with
    | Some b ->
        F.note t ~ino lblk;
        Ok (Some b)
    | None -> begin
        match Bmap.read cache inode lblk with
        | Error _ as e -> e
        | Ok None -> Ok None
        | Ok (Some p) ->
            F.fault_in t ~ino inode lblk p;
            let b = Cache.read cache p in
            Cache.set_logical cache p ~ino ~lblk;
            F.note t ~ino lblk;
            Ok (Some b)
      end

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
    else
      match Bmap.read cache inode lblk with
      | Error _ as e -> e
      | Ok None -> Ok false
      | Ok (Some p) ->
          F.fault_in t ~ino inode lblk p;
          Cache.read_into cache p ~src_off:boff out ~dst_off:pos ~len:n;
          Cache.set_logical cache p ~ino ~lblk;
          F.note t ~ino lblk;
          Ok true

  (* The block loops match where [let*] would build a continuation
     closure per block. *)

  let read_ino t ~ino ~off ~len =
    let* inode = F.read_inode t ino in
    if off < 0 || len < 0 then Error Einval
    else begin
      let len = max 0 (min len (inode.Inode.size - off)) in
      let out = Bytes.create len in
      let bsz = block_size t in
      let rec loop pos =
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
              loop (pos + n)
        end
      in
      loop 0
    end

  let write_ino t ~ino ~off data =
    let* inode = F.read_inode t ino in
    if off < 0 then Error Einval
    else if inode.Inode.kind = Inode.Directory then Error Eisdir
    else begin
      let cache = F.cache t in
      let len = Bytes.length data in
      let bsz = block_size t in
      let old_size = inode.Inode.size in
      let rec loop pos =
        if pos >= len then Ok ()
        else begin
          let fo = off + pos in
          let lblk = fo / bsz in
          let boff = fo mod bsz in
          let n = min (bsz - boff) (len - pos) in
          match Bmap.read cache inode lblk with
          | Error e -> Error e
          | Ok existed -> (
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
                  let need_rmw = n < bsz && (boff > 0 || n < valid) && existed <> None in
                  let buf =
                    if not need_rmw then Bytes.make bsz '\000'
                    else begin
                      match Cache.find_logical cache ~ino ~lblk with
                      | Some b -> Bytes.copy b
                      | None -> Bytes.copy (Cache.read cache p)
                    end
                  in
                  Bytes.blit data pos buf boff n;
                  Cache.write cache ~kind:`Data p buf;
                  Cache.set_logical cache p ~ino ~lblk;
                  loop (pos + n))
        end
      in
      let* () = loop 0 in
      inode.Inode.size <- max inode.Inode.size (off + len);
      inode.Inode.mtime <- mtime_now t;
      F.write_inode t ino inode ~kind:`Meta_delayed
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
    Bmap.iter (F.cache t) inode ~data:(F.free t) ~meta:(F.free t)

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
