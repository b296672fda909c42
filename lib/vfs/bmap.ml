module Cache = Cffs_cache.Cache
module Codec = Cffs_util.Codec
open Errno

let block_size cache = Cffs_blockdev.Blockdev.block_size (Cache.device cache)
let ptrs_per_block cache = block_size cache / 4

let reach cache =
  let ppb = ptrs_per_block cache in
  Inode.n_direct + ppb + (ppb * ppb)

(* The physical block behind [lblk]: [0] for a hole, [-1] when [lblk]
   lies outside the map.  A sentinel, not an option, so a lookup
   allocates nothing. *)
let find cache (inode : Inode.t) lblk =
  let ppb = ptrs_per_block cache in
  if lblk < 0 then -1
  else if lblk < Inode.n_direct then inode.direct.(lblk)
  else if lblk < Inode.n_direct + ppb then begin
    if inode.indirect = 0 then 0
    else Codec.get_u32 (Cache.read cache inode.indirect) (4 * (lblk - Inode.n_direct))
  end
  else if lblk < Inode.n_direct + ppb + (ppb * ppb) then begin
    if inode.dindirect = 0 then 0
    else begin
      let rel = lblk - Inode.n_direct - ppb in
      let p1 = Codec.get_u32 (Cache.read cache inode.dindirect) (4 * (rel / ppb)) in
      if p1 = 0 then 0 else Codec.get_u32 (Cache.read cache p1) (4 * (rel mod ppb))
    end
  end
  else -1

let unmapped_error lblk = if lblk < 0 then Einval else Efbig

let read cache inode lblk =
  let p = find cache inode lblk in
  if p > 0 then Ok (Some p) else if p = 0 then Ok None else Error (unmapped_error lblk)

let last_hint cache inode lblk =
  (* Only look back over the direct window: files written sequentially (the
     common case) always hit the immediately preceding block first try. *)
  let rec back l =
    if l < 0 then 0
    else begin
      let p = find cache inode l in
      if p > 0 then p + 1 else back (l - 1)
    end
  in
  back (min (lblk - 1) (Inode.n_direct + ptrs_per_block cache - 1))

let zero_block cache = Bytes.make (block_size cache) '\000'

(* A pointer slot at [off] in pointer block [blk] (buffer [b]): its
   block, allocated and recorded (a delayed metadata write of [blk]) if
   the slot is empty; [fill] zeroes a new block that will itself hold
   pointers. *)
let pointer cache blk b off ~alloc ~hint ~fill =
  let p = Codec.get_u32 b off in
  if p <> 0 then Ok p
  else
    match alloc ~hint with
    | Error _ as e -> e
    | Ok p ->
        if fill then Cache.write cache ~kind:`Meta_delayed p (zero_block cache);
        Codec.set_u32 b off p;
        Cache.write cache ~kind:`Meta_delayed blk b;
        Ok p

(* The inode's own indirect or double-indirect block ([get]), allocated
   zeroed if absent ([set] records it in the inode). *)
let root_block cache cur ~alloc ~hint ~set =
  if cur <> 0 then Ok cur
  else
    match alloc ~hint with
    | Error _ as e -> e
    | Ok b ->
        Cache.write cache ~kind:`Meta_delayed b (zero_block cache);
        set b;
        Ok b

let set_indirect (inode : Inode.t) b = inode.indirect <- b
let set_dindirect (inode : Inode.t) b = inode.dindirect <- b

(* Written as matches, not [let*]: mapping a block builds no closure
   beyond the caller's [alloc]. *)
let alloc cache (inode : Inode.t) lblk ~alloc =
  let ppb = ptrs_per_block cache in
  let hint = last_hint cache inode lblk in
  if lblk < 0 then Error Einval
  else if lblk < Inode.n_direct then begin
    if inode.direct.(lblk) <> 0 then Ok inode.direct.(lblk)
    else
      match alloc ~hint with
      | Error _ as e -> e
      | Ok b ->
          inode.direct.(lblk) <- b;
          Ok b
  end
  else if lblk < Inode.n_direct + ppb then begin
    match root_block cache inode.indirect ~alloc ~hint ~set:(set_indirect inode) with
    | Error _ as e -> e
    | Ok ind ->
        pointer cache ind (Cache.read cache ind) (4 * (lblk - Inode.n_direct)) ~alloc ~hint
          ~fill:false
  end
  else if lblk < Inode.n_direct + ppb + (ppb * ppb) then begin
    let rel = lblk - Inode.n_direct - ppb in
    match root_block cache inode.dindirect ~alloc ~hint ~set:(set_dindirect inode) with
    | Error _ as e -> e
    | Ok dind -> (
        match pointer cache dind (Cache.read cache dind) (4 * (rel / ppb)) ~alloc ~hint ~fill:true with
        | Error _ as e -> e
        | Ok ind ->
            pointer cache ind (Cache.read cache ind) (4 * (rel mod ppb)) ~alloc ~hint ~fill:false)
  end
  else Error Efbig

let shrink cache (inode : Inode.t) ~keep_blocks ~free =
  let ppb = ptrs_per_block cache in
  let keep = max 0 keep_blocks in
  (* Direct pointers. *)
  for l = keep to Inode.n_direct - 1 do
    if inode.direct.(l) <> 0 then begin
      free inode.direct.(l);
      inode.direct.(l) <- 0
    end
  done;
  (* Free the tail of one pointer block starting at index [from]; returns
     true when the block ends up completely empty. *)
  let prune_ptr_block blk ~from ~on_ptr =
    let b = Cache.read cache blk in
    for i = from to ppb - 1 do
      let p = Codec.get_u32 b (4 * i) in
      if p <> 0 then begin
        on_ptr p;
        Codec.set_u32 b (4 * i) 0
      end
    done;
    let rec empty i = i >= ppb || (Codec.get_u32 b (4 * i) = 0 && empty (i + 1)) in
    if from > 0 then Cache.write cache ~kind:`Meta_delayed blk b;
    empty 0
  in
  (* Single indirect. *)
  if inode.indirect <> 0 && keep < Inode.n_direct + ppb then begin
    let from = max 0 (keep - Inode.n_direct) in
    let empty = prune_ptr_block inode.indirect ~from ~on_ptr:free in
    if empty then begin
      free inode.indirect;
      inode.indirect <- 0
    end
  end;
  (* Double indirect. *)
  if inode.dindirect <> 0 && keep < Inode.n_direct + ppb + (ppb * ppb) then begin
    let rel_keep = max 0 (keep - Inode.n_direct - ppb) in
    let from_sub = (rel_keep + ppb - 1) / ppb in
    (* Fully-freed sub-indirects... *)
    let free_subtree sub = ignore (prune_ptr_block sub ~from:0 ~on_ptr:free); free sub in
    let b1 = Cache.read cache inode.dindirect in
    for i = from_sub to ppb - 1 do
      let p1 = Codec.get_u32 b1 (4 * i) in
      if p1 <> 0 then begin
        free_subtree p1;
        Codec.set_u32 b1 (4 * i) 0
      end
    done;
    (* ...and the partially-kept one. *)
    if rel_keep mod ppb <> 0 then begin
      let i = rel_keep / ppb in
      let p1 = Codec.get_u32 b1 (4 * i) in
      if p1 <> 0 then begin
        let empty = prune_ptr_block p1 ~from:(rel_keep mod ppb) ~on_ptr:free in
        if empty then begin
          free p1;
          Codec.set_u32 b1 (4 * i) 0
        end
      end
    end;
    Cache.write cache ~kind:`Meta_delayed inode.dindirect b1;
    let rec empty i = i >= ppb || (Codec.get_u32 b1 (4 * i) = 0 && empty (i + 1)) in
    if empty 0 then begin
      free inode.dindirect;
      inode.dindirect <- 0
    end
  end

let visit_indirect cache ind ~data ~meta =
  let b = Cache.read cache ind in
  for i = 0 to ptrs_per_block cache - 1 do
    let p = Codec.get_u32 b (4 * i) in
    if p <> 0 then data p
  done;
  meta ind

let iter cache (inode : Inode.t) ~data ~meta =
  for i = 0 to Inode.n_direct - 1 do
    let p = inode.direct.(i) in
    if p <> 0 then data p
  done;
  if inode.indirect <> 0 then visit_indirect cache inode.indirect ~data ~meta;
  if inode.dindirect <> 0 then begin
    let b1 = Cache.read cache inode.dindirect in
    for i = 0 to ptrs_per_block cache - 1 do
      let p1 = Codec.get_u32 b1 (4 * i) in
      if p1 <> 0 then visit_indirect cache p1 ~data ~meta
    done;
    meta inode.dindirect
  end

(* Clear the first data pointer equal to [target], turning that logical
   block into a hole.  Fsck's duplicate-claim repair punches the later
   claimant so exactly one file keeps the block. *)
let punch cache (inode : Inode.t) ~target =
  let ppb = ptrs_per_block cache in
  let found = ref false in
  Array.iteri
    (fun i p ->
      if (not !found) && p = target then begin
        inode.direct.(i) <- 0;
        found := true
      end)
    inode.direct;
  let punch_ptr_block blk =
    if not !found then begin
      let b = Cache.read cache blk in
      let i = ref 0 in
      while (not !found) && !i < ppb do
        if Codec.get_u32 b (4 * !i) = target then begin
          Codec.set_u32 b (4 * !i) 0;
          Cache.write cache ~kind:`Meta blk b;
          found := true
        end;
        incr i
      done
    end
  in
  if inode.indirect <> 0 then punch_ptr_block inode.indirect;
  if (not !found) && inode.dindirect <> 0 then begin
    let b1 = Cache.read cache inode.dindirect in
    for i = 0 to ppb - 1 do
      let p1 = Codec.get_u32 b1 (4 * i) in
      if (not !found) && p1 <> 0 then punch_ptr_block p1
    done
  end;
  !found

(* Pointers set in [b]. *)
let live_pointers cache b =
  let n = ref 0 in
  for i = 0 to ptrs_per_block cache - 1 do
    if Codec.get_u32 b (4 * i) <> 0 then incr n
  done;
  !n

(* [iter]'s walk, with its cache reads, counting: a stat builds no
   closure. *)
let count cache (inode : Inode.t) =
  let n = ref 0 in
  for i = 0 to Inode.n_direct - 1 do
    if inode.direct.(i) <> 0 then incr n
  done;
  if inode.indirect <> 0 then
    n := !n + 1 + live_pointers cache (Cache.read cache inode.indirect);
  if inode.dindirect <> 0 then begin
    let b1 = Cache.read cache inode.dindirect in
    for i = 0 to ptrs_per_block cache - 1 do
      let p1 = Codec.get_u32 b1 (4 * i) in
      if p1 <> 0 then n := !n + 1 + live_pointers cache (Cache.read cache p1)
    done;
    incr n
  end;
  !n
