open Cffs_disk
module Io_error = Cffs_util.Io_error

(* Uniform request accounting for both media; a timed spindle's drive
   additionally keeps its own (timed) [Request.Stats]. *)
let m_reads = Cffs_obs.Registry.counter "blockdev.reads"
let m_writes = Cffs_obs.Registry.counter "blockdev.writes"
let m_read_sectors = Cffs_obs.Registry.counter "blockdev.read_sectors"
let m_write_sectors = Cffs_obs.Registry.counter "blockdev.write_sectors"
let m_io_errors = Cffs_obs.Registry.counter "blockdev.io_errors"
let m_host = Cffs_obs.Registry.fcounter "blockdev.host_s"

type outcome = Proceed | Torn of int | Fail of Io_error.cause
type injector = Io_error.op -> blk:int -> nblocks:int -> outcome
type write_observer = blk:int -> data:bytes -> torn:int option -> unit

type media =
  | Memory of { mutable clock : float; stats : Request.Stats.s }
  | Timed of { drive : Drive.t; host_overhead : float }

(* A request split at extent boundaries: its fragments fold into this
   record, which completes when the last one lands. *)
type parent = {
  p_tag : int;
  p_blk : int;
  p_n : int;
  p_data : bytes;  (* reads: assembly buffer; writes: empty *)
  mutable p_left : int;  (* fragments outstanding *)
  mutable p_err : Io_error.t option;  (* first fragment failure *)
}

(* What a spindle's tagged queue carries for one physical request: the
   logical request (or fragment of one) it serves. *)
type frag = {
  f_tag : int;
  f_lblk : int;  (* logical block of the fragment's first block *)
  f_data : bytes;  (* writes: the payload; reads: empty *)
  f_parent : parent option;  (* [None] for a request that was not split *)
}

(* One simulated spindle: the media with its contents and their
   out-of-band integrity tags (keyed by physical block), and the spindle's
   own tagged queue. *)
type spindle = {
  media : media;
  store : (int, bytes) Hashtbl.t;
  tags : (int, int) Hashtbl.t;
  queue : frag Ioqueue.t;
}

type extent = { lstart : int; xlen : int; xsub : int; pstart : int }

type cqe = {
  cq_tag : Ioqueue.tag;
  cq_op : Io_error.op;
  cq_blk : int;
  cq_nblocks : int;
  cq_result : (bytes, Io_error.t) result;
      (* [Ok data] for reads, [Ok Bytes.empty] for writes *)
}

(* A device is an array of spindles behind an extent table mapping the
   logical block space onto them.  A plain device is one spindle under
   the identity extent; a composite ([multi]) maps N spindles.  Every
   pipeline operation below is written once over spindles and extents.
   Spindles service their queues concurrently, so the device clock is the
   {e maximum} of the spindle clocks, and a dependent operation first
   syncs every spindle to it. *)
type t = {
  spindles : spindle array;
  subs : t array;  (* the one-spindle devices a composite was built from *)
  extents : extent array;  (* sorted by lstart; tiles [0, nblocks) *)
  sp_extents : extent array array;  (* per spindle, sorted by pstart *)
  block_size : int;
  nblocks : int;
  mutable next_tag : int;
  mutable completed : cqe list;  (* reverse completion order *)
  mutable injector : injector option;
  mutable write_observer : write_observer option;
  (* Out-of-band per-block integrity tags, the software analogue of
     T10-DIF / 520-byte-sector protection information: a tag travels with
     the block through the same request that persists it, so the pair is
     updated atomically and a torn request leaves the old tag in place —
     which is exactly what makes the tear detectable.  Maintained only
     when [tags_enabled]; the Integrity layer owns the at-rest encoding
     (the on-disk checksum region) and all verification. *)
  mutable tags_enabled : bool;
}

type image = {
  img_blocks : (int, bytes) Hashtbl.t;
  img_tags : (int, int) Hashtbl.t;
  img_tags_enabled : bool;
}

let sectors_per_block t = t.block_size / Cffs_util.Units.sector_size

let make ~block_size ~subs spindles extents =
  let by_pstart a b = compare a.pstart b.pstart in
  {
    spindles;
    subs;
    extents;
    sp_extents =
      Array.mapi
        (fun i _ ->
          let mine = List.filter (fun e -> e.xsub = i) (Array.to_list extents) in
          Array.of_list (List.sort by_pstart mine))
        spindles;
    block_size;
    nblocks = Array.fold_left (fun acc e -> acc + e.xlen) 0 extents;
    next_tag = 1;
    completed = [];
    injector = None;
    write_observer = None;
    tags_enabled = false;
  }

let one_spindle ?policy media ~block_size ~nblocks =
  let sp =
    {
      media;
      store = Hashtbl.create 4096;
      tags = Hashtbl.create 64;
      queue = Ioqueue.create ?policy ();
    }
  in
  make ~block_size ~subs:[||] [| sp |]
    [| { lstart = 0; xlen = nblocks; xsub = 0; pstart = 0 } |]

let of_drive ?(policy = Scheduler.Clook) ?(host_overhead = 0.5e-3) drive ~block_size =
  if block_size <= 0 || block_size mod Cffs_util.Units.sector_size <> 0 then
    invalid_arg "Blockdev.of_drive: block size";
  let nblocks = Drive.total_sectors drive * Cffs_util.Units.sector_size / block_size in
  one_spindle ~policy (Timed { drive; host_overhead }) ~block_size ~nblocks

let memory ~block_size ~nblocks =
  if block_size <= 0 || nblocks <= 0 then invalid_arg "Blockdev.memory";
  one_spindle
    (Memory { clock = 0.0; stats = Request.Stats.create () })
    ~block_size ~nblocks

let multi ~subs ~extents =
  if Array.length subs = 0 then invalid_arg "Blockdev.multi: no subdevices";
  let block_size = subs.(0).block_size in
  Array.iter
    (fun s ->
      if s.block_size <> block_size then
        invalid_arg "Blockdev.multi: subdevice block sizes differ";
      if Array.length s.subs > 0 then invalid_arg "Blockdev.multi: nested composite")
    subs;
  let exts =
    List.map (fun (lstart, xlen, xsub, pstart) -> { lstart; xlen; xsub; pstart })
      extents
    |> List.sort (fun a b -> compare a.lstart b.lstart)
  in
  let nblocks =
    List.fold_left
      (fun expect e ->
        if e.lstart <> expect || e.xlen <= 0 then
          invalid_arg "Blockdev.multi: extents must tile the logical space";
        if e.xsub < 0 || e.xsub >= Array.length subs then
          invalid_arg "Blockdev.multi: bad subdevice index";
        if e.pstart < 0 || e.pstart + e.xlen > subs.(e.xsub).nblocks then
          invalid_arg "Blockdev.multi: extent exceeds its subdevice";
        expect + e.xlen)
      0 exts
  in
  if nblocks = 0 then invalid_arg "Blockdev.multi: no extents";
  (* a composite drives its subdevices' own spindles, so their stats,
     queues and drives stay observable through [subdevices] *)
  let t =
    make ~block_size ~subs:(Array.copy subs)
      (Array.map (fun s -> s.spindles.(0)) subs)
      (Array.of_list exts)
  in
  Array.iter
    (fun a ->
      ignore
        (Array.fold_left
           (fun last e ->
             if e.pstart < last then
               invalid_arg "Blockdev.multi: overlapping extents on a subdevice";
             e.pstart + e.xlen)
           0 a))
    t.sp_extents;
  t

let block_size t = t.block_size
let nblocks t = t.nblocks
let set_injector t inj = t.injector <- inj
let set_write_observer t obs = t.write_observer <- obs
let subdevices t = Array.copy t.subs
let enable_tags t = t.tags_enabled <- true
let tags_enabled t = t.tags_enabled

(* --- extent mapping -------------------------------------------------------- *)

(* Index of the last extent of [a] whose [key] is at most [v] (0 when
   none is). *)
let search a key v =
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if key a.(mid) <= v then lo := mid else hi := mid - 1
  done;
  !lo

let lstart_of e = e.lstart
let pstart_of e = e.pstart

(* The extent holding logical block [blk].  Extents tile the logical
   space, so the search always lands. *)
let locate t blk = t.extents.(search t.extents lstart_of blk)

(* The logical block physical block [pblk] of spindle [si] holds, or -1
   when no extent maps it. *)
let lblk_of t si pblk =
  let a = t.sp_extents.(si) in
  if Array.length a = 0 then -1
  else
    let e = a.(search a pstart_of pblk) in
    if pblk >= e.pstart && pblk < e.pstart + e.xlen then e.lstart + (pblk - e.pstart)
    else -1

(* Call [f e lblk len] for each piece [lblk, lblk+len) of the logical
   range [blk, blk+n) that extent [e] holds, in logical order. *)
let iter_frags t blk n f =
  let stop = blk + n in
  let rec go i lblk =
    if lblk < stop then begin
      let e = t.extents.(i) in
      let len = Int.min (stop - lblk) (e.lstart + e.xlen - lblk) in
      f e lblk len;
      go (i + 1) (lblk + len)
    end
  in
  go (search t.extents lstart_of blk) blk

let slice data off len =
  if off = 0 && len = Bytes.length data then data else Bytes.sub data off len

let tag t blk =
  let e = locate t blk in
  Hashtbl.find_opt t.spindles.(e.xsub).tags (e.pstart + blk - e.lstart)

let set_tag t blk v =
  let e = locate t blk in
  Hashtbl.replace t.spindles.(e.xsub).tags (e.pstart + blk - e.lstart) v

let check_range t op blk n =
  if blk < 0 || n <= 0 || blk + n > t.nblocks then
    let spb = sectors_per_block t in
    Io_error.raise_error ~op ~blk ~nblocks:n
      ~range:
        {
          Io_error.start_sector = blk * spb;
          sector_count = n * spb;
          dev_sectors = t.nblocks * spb;
          dev_blocks = t.nblocks;
        }
      Io_error.Out_of_bounds

(* --- the fault and observer hooks, in logical space ------------------------ *)

(* Walk the logical runs the physical range [pblk, pblk+n) of spindle
   [si] covers, in physical order (a request coalesced on a spindle can
   span extents): [f off lblk len] gets each run's block offset into the
   range, logical start and length, and returns [Some r] to stop with
   [r]. *)
let find_run t si pblk n f =
  let a = t.sp_extents.(si) in
  let pend = pblk + n in
  let rec go i =
    if i >= Array.length a || a.(i).pstart >= pend then None
    else
      let e = a.(i) in
      let s = Int.max pblk e.pstart and stop = Int.min pend (e.pstart + e.xlen) in
      if s >= stop then go (i + 1)
      else
        match f (s - pblk) (e.lstart + s - e.pstart) (stop - s) with
        | None -> go (i + 1)
        | r -> r
  in
  go (search a pstart_of pblk)

(* The hooks see logical addresses whichever spindle serviced a request,
   one run at a time.  The injector's first non-[Proceed] outcome wins,
   with a torn sector count rebased to the physical request; the observer
   sees each run with its share of the payload and of a tear. *)
let consult t si op pblk n =
  match t.injector with
  | None -> Proceed
  | Some f -> (
      let spb = sectors_per_block t in
      match
        find_run t si pblk n (fun off lblk len ->
            match f op ~blk:lblk ~nblocks:len with
            | Proceed -> None
            | Torn k -> Some (Torn ((off * spb) + k))
            | Fail _ as o -> Some o)
      with
      | None -> Proceed
      | Some o -> o)

let notify t si pblk data torn =
  match t.write_observer with
  | None -> ()
  | Some f ->
      let bs = t.block_size and spb = sectors_per_block t in
      ignore
        (find_run t si pblk (Bytes.length data / bs) (fun off lblk len ->
             f ~blk:lblk
               ~data:(slice data (off * bs) (len * bs))
               ~torn:
                 (Option.map
                    (fun k -> Int.max 0 (Int.min (len * spb) (k - (off * spb))))
                    torn);
             None))

(* --- spindle media ---------------------------------------------------------- *)

let spindle_now sp =
  match sp.media with Memory m -> m.clock | Timed { drive; _ } -> Drive.now drive

let spindle_advance sp dt =
  match sp.media with
  | Memory m -> m.clock <- m.clock +. dt
  | Timed { drive; _ } -> Drive.advance drive dt

let spindle_stats sp =
  match sp.media with Memory m -> m.stats | Timed { drive; _ } -> Drive.stats drive

let geom_of sp =
  match sp.media with Memory _ -> None | Timed { drive; _ } -> Some (Drive.geometry drive)

let head_cyl sp =
  match sp.media with Memory _ -> 0 | Timed { drive; _ } -> Drive.current_cyl drive

(* The device clock: the latest spindle clock. *)
let now t =
  let best = ref t.spindles.(0) in
  for i = 1 to Array.length t.spindles - 1 do
    if spindle_now t.spindles.(i) > spindle_now !best then best := t.spindles.(i)
  done;
  spindle_now !best

(* A dependent operation is a barrier: every spindle reaches the device
   clock before new work is charged, so idle spindles account their idle
   time.  Drains then let each spindle advance independently —
   overlapping service is what produces near-linear scaling. *)
let sync t =
  let c = now t in
  for i = 0 to Array.length t.spindles - 1 do
    let sp = t.spindles.(i) in
    let d = c -. spindle_now sp in
    if d > 0.0 then spindle_advance sp d
  done

let copy_out t sp blk dst off =
  match Hashtbl.find_opt sp.store blk with
  | Some b -> Bytes.blit b 0 dst off t.block_size
  | None -> Bytes.fill dst off t.block_size '\000'

let store_block t sp blk src off =
  let b =
    match Hashtbl.find_opt sp.store blk with
    | Some b -> b
    | None ->
        let b = Bytes.create t.block_size in
        Hashtbl.replace sp.store blk b;
        b
  in
  Bytes.blit src off b 0 t.block_size

(* Persist a write request's payload at physical block [start] of spindle
   [sp], possibly torn: only the first [keep_sectors] 512-byte sectors
   reach the media, the rest of the range keeps its previous contents.
   Sectors are atomic — the assumption C-FFS builds its name+inode
   atomicity on.

   Tag discipline: a fully persisted block gets the CRC of its new
   contents; a torn block keeps its {e old} tag — the request died before
   the out-of-band tag could be updated — so unless the mixed contents
   happen to equal the previous contents, a later verified read flags the
   tear. *)
let persist t sp start data ~keep_sectors =
  let ss = Cffs_util.Units.sector_size in
  let spb = sectors_per_block t in
  let n = Bytes.length data / t.block_size in
  let keep =
    match keep_sectors with
    | None -> n * spb
    | Some k -> max 0 (min (n * spb) k)
  in
  let full = keep / spb in
  for i = 0 to full - 1 do
    store_block t sp (start + i) data (i * t.block_size);
    if t.tags_enabled then
      Hashtbl.replace sp.tags (start + i)
        (Cffs_util.Crc32.digest_sub data (i * t.block_size) t.block_size)
  done;
  let rem = keep mod spb in
  if rem > 0 then begin
    let old = Bytes.create t.block_size in
    copy_out t sp (start + full) old 0;
    Bytes.blit data (full * t.block_size) old 0 (rem * ss);
    store_block t sp (start + full) old 0
  end

let time_request sp (req : Request.t) =
  (match req.kind with
  | Read ->
      Cffs_obs.Registry.incr m_reads;
      Cffs_obs.Registry.incr ~by:req.sectors m_read_sectors
  | Write ->
      Cffs_obs.Registry.incr m_writes;
      Cffs_obs.Registry.incr ~by:req.sectors m_write_sectors);
  match sp.media with
  | Memory m -> (
      let s = m.stats in
      match req.kind with
      | Read ->
          s.reads <- s.reads + 1;
          s.read_sectors <- s.read_sectors + req.sectors
      | Write ->
          s.writes <- s.writes + 1;
          s.write_sectors <- s.write_sectors + req.sectors)
  | Timed { drive; host_overhead } ->
      Cffs_obs.Registry.fadd m_host host_overhead;
      Drive.advance drive host_overhead;
      ignore (Drive.service drive req)

let err op ~blk ~nblocks cause =
  { Io_error.op; blk; nblocks; cause; range = None }

let ok_empty = Ok Bytes.empty

(* One read request of [n] blocks at physical block [pblk] of spindle
   [si]: consult the fault injector, account the request (reads are timed
   even when they fail — the head still moved), then copy out.  A failure
   names the logical range [lblk, lblk+n). *)
let read_service t si pblk n ~lblk =
  let sp = t.spindles.(si) in
  let spb = sectors_per_block t in
  let outcome = consult t si Io_error.Read pblk n in
  time_request sp (Request.read ~lba:(pblk * spb) ~sectors:(n * spb));
  match outcome with
  | Proceed | Torn _ ->
      let out = Bytes.create (n * t.block_size) in
      for i = 0 to n - 1 do
        copy_out t sp (pblk + i) out (i * t.block_size)
      done;
      Ok out
  | Fail cause ->
      Cffs_obs.Registry.incr m_io_errors;
      Error (err Io_error.Read ~blk:lblk ~nblocks:n cause)

(* One write request: consult the fault injector, account the request, then
   persist.  A torn request persists its prefix and then fails with
   [Power_cut] — a tear is only ever caused by losing power mid-request, so
   nothing after it completes either.  The write observer sees every request
   that persisted anything (full or torn), with the full intended payload. *)
let write_service t si pblk data ~lblk =
  let sp = t.spindles.(si) in
  let n = Bytes.length data / t.block_size in
  let spb = sectors_per_block t in
  let outcome = consult t si Io_error.Write pblk n in
  (match outcome with
  | Fail Io_error.Power_cut -> ()
  | _ -> time_request sp (Request.write ~lba:(pblk * spb) ~sectors:(n * spb)));
  match outcome with
  | Proceed ->
      persist t sp pblk data ~keep_sectors:None;
      notify t si pblk data None;
      ok_empty
  | Torn k ->
      let keep = max 0 (min (n * spb) k) in
      persist t sp pblk data ~keep_sectors:(Some keep);
      notify t si pblk data (Some keep);
      Cffs_obs.Registry.incr m_io_errors;
      Error (err Io_error.Write ~blk:lblk ~nblocks:n Io_error.Power_cut)
  | Fail cause ->
      Cffs_obs.Registry.incr m_io_errors;
      Error (err Io_error.Write ~blk:lblk ~nblocks:n cause)

(* --- the tagged-queue pipeline ------------------------------------------- *)

let h_wait = Cffs_obs.Registry.histogram "ioqueue.wait_s"
let m_wait_total = Cffs_obs.Registry.fcounter "ioqueue.wait_total_s"

let set_queue t ?depth ?policy ?coalesce () =
  Array.iter
    (fun sp ->
      Option.iter (Ioqueue.set_depth sp.queue) depth;
      Option.iter (Ioqueue.set_policy sp.queue) policy;
      Option.iter (Ioqueue.set_coalesce sp.queue) coalesce)
    t.spindles

let queue_depth t = Ioqueue.depth t.spindles.(0).queue
let queue_policy t = Ioqueue.policy t.spindles.(0).queue
let queue_coalesce t = Ioqueue.coalesce t.spindles.(0).queue

let pending t =
  Array.fold_left (fun acc sp -> acc + Ioqueue.pending sp.queue) 0 t.spindles

let enqueue t op e lblk len data parent tag =
  let sp = t.spindles.(e.xsub) in
  let spb = sectors_per_block t in
  let lba = (e.pstart + lblk - e.lstart) * spb and sectors = len * spb in
  let req =
    match op with
    | Io_error.Read -> Request.read ~lba ~sectors
    | Io_error.Write -> Request.write ~lba ~sectors
  in
  ignore
    (Ioqueue.submit sp.queue req
       { f_tag = tag; f_lblk = lblk; f_data = data; f_parent = parent }
       ~now:(spindle_now sp))

(* Submit one logical request, split at extent boundaries into one
   fragment per piece.  Spindle clocks are synced first so queue-wait
   accounting starts from the device clock. *)
let submit t op blk n data =
  check_range t op blk n;
  sync t;
  let tag = t.next_tag in
  t.next_tag <- tag + 1;
  let e = locate t blk in
  if blk + n <= e.lstart + e.xlen then enqueue t op e blk n data None tag
  else begin
    let p =
      {
        p_tag = tag;
        p_blk = blk;
        p_n = n;
        p_data =
          (match op with
          | Io_error.Read -> Bytes.create (n * t.block_size)
          | Io_error.Write -> Bytes.empty);
        p_left = 0;
        p_err = None;
      }
    in
    let parent = Some p in
    iter_frags t blk n (fun e lblk len ->
        p.p_left <- p.p_left + 1;
        let part =
          match op with
          | Io_error.Read -> Bytes.empty
          | Io_error.Write ->
              slice data ((lblk - blk) * t.block_size) (len * t.block_size)
        in
        enqueue t op e lblk len part parent tag)
  end;
  tag

let submit_read t blk n = submit t Io_error.Read blk n Bytes.empty

let submit_write t blk data =
  let len = Bytes.length data in
  if len = 0 || len mod t.block_size <> 0 then
    invalid_arg "Blockdev.submit_write: partial block";
  submit t Io_error.Write blk (len / t.block_size) data

let item_op (it : frag Ioqueue.item) =
  match it.req.Request.kind with
  | Request.Read -> Io_error.Read
  | Request.Write -> Io_error.Write

let item_blocks t (it : frag Ioqueue.item) =
  it.req.Request.sectors / sectors_per_block t

let push t (it : frag Ioqueue.item) tag blk n result =
  t.completed <-
    { cq_tag = tag; cq_op = item_op it; cq_blk = blk; cq_nblocks = n; cq_result = result }
    :: t.completed

(* Deliver one serviced fragment: an unsplit request completes at once; a
   fragment folds into its parent, which completes with its last one. *)
let complete t (it : frag Ioqueue.item) result =
  let q = it.payload in
  match q.f_parent with
  | None -> push t it q.f_tag q.f_lblk (item_blocks t it) result
  | Some p ->
      (match result with
      | Ok data ->
          if Bytes.length p.p_data > 0 then
            Bytes.blit data 0 p.p_data ((q.f_lblk - p.p_blk) * t.block_size)
              (Bytes.length data)
      | Error e -> if p.p_err = None then p.p_err <- Some e);
      p.p_left <- p.p_left - 1;
      if p.p_left = 0 then
        push t it p.p_tag p.p_blk p.p_n
          (match p.p_err with Some e -> Error e | None -> Ok p.p_data)

(* What servicing a dispatch group means for the rest of the spindle's
   queue: carry on, stop because the device lost power, or stop because
   a request of the batch [lo, hi] being issued failed. *)
type verdict = Go | Cut | Failed of Io_error.t

let finish t ~lo ~hi verdict (it : frag Ioqueue.item) result =
  complete t it result;
  let tag = it.payload.f_tag in
  match (result, verdict) with
  | Ok _, _ | Error _, Failed _ -> verdict
  | Error e, _ when tag >= lo && tag <= hi -> Failed e
  | Error e, Go when e.Io_error.cause = Io_error.Power_cut -> Cut
  | Error _, _ -> verdict

let service_one t si ~lo ~hi verdict (it : frag Ioqueue.item) =
  let pblk = it.req.Request.lba / sectors_per_block t and q = it.payload in
  finish t ~lo ~hi verdict it
    (match it.req.Request.kind with
    | Request.Read -> read_service t si pblk (item_blocks t it) ~lblk:q.f_lblk
    | Request.Write -> write_service t si pblk q.f_data ~lblk:q.f_lblk)

(* A coalesced group as a single contiguous request.  When the merged
   request fails with a retryable cause, fall back to servicing the
   members individually so only the member actually covering the fault
   fails — the isolation the tagged queue promises.  Each member's
   failure names its own logical range. *)
let service_merged t si ~lo ~hi (first : frag Ioqueue.item) group =
  (* contiguous ascending by construction *)
  let spb = sectors_per_block t and bs = t.block_size in
  let start = first.req.Request.lba / spb in
  let total = List.fold_left (fun acc it -> acc + item_blocks t it) 0 group in
  let off (it : frag Ioqueue.item) = ((it.req.Request.lba / spb) - start) * bs in
  let each f = List.fold_left (fun v it -> finish t ~lo ~hi v it (f it)) Go group in
  let merged =
    match first.req.Request.kind with
    | Request.Read -> read_service t si start total ~lblk:first.payload.f_lblk
    | Request.Write ->
        let data = Bytes.create (total * bs) in
        List.iter
          (fun (it : frag Ioqueue.item) ->
            let d = it.payload.f_data in
            Bytes.blit d 0 data (off it) (Bytes.length d))
          group;
        write_service t si start data ~lblk:first.payload.f_lblk
  in
  match merged with
  | Ok data when first.req.Request.kind = Request.Read ->
      each (fun it -> Ok (Bytes.sub data (off it) (item_blocks t it * bs)))
  | Ok _ -> each (fun _ -> ok_empty)
  | Error e when e.Io_error.cause = Io_error.Power_cut ->
      (* torn or cut mid-request: the merged request died as one *)
      each (fun (it : frag Ioqueue.item) ->
          Error { e with Io_error.blk = it.payload.f_lblk; nblocks = item_blocks t it })
  | Error _ -> List.fold_left (service_one t si ~lo ~hi) Go group

let rec account_waits now = function
  | [] -> ()
  | (it : frag Ioqueue.item) :: rest ->
      let wait = now -. it.Ioqueue.submitted_at in
      Cffs_obs.Registry.observe h_wait wait;
      Cffs_obs.Registry.fadd m_wait_total wait;
      account_waits now rest

let service_group t si ~lo ~hi (group : frag Ioqueue.item list) =
  account_waits (spindle_now t.spindles.(si)) group;
  match group with
  | [] -> Go
  | [ it ] -> service_one t si ~lo ~hi Go it
  | first :: _ -> service_merged t si ~lo ~hi first group

(* Every request still queued on spindle [si] fails its waiter without
   touching the media or the clock — and without counting as a device
   error, since the device never saw it. *)
let fail_pending t si cause =
  List.iter
    (fun (it : frag Ioqueue.item) ->
      complete t it
        (Error
           (err (item_op it) ~blk:it.payload.f_lblk ~nblocks:(item_blocks t it)
              cause)))
    (Ioqueue.clear t.spindles.(si).queue)

(* [run] arguments for "every tag" and for "no batch being issued". *)
let any_tag = 0
let no_lo = 1
let no_hi = 0

let holds sp tag =
  Ioqueue.exists sp.queue (fun (it : frag Ioqueue.item) -> it.payload.f_tag = tag)

(* Service spindle [si]'s queue one dispatch group at a time — only while
   it still holds a fragment of [tag], unless [tag] is [any_tag].  A power
   cut, or a failure of one of the batch tags [lo, hi], stops the spindle:
   the rest of its queue fails with [Power_cut].  Returns the batch
   failure, if any.

   The head-position convention: the cylinder used for the next pick is
   the cylinder of the previous dispatch's first lba (the drive's resting
   position at the start of the run for the first pick). *)
let run t si ~tag ~lo ~hi =
  let sp = t.spindles.(si) in
  let geom = geom_of sp in
  let cyl = ref (head_cyl sp) in
  let failed = ref None and go = ref true in
  while !go && (tag = any_tag || holds sp tag) do
    match Ioqueue.take sp.queue ~geom ~current_cyl:!cyl with
    | None -> go := false
    | Some group -> (
        (match (geom, group) with
        | Some g, (it : frag Ioqueue.item) :: _ ->
            cyl := Geometry.cyl_of_lba g it.req.Request.lba
        | _ -> ());
        match service_group t si ~lo ~hi group with
        | Go -> ()
        | Cut ->
            fail_pending t si Io_error.Power_cut;
            go := false
        | Failed e ->
            fail_pending t si Io_error.Power_cut;
            failed := Some e;
            go := false)
  done;
  !failed

let drain t =
  sync t;
  for si = 0 to Array.length t.spindles - 1 do
    ignore (run t si ~tag:any_tag ~lo:no_lo ~hi:no_hi)
  done;
  let out = List.rev t.completed in
  t.completed <- [];
  out

let rec take_completed t tag before = function
  | [] -> None
  | c :: rest when c.cq_tag = tag ->
      t.completed <- List.rev_append before rest;
      Some c
  | c :: rest -> take_completed t tag (c :: before) rest

(* Drain only the spindles holding [tag], each only until its share of
   [tag] is serviced, leaving other pending requests queued and other
   completions for a later [drain]. *)
let drain_tag t tag =
  match take_completed t tag [] t.completed with
  | Some c -> c
  | None -> (
      sync t;
      for si = 0 to Array.length t.spindles - 1 do
        ignore (run t si ~tag ~lo:no_lo ~hi:no_hi)
      done;
      match take_completed t tag [] t.completed with
      | Some c -> c
      | None -> invalid_arg "Blockdev.drain_tag: unknown tag")

let reset_queue t =
  let n = pending t in
  for si = 0 to Array.length t.spindles - 1 do
    fail_pending t si Io_error.Power_cut
  done;
  n

(* Issue a set of contiguous units, each submitted as one tagged write
   before any spindle drains, so spindles service their shares
   concurrently under the mount's scheduling policy.  Each request
   persists (and notifies the write observer) as it is serviced.  On each
   spindle the first failed unit stops the rest of that spindle's share,
   whose waiters fail with [Power_cut] — so a failure mid-batch leaves
   exactly the already-serviced prefix on that spindle's media, the crash
   semantics the fault harness depends on.  The error raised is the first
   real fault. *)
let issue_units t units =
  if units <> [] then begin
    List.iter
      (fun (start, blocks) ->
        check_range t Io_error.Write start (List.length blocks))
      units;
    let lo = t.next_tag in
    List.iter
      (fun (start, blocks) ->
        let n = List.length blocks in
        let data = Bytes.create (n * t.block_size) in
        List.iteri
          (fun i b -> Bytes.blit b 0 data (i * t.block_size) t.block_size)
          blocks;
        ignore (submit t Io_error.Write start n data))
      units;
    let hi = t.next_tag - 1 in
    sync t;
    let failed = ref None in
    for si = 0 to Array.length t.spindles - 1 do
      match run t si ~tag:any_tag ~lo ~hi with
      | Some e when !failed = None -> failed := Some e
      | _ -> ()
    done;
    (* strip our completions; foreign async completions stay for their
       own [drain] *)
    let ours, others =
      List.partition (fun c -> c.cq_tag >= lo && c.cq_tag <= hi) (List.rev t.completed)
    in
    t.completed <- List.rev others;
    Option.iter (fun e -> raise (Io_error.E e)) !failed;
    List.iter
      (fun c -> match c.cq_result with Error e -> raise (Io_error.E e) | Ok _ -> ())
      ours
  end

let read t blk n =
  let tag = submit_read t blk n in
  match (drain_tag t tag).cq_result with
  | Ok data -> data
  | Error e -> raise (Io_error.E e)

let write t blk data =
  let len = Bytes.length data in
  if len mod t.block_size <> 0 then invalid_arg "Blockdev.write: partial block";
  check_range t Io_error.Write blk (len / t.block_size);
  let tag = submit_write t blk data in
  match (drain_tag t tag).cq_result with
  | Ok _ -> ()
  | Error e -> raise (Io_error.E e)

let check_one_block t (blk, data) =
  if Bytes.length data <> t.block_size then
    invalid_arg "Blockdev.write_batch: data must be one block";
  check_range t Io_error.Write blk 1

let write_batch t blocks =
  List.iter (check_one_block t) blocks;
  issue_units t (List.map (fun (blk, data) -> (blk, [ data ])) blocks)

let write_batch_units t units =
  List.iter
    (fun (start, blocks) ->
      List.iteri (fun i data -> check_one_block t (start + i, data)) blocks)
    units;
  issue_units t units

(* --- raw contents, in logical space ----------------------------------------- *)

let store_raw t blk data ~keep_sectors =
  let len = Bytes.length data in
  if len mod t.block_size <> 0 then invalid_arg "Blockdev.store_raw: partial block";
  let n = len / t.block_size in
  check_range t Io_error.Write blk n;
  let spb = sectors_per_block t and bs = t.block_size in
  iter_frags t blk n (fun e lblk flen ->
      let off = lblk - blk in
      persist t t.spindles.(e.xsub) (e.pstart + lblk - e.lstart)
        (slice data (off * bs) (flen * bs))
        ~keep_sectors:
          (Option.map
             (fun k -> Int.max 0 (Int.min (flen * spb) (k - (off * spb))))
             keep_sectors))

(* Think time passes for every spindle: sync to the device clock, then
   move the whole array forward together. *)
let advance t dt =
  sync t;
  for i = 0 to Array.length t.spindles - 1 do
    spindle_advance t.spindles.(i) dt
  done

let stats t =
  let open Request.Stats in
  let acc = create () in
  Array.iter
    (fun sp ->
      let s = spindle_stats sp in
      acc.reads <- acc.reads + s.reads;
      acc.writes <- acc.writes + s.writes;
      acc.read_sectors <- acc.read_sectors + s.read_sectors;
      acc.write_sectors <- acc.write_sectors + s.write_sectors;
      acc.cache_hits <- acc.cache_hits + s.cache_hits;
      acc.busy_time <- acc.busy_time +. s.busy_time;
      acc.seek_time <- acc.seek_time +. s.seek_time;
      acc.rotation_time <- acc.rotation_time +. s.rotation_time;
      acc.transfer_time <- acc.transfer_time +. s.transfer_time;
      acc.overhead_time <- acc.overhead_time +. s.overhead_time;
      acc.cachehit_time <- acc.cachehit_time +. s.cachehit_time)
    t.spindles;
  acc

let drive t =
  match t.spindles.(0).media with Memory _ -> None | Timed { drive; _ } -> Some drive

let flush_device_cache t =
  Array.iter
    (fun sp ->
      match sp.media with Memory _ -> () | Timed { drive; _ } -> Drive.flush_cache drive)
    t.spindles

(* Call [f lblk v] for each entry of every spindle's table [tbl], keyed by
   its logical block (physical blocks no extent maps are skipped). *)
let iter_logical t tbl f =
  Array.iteri
    (fun si sp ->
      Hashtbl.iter
        (fun pblk v ->
          let lblk = lblk_of t si pblk in
          if lblk >= 0 then f lblk v)
        (tbl sp))
    t.spindles

let snapshot t =
  let size = Array.fold_left (fun acc sp -> acc + Hashtbl.length sp.store) 0 t.spindles in
  let blocks = Hashtbl.create size and tags = Hashtbl.create 64 in
  iter_logical t (fun sp -> sp.store) (fun l b -> Hashtbl.replace blocks l (Bytes.copy b));
  iter_logical t (fun sp -> sp.tags) (Hashtbl.replace tags);
  { img_blocks = blocks; img_tags = tags; img_tags_enabled = t.tags_enabled }

let restore t img =
  Array.iter
    (fun sp ->
      Hashtbl.reset sp.store;
      Hashtbl.reset sp.tags)
    t.spindles;
  let place tbl blk v =
    if blk < t.nblocks then
      let e = locate t blk in
      Hashtbl.replace (tbl t.spindles.(e.xsub)) (e.pstart + blk - e.lstart) v
  in
  Hashtbl.iter (fun blk b -> place (fun sp -> sp.store) blk (Bytes.copy b)) img.img_blocks;
  Hashtbl.iter (place (fun sp -> sp.tags)) img.img_tags;
  t.tags_enabled <- t.tags_enabled || img.img_tags_enabled

let blocks_written img = Hashtbl.length img.img_blocks

let write_torn t blk data ~keep_sectors =
  check_range t Io_error.Write blk 1;
  if Bytes.length data <> t.block_size then invalid_arg "Blockdev.write_torn";
  let e = locate t blk in
  persist t t.spindles.(e.xsub) (e.pstart + blk - e.lstart) data
    ~keep_sectors:(Some keep_sectors)

let corrupt_block t blk prng =
  check_range t Io_error.Write blk 1;
  let e = locate t blk in
  Hashtbl.replace t.spindles.(e.xsub).store (e.pstart + blk - e.lstart)
    (Cffs_util.Prng.bytes prng t.block_size)

let save_file t path =
  let oc = open_out_bin path in
  (try
     (* Fix the file's extent first so unwritten tails stay sparse. *)
     seek_out oc ((t.nblocks * t.block_size) - 1);
     output_char oc '\000';
     iter_logical t
       (fun sp -> sp.store)
       (fun blk data ->
         seek_out oc (blk * t.block_size);
         output_bytes oc data);
     close_out oc
   with e ->
     close_out_noerr oc;
     raise e)

let load_file ?(block_size = 4096) path =
  let ic = open_in_bin path in
  let t =
    try
      let len = in_channel_length ic in
      if len = 0 || len mod block_size <> 0 then
        invalid_arg "Blockdev.load_file: image size is not a block multiple";
      let nblocks = len / block_size in
      let t = memory ~block_size ~nblocks in
      let buf = Bytes.create block_size in
      let zero = Bytes.make block_size '\000' in
      for blk = 0 to nblocks - 1 do
        really_input ic buf 0 block_size;
        if not (Bytes.equal buf zero) then store_raw t blk buf ~keep_sectors:None
      done;
      t
    with e ->
      close_in_noerr ic;
      raise e
  in
  close_in ic;
  t
