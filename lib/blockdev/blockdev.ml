open Cffs_disk
module Io_error = Cffs_util.Io_error
module Int_tbl = Cffs_util.Keys.Int_tbl

(* Uniform request accounting for both media; a timed spindle's drive
   additionally keeps its own (timed) [Request.Stats]. *)
let m_reads = Cffs_obs.Registry.counter "blockdev.reads"
let m_writes = Cffs_obs.Registry.counter "blockdev.writes"
let m_read_sectors = Cffs_obs.Registry.counter "blockdev.read_sectors"
let m_write_sectors = Cffs_obs.Registry.counter "blockdev.write_sectors"
let m_io_errors = Cffs_obs.Registry.counter "blockdev.io_errors"
let m_host = Cffs_obs.Registry.fcell (Cffs_obs.Registry.fcounter "blockdev.host_s")

type outcome = Proceed | Torn of int | Fail of Io_error.cause
type injector = Io_error.op -> blk:int -> nblocks:int -> outcome
type write_observer = blk:int -> data:bytes -> torn:int option -> unit

type media =
  | Memory of { stats : Request.Stats.s }
  | Timed of { drive : Drive.t; host_overhead : float }

(* The pipeline carries data as one buffer per block, never as one
   contiguous buffer.  A read copies nothing: each block it yields is a
   view — the store slot holding the block, or the device's zero slot
   for a block never written — that travels by pointer through coalesced
   groups, fragments and completions.  A write's block buffers travel
   the same way to [persist], which makes the one copy into the store.
   The owning entry points ([read], [drain]) copy each view once at the
   edge and release it; they, [write], [submit_write] and the write
   observer split or concatenate there too. *)
let no_blocks : bytes array = [||]

(* One written block of a spindle's store: its buffer and the number of
   views of the slot handed out and not yet released.  A slot is its own
   view, so counting allocates nothing per read and ending a view needs
   no lookup.  A write changes [buf] in place only while no view is
   outstanding; otherwise it installs a fresh slot for the block (see
   [writable]), and the old slot, left to its views, never changes
   again. *)
type slot = { buf : bytes; mutable views : int }
type view = slot

let no_view = { buf = Bytes.empty; views = 0 }
let no_views : view array = [||]
let ok_empty = Ok no_views

(* Who takes a request's result: a synchronous caller, from the
   device's mailbox ([sync_tag], [sync_result]); an asynchronous
   submitter, as a completion from [drain]; or [issue_units], which
   needs only the batch's first failure ([batch_err]). *)
type waiter = Sync | Async | Batch

(* A request split at extent boundaries: its fragments fold into this
   record, which completes when the last one lands. *)
type parent = {
  p_tag : int;
  p_blk : int;
  p_n : int;
  p_views : view array;  (* reads: filled in by the fragments; writes: empty *)
  p_wait : waiter;
  mutable p_left : int;  (* fragments outstanding *)
  mutable p_err : Io_error.t option;  (* first fragment failure *)
}

let no_parent =
  { p_tag = 0; p_blk = 0; p_n = 0; p_views = no_views; p_wait = Async; p_left = 0; p_err = None }

(* What a spindle's tagged queue carries for one physical request: the
   logical request (or fragment of one) it serves.  It is the payload of
   a queue record ({!Ioqueue.item}), built once with the record and
   rewritten each time the spindle reuses it, from [submit] until the
   result reaches its waiter ([complete]). *)
type frag = {
  mutable f_tag : int;
  mutable f_lblk : int;  (* logical block of the fragment's first block *)
  mutable f_data : bytes array;  (* writes: the payload's blocks; reads: empty *)
  mutable f_parent : parent;  (* [no_parent] for a request that was not split *)
  mutable f_wait : waiter;  (* who takes an unsplit request's result *)
  one : bytes array;  (* [f_data] of a one-block write *)
}

let new_frag () =
  {
    f_tag = 0;
    f_lblk = 0;
    f_data = no_blocks;
    f_parent = no_parent;
    f_wait = Async;
    one = [| Bytes.empty |];
  }

(* One simulated spindle: the media with its contents and their
   out-of-band integrity tags (keyed by physical block), and the spindle's
   own tagged queue.  [clock] is the media's clock, the drive's own cell
   for a timed spindle: read and advanced in place, so the per-request
   path never boxes a time. *)
type spindle = {
  media : media;
  clock : Cffs_obs.Registry.cell;
  wait : Cffs_obs.Registry.cell;  (* a dispatch's queue wait, for [h_wait] *)
  geom : Geometry.t option;  (* [None] for memory: queues order by lba *)
  store : slot Int_tbl.t;  (* owned by the store: written by copy, read by view *)
  tags : int Int_tbl.t;
  queue : frag Ioqueue.t;
  merged : Request.t;  (* a coalesced dispatch, as one request *)
}

type extent = { lstart : int; xlen : int; xsub : int; pstart : int }

type 'a completion = {
  cq_tag : Ioqueue.tag;
  cq_op : Io_error.op;
  cq_blk : int;
  cq_nblocks : int;
  cq_result : ('a, Io_error.t) result;
}

type cqe = bytes completion

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
  zero : slot;  (* the view of every never-written block; never written *)
  mutable next_tag : int;
  mutable completed : view array completion list;  (* reverse completion order *)
  mutable sync_tag : int;  (* the last synchronous request completed, and its result *)
  mutable sync_result : (view array, Io_error.t) result;
  mutable batch_err : Io_error.t option;  (* the first failure of [issue_units]'s batch *)
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
  img_blocks : bytes Int_tbl.t;
  img_tags : int Int_tbl.t;
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
    zero = { buf = Bytes.make block_size '\000'; views = 0 };
    next_tag = 1;
    completed = [];
    sync_tag = 0;
    sync_result = ok_empty;
    batch_err = None;
    injector = None;
    write_observer = None;
    tags_enabled = false;
  }

let one_spindle ?policy media ~block_size ~nblocks =
  let sp =
    {
      media;
      clock =
        (match media with
        | Memory _ -> { Cffs_obs.Registry.v = 0.0 }
        | Timed { drive; _ } -> Drive.clock drive);
      wait = { Cffs_obs.Registry.v = 0.0 };
      geom =
        (match media with
        | Memory _ -> None
        | Timed { drive; _ } -> Some (Drive.geometry drive));
      store = Int_tbl.create 4096;
      tags = Int_tbl.create 64;
      queue = Ioqueue.create ?policy ();
      merged = Request.read ~lba:0 ~sectors:1;
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
    (Memory { stats = Request.Stats.create () })
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

(* The edge adapters between contiguous data and the per-block
   pipeline.  [concat] builds the contiguous form of [len] blocks from
   [off]; a single block is passed as it is.  [split] cuts a contiguous
   payload into fresh per-block buffers; a single block is passed as it
   is, aliased for as long as its request is in flight. *)
let concat t blocks off len =
  if len = 1 then blocks.(off)
  else begin
    let bs = t.block_size in
    let out = Bytes.create (len * bs) in
    for i = 0 to len - 1 do
      Bytes.blit blocks.(off + i) 0 out (i * bs) bs
    done;
    out
  end

let split t data =
  let bs = t.block_size in
  let n = Bytes.length data / bs in
  if n = 1 then [| data |] else Array.init n (fun i -> Bytes.sub data (i * bs) bs)

let tag t blk =
  let e = locate t blk in
  Int_tbl.find_opt t.spindles.(e.xsub).tags (e.pstart + blk - e.lstart)

let set_tag t blk v =
  let e = locate t blk in
  Int_tbl.replace t.spindles.(e.xsub).tags (e.pstart + blk - e.lstart) v

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

(* The hooks see logical addresses whichever spindle serviced a request,
   one run at a time: the runs extents [i ..] of a spindle ([a], sorted
   by physical start) cover in the physical range [pblk, pend), in
   physical order (a request coalesced on a spindle can span extents).
   Both walks are top-level loops with explicit arguments, so a request
   builds no closure while a hook is installed.

   The injector's first non-[Proceed] outcome wins, with a torn sector
   count rebased to the physical request. *)
let rec consult_from t f op a pblk pend i =
  if i >= Array.length a || a.(i).pstart >= pend then Proceed
  else begin
    let e = a.(i) in
    let s = Int.max pblk e.pstart and stop = Int.min pend (e.pstart + e.xlen) in
    if s >= stop then consult_from t f op a pblk pend (i + 1)
    else
      match f op ~blk:(e.lstart + s - e.pstart) ~nblocks:(stop - s) with
      | Proceed -> consult_from t f op a pblk pend (i + 1)
      | Torn k -> Torn (((s - pblk) * sectors_per_block t) + k)
      | Fail _ as o -> o
  end

let consult t si op pblk n =
  match t.injector with
  | None -> Proceed
  | Some f ->
      let a = t.sp_extents.(si) in
      consult_from t f op a pblk (pblk + n) (search a pstart_of pblk)

(* The observer sees each run with its share of the payload, contiguous,
   and of a tear. *)
let rec notify_from t f a pblk pend blocks torn i =
  if i < Array.length a && a.(i).pstart < pend then begin
    let e = a.(i) in
    let s = Int.max pblk e.pstart and stop = Int.min pend (e.pstart + e.xlen) in
    if s < stop then begin
      let off = s - pblk and len = stop - s and spb = sectors_per_block t in
      f ~blk:(e.lstart + s - e.pstart) ~data:(concat t blocks off len)
        ~torn:
          (match torn with
          | None -> None
          | Some k -> Some (Int.max 0 (Int.min (len * spb) (k - (off * spb)))))
    end;
    notify_from t f a pblk pend blocks torn (i + 1)
  end

let notify t si pblk blocks torn =
  match t.write_observer with
  | None -> ()
  | Some f ->
      let a = t.sp_extents.(si) in
      notify_from t f a pblk (pblk + Array.length blocks) blocks torn (search a pstart_of pblk)

(* --- spindle media ---------------------------------------------------------- *)

let spindle_stats sp =
  match sp.media with Memory m -> m.stats | Timed { drive; _ } -> Drive.stats drive

let head_cyl sp =
  match sp.media with Memory _ -> 0 | Timed { drive; _ } -> Drive.current_cyl drive

(* The spindle with the latest clock, whose clock is the device clock. *)
let latest t =
  let best = ref t.spindles.(0) in
  for i = 1 to Array.length t.spindles - 1 do
    if t.spindles.(i).clock.v > !best.clock.v then best := t.spindles.(i)
  done;
  !best

let now t = (latest t).clock.v

(* A dependent operation is a barrier: every spindle reaches the device
   clock before new work is charged, so idle spindles account their idle
   time.  Drains then let each spindle advance independently —
   overlapping service is what produces near-linear scaling. *)
let sync t =
  let c = (latest t).clock in
  for i = 0 to Array.length t.spindles - 1 do
    let sp = t.spindles.(i) in
    let d = c.v -. sp.clock.v in
    if d > 0.0 then sp.clock.v <- sp.clock.v +. d
  done

(* A view of physical block [blk]: its slot, counted, or the zero slot
   if the block was never written.  This is all a read does to the
   store. *)
let view_out t sp blk =
  match Int_tbl.find sp.store blk with
  | s ->
      s.views <- s.views + 1;
      s
  | exception Not_found -> t.zero

(* The buffer a write into physical block [blk] may change in place:
   the slot's own while no view of it is outstanding, and otherwise the
   buffer of a fresh slot installed for the block (so outstanding views
   never change) — as for a never-written block.  With [keep_old] (a
   torn write keeps part of the block) a fresh buffer starts as the old
   contents, zeros for a never-written block; without, the caller
   overwrites all of it. *)
let fresh_slot t sp blk old ~keep_old =
  let b = if keep_old then Bytes.copy old.buf else Bytes.create t.block_size in
  Int_tbl.replace sp.store blk { buf = b; views = 0 };
  b

let writable t sp blk ~keep_old =
  match Int_tbl.find sp.store blk with
  | s when s.views = 0 -> s.buf
  | s -> fresh_slot t sp blk s ~keep_old
  | exception Not_found -> fresh_slot t sp blk t.zero ~keep_old

(* Persist a write request's blocks at physical block [start] of spindle
   [sp], possibly torn: only the first [keep_sectors] 512-byte sectors
   reach the media, the rest of the range keeps its previous contents.
   Sectors are atomic — the assumption C-FFS builds its name+inode
   atomicity on.  Each surviving sector is copied once, into the slot's
   buffer when no view of it is outstanding and into a fresh buffer
   otherwise; the store never keeps a caller's buffer.

   Tag discipline: a fully persisted block gets the CRC of its new
   contents; a torn block keeps its {e old} tag — the request died before
   the out-of-band tag could be updated — so unless the mixed contents
   happen to equal the previous contents, a later verified read flags the
   tear. *)
let persist t sp start blocks ~keep_sectors =
  let bs = t.block_size and spb = sectors_per_block t in
  let n = Array.length blocks in
  let keep =
    match keep_sectors with
    | None -> n * spb
    | Some k -> max 0 (min (n * spb) k)
  in
  let full = keep / spb in
  for i = 0 to full - 1 do
    let src = blocks.(i) in
    Bytes.blit src 0 (writable t sp (start + i) ~keep_old:false) 0 bs;
    if t.tags_enabled then
      Int_tbl.replace sp.tags (start + i) (Cffs_util.Crc32.digest_sub src 0 bs)
  done;
  let rem = keep mod spb in
  if rem > 0 then
    Bytes.blit blocks.(full) 0
      (writable t sp (start + full) ~keep_old:true)
      0
      (rem * Cffs_util.Units.sector_size)

let time_request sp (req : Request.t) =
  (match req.kind with
  | Read ->
      Cffs_obs.Registry.incr m_reads;
      Cffs_obs.Registry.add m_read_sectors req.sectors
  | Write ->
      Cffs_obs.Registry.incr m_writes;
      Cffs_obs.Registry.add m_write_sectors req.sectors);
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
      m_host.v <- m_host.v +. host_overhead;
      sp.clock.v <- sp.clock.v +. host_overhead;
      Drive.serve drive req

let err op ~blk ~nblocks cause =
  { Io_error.op; blk; nblocks; cause; range = None }

(* One read request [req] (a whole number of blocks) on spindle [si]:
   consult the fault injector, account the request (reads are timed even
   when they fail — the head still moved), then hand out a view of each
   block.  A failure names the logical range [lblk, lblk+n). *)
let read_service t si (req : Request.t) ~lblk =
  let sp = t.spindles.(si) in
  let spb = sectors_per_block t in
  let pblk = req.lba / spb and n = req.sectors / spb in
  let outcome = consult t si Io_error.Read pblk n in
  time_request sp req;
  match outcome with
  | Proceed | Torn _ ->
      let views = Array.make n t.zero in
      for i = 0 to n - 1 do
        views.(i) <- view_out t sp (pblk + i)
      done;
      Ok views
  | Fail cause ->
      Cffs_obs.Registry.incr m_io_errors;
      Error (err Io_error.Read ~blk:lblk ~nblocks:n cause)

(* One write request: consult the fault injector, account the request, then
   persist.  A torn request persists its prefix and then fails with
   [Power_cut] — a tear is only ever caused by losing power mid-request, so
   nothing after it completes either.  The write observer sees every request
   that persisted anything (full or torn), with the full intended payload. *)
let write_service t si (req : Request.t) blocks ~lblk =
  let sp = t.spindles.(si) in
  let n = Array.length blocks in
  let spb = sectors_per_block t in
  let pblk = req.lba / spb in
  let outcome = consult t si Io_error.Write pblk n in
  (match outcome with
  | Fail Io_error.Power_cut -> ()
  | _ -> time_request sp req);
  match outcome with
  | Proceed ->
      persist t sp pblk blocks ~keep_sectors:None;
      notify t si pblk blocks None;
      ok_empty
  | Torn k ->
      let keep = max 0 (min (n * spb) k) in
      persist t sp pblk blocks ~keep_sectors:(Some keep);
      notify t si pblk blocks (Some keep);
      Cffs_obs.Registry.incr m_io_errors;
      Error (err Io_error.Write ~blk:lblk ~nblocks:n Io_error.Power_cut)
  | Fail cause ->
      Cffs_obs.Registry.incr m_io_errors;
      Error (err Io_error.Write ~blk:lblk ~nblocks:n cause)

(* --- the tagged-queue pipeline ------------------------------------------- *)

let h_wait = Cffs_obs.Registry.histogram "ioqueue.wait_s"
let m_wait_total = Cffs_obs.Registry.fcell (Cffs_obs.Registry.fcounter "ioqueue.wait_total_s")

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

let kind_of = function Io_error.Read -> Request.Read | Io_error.Write -> Request.Write

(* Queue one fragment on extent [e]'s spindle, in a record from the
   spindle's free list.  A one-block write passes its block as [single]
   (and no [data]), which the record holds in its own array. *)
let enqueue t op wait e lblk len data single parent tag =
  let sp = t.spindles.(e.xsub) in
  let spb = sectors_per_block t in
  let it = Ioqueue.acquire sp.queue new_frag in
  let q = it.payload in
  q.f_tag <- tag;
  q.f_lblk <- lblk;
  q.f_wait <- wait;
  if q.f_parent != parent then q.f_parent <- parent;
  let data =
    if Bytes.length single > 0 then begin
      q.one.(0) <- single;
      q.one
    end
    else data
  in
  if q.f_data != data then q.f_data <- data;
  Ioqueue.enqueue sp.queue it (kind_of op)
    ~lba:((e.pstart + lblk - e.lstart) * spb)
    ~sectors:(len * spb) ~now:sp.clock

(* Submit one logical request for [wait], split at extent boundaries
   into one fragment per piece (a write's fragments share its block
   buffers).  Spindle clocks are synced first so queue-wait accounting
   starts from the device clock. *)
let submit t op wait blk n data single =
  check_range t op blk n;
  sync t;
  let tag = t.next_tag in
  t.next_tag <- tag + 1;
  let e = locate t blk in
  if blk + n <= e.lstart + e.xlen then enqueue t op wait e blk n data single no_parent tag
  else begin
    let p =
      {
        p_tag = tag;
        p_blk = blk;
        p_n = n;
        p_views =
          (match op with
          | Io_error.Read -> Array.make n no_view
          | Io_error.Write -> no_views);
        p_wait = wait;
        p_left = 0;
        p_err = None;
      }
    in
    iter_frags t blk n (fun e lblk len ->
        p.p_left <- p.p_left + 1;
        let part =
          match op with
          | Io_error.Read -> no_blocks
          | Io_error.Write -> Array.sub data (lblk - blk) len
        in
        enqueue t op wait e lblk len part Bytes.empty p tag)
  end;
  tag

let submit_read t blk n = submit t Io_error.Read Async blk n no_blocks Bytes.empty

(* A contiguous write's blocks: one block travels as [single]. *)
let submit_contiguous t wait blk data =
  let len = Bytes.length data in
  if len = t.block_size then submit t Io_error.Write wait blk 1 no_blocks data
  else submit t Io_error.Write wait blk (len / t.block_size) (split t data) Bytes.empty

let submit_write t blk data =
  let len = Bytes.length data in
  if len = 0 || len mod t.block_size <> 0 then
    invalid_arg "Blockdev.submit_write: partial block";
  submit_contiguous t Async blk data

let submit_write_blocks t blk blocks =
  let n = Array.length blocks in
  if n = 0 || Array.exists (fun b -> Bytes.length b <> t.block_size) blocks then
    invalid_arg "Blockdev.submit_write_blocks: partial block";
  submit t Io_error.Write Async blk n blocks Bytes.empty

let item_op (it : frag Ioqueue.item) =
  match it.req.Request.kind with
  | Request.Read -> Io_error.Read
  | Request.Write -> Io_error.Write

let item_blocks t (it : frag Ioqueue.item) =
  it.req.Request.sectors / sectors_per_block t

(* Hand a result to its waiter: the synchronous caller's mailbox, a
   completion for [drain] (an API result, so a record of its own), or
   the batch's first failure. *)
let deliver t wait tag op blk n result =
  match wait with
  | Sync ->
      t.sync_tag <- tag;
      t.sync_result <- result
  | Async ->
      t.completed <-
        { cq_tag = tag; cq_op = op; cq_blk = blk; cq_nblocks = n; cq_result = result }
        :: t.completed
  | Batch -> (
      match (result, t.batch_err) with
      | Error e, None -> t.batch_err <- Some e
      | _ -> ())

(* Give a record whose result has reached its waiter back to spindle
   [sp]'s free list, dropping what it pointed to.  (A free record is in
   the major heap, where a pointer store costs a barrier call, so only
   the fields that changed are written.) *)
let retire sp (it : frag Ioqueue.item) =
  let q = it.payload in
  if q.f_data != no_blocks then q.f_data <- no_blocks;
  if q.one.(0) != Bytes.empty then q.one.(0) <- Bytes.empty;
  if q.f_parent != no_parent then q.f_parent <- no_parent;
  Ioqueue.recycle sp.queue it

(* Deliver one serviced (or failed) fragment: an unsplit request
   completes at once; a fragment folds into its parent, which completes
   with its last one.  Then the record is retired. *)
let complete t sp (it : frag Ioqueue.item) result =
  let q = it.payload in
  let p = q.f_parent in
  if p == no_parent then deliver t q.f_wait q.f_tag (item_op it) q.f_lblk (item_blocks t it) result
  else begin
    (match (result, p.p_err) with
    | Ok views, _ ->
        if Array.length p.p_views > 0 then
          Array.blit views 0 p.p_views (q.f_lblk - p.p_blk) (Array.length views)
    | Error e, None -> p.p_err <- Some e
    | Error _, Some _ -> ());
    p.p_left <- p.p_left - 1;
    if p.p_left = 0 then
      deliver t p.p_wait p.p_tag (item_op it) p.p_blk p.p_n
        (match p.p_err with Some e -> Error e | None -> Ok p.p_views)
  end;
  retire sp it

(* What servicing a dispatch group means for the rest of the spindle's
   queue: carry on, stop because the device lost power, or stop because
   a request of the batch [lo, hi] being issued failed. *)
type verdict = Go | Cut | Failed of Io_error.t

let finish t sp ~lo ~hi verdict (it : frag Ioqueue.item) result =
  let tag = it.payload.f_tag in
  complete t sp it result;
  match (result, verdict) with
  | Ok _, _ | Error _, Failed _ -> verdict
  | Error e, _ when tag >= lo && tag <= hi -> Failed e
  | Error e, Go when e.Io_error.cause = Io_error.Power_cut -> Cut
  | Error _, _ -> verdict

let service_one t si ~lo ~hi verdict (it : frag Ioqueue.item) =
  let q = it.payload in
  finish t t.spindles.(si) ~lo ~hi verdict it
    (match it.req.Request.kind with
    | Request.Read -> read_service t si it.req ~lblk:q.f_lblk
    | Request.Write -> write_service t si it.req q.f_data ~lblk:q.f_lblk)

(* A coalesced group of [n] records, the spindle's last dispatch, as a
   single contiguous request.  When the merged request fails with a
   retryable cause, fall back to servicing the members individually so
   only the member actually covering the fault fails — the isolation the
   tagged queue promises.  Each member's failure names its own logical
   range.  Block buffers move between the members and the merged request
   by pointer, never by copy. *)
let service_merged t si ~lo ~hi n =
  let sp = t.spindles.(si) in
  let g = sp.queue in
  (* contiguous ascending by construction *)
  let spb = sectors_per_block t in
  let first = Ioqueue.dispatched g 0 and last = Ioqueue.dispatched g (n - 1) in
  let kind = first.req.Request.kind and lblk = first.payload.f_lblk in
  let start = first.req.Request.lba / spb in
  let total = ((last.req.Request.lba + last.req.Request.sectors) / spb) - start in
  let req = sp.merged in
  req.Request.lba <- first.req.Request.lba;
  req.Request.sectors <- total * spb;
  req.Request.kind <- kind;
  let off (it : frag Ioqueue.item) = (it.req.Request.lba / spb) - start [@@inline] in
  let merged =
    match kind with
    | Request.Read -> read_service t si req ~lblk
    | Request.Write ->
        let blocks = Array.make total Bytes.empty in
        for i = 0 to n - 1 do
          let it = Ioqueue.dispatched g i in
          let d = it.payload.f_data in
          Array.blit d 0 blocks (off it) (Array.length d)
        done;
        write_service t si req blocks ~lblk
  in
  let v = ref Go in
  for i = 0 to n - 1 do
    let it = Ioqueue.dispatched g i in
    v :=
      match merged with
      | Ok views when kind = Request.Read ->
          finish t sp ~lo ~hi !v it (Ok (Array.sub views (off it) (item_blocks t it)))
      | Ok _ -> finish t sp ~lo ~hi !v it ok_empty
      | Error e when e.Io_error.cause = Io_error.Power_cut ->
          (* torn or cut mid-request: the merged request died as one *)
          finish t sp ~lo ~hi !v it
            (Error { e with Io_error.blk = it.payload.f_lblk; nblocks = item_blocks t it })
      | Error _ -> service_one t si ~lo ~hi !v it
  done;
  !v

let account_waits sp n =
  for i = 0 to n - 1 do
    sp.wait.v <- sp.clock.v -. (Ioqueue.dispatched sp.queue i).Ioqueue.submitted.v;
    Cffs_obs.Registry.observe_cell h_wait sp.wait;
    m_wait_total.v <- m_wait_total.v +. sp.wait.v
  done

(* Service the [n] records of spindle [si]'s last dispatch. *)
let service_group t si ~lo ~hi n =
  let sp = t.spindles.(si) in
  account_waits sp n;
  if n = 1 then service_one t si ~lo ~hi Go (Ioqueue.dispatched sp.queue 0)
  else service_merged t si ~lo ~hi n

(* Every request still queued on spindle [si] fails its waiter without
   touching the media or the clock — and without counting as a device
   error, since the device never saw it. *)
let fail_pending t si cause =
  let sp = t.spindles.(si) in
  List.iter
    (fun (it : frag Ioqueue.item) ->
      complete t sp it
        (Error
           (err (item_op it) ~blk:it.payload.f_lblk ~nblocks:(item_blocks t it)
              cause)))
    (Ioqueue.clear sp.queue)

(* [run] arguments for "every tag" and for "no batch being issued". *)
let any_tag = 0
let no_lo = 1
let no_hi = 0

(* The fragments [submit] enqueued on spindle [si] for the logical range
   [lblk, stop): one per extent piece the spindle serves. *)
let rec frags_on extents si stop i lblk acc =
  if lblk >= stop then acc
  else begin
    let e = extents.(i) in
    frags_on extents si stop (i + 1) (e.lstart + e.xlen) (if e.xsub = si then acc + 1 else acc)
  end

(* How many of the last dispatch's [n] records, from [i], serve [tag]. *)
let rec count_tag g tag i n acc =
  if i >= n then acc
  else
    count_tag g tag (i + 1) n
      (if (Ioqueue.dispatched g i).Ioqueue.payload.f_tag = tag then acc + 1 else acc)

(* Service spindle [si]'s queue one dispatch group at a time — only while
   it still holds some of [tag]'s [frags] fragments, unless [tag] is
   [any_tag].  A power cut, or a failure of one of the batch tags
   [lo, hi], stops the spindle: the rest of its queue fails with
   [Power_cut].  Returns the batch failure, if any.

   The head-position convention: the cylinder used for the next pick is
   the cylinder of the previous dispatch's first lba (the drive's resting
   position at the start of the run for the first pick). *)
let run t si ~tag ~frags ~lo ~hi =
  let sp = t.spindles.(si) in
  let geom = sp.geom in
  let cyl = ref (head_cyl sp) in
  let failed = ref None and go = ref true and left = ref frags in
  while !go && (tag = any_tag || !left > 0) do
    let n = Ioqueue.dispatch sp.queue ~geom ~current_cyl:!cyl in
    if n = 0 then go := false
    else begin
      if tag <> any_tag then left := !left - count_tag sp.queue tag 0 n 0;
      (match geom with
      | Some g -> cyl := Geometry.cyl_of_lba g (Ioqueue.dispatched sp.queue 0).req.Request.lba
      | None -> ());
      match service_group t si ~lo ~hi n with
      | Go -> ()
      | Cut ->
          fail_pending t si Io_error.Power_cut;
          go := false
      | Failed e ->
          fail_pending t si Io_error.Power_cut;
          failed := Some e;
          go := false
    end
  done;
  !failed

let drain_views t =
  sync t;
  for si = 0 to Array.length t.spindles - 1 do
    ignore (run t si ~tag:any_tag ~frags:0 ~lo:no_lo ~hi:no_hi)
  done;
  let out = List.rev t.completed in
  t.completed <- [];
  out

(* --- views and the owning adapters ------------------------------------------ *)

(* Ending a view only uncounts it: a slot no longer in the store (its
   block rewritten, restored or corrupted since) keeps a count nobody
   reads, and the zero slot is never counted. *)
let release v = if v.views > 0 then v.views <- v.views - 1

let own v =
  let b = Bytes.copy v.buf in
  release v;
  b

let blit_view v ~src_off dst ~dst_off ~len = Bytes.blit v.buf src_off dst dst_off len
let view_crc v = Cffs_util.Crc32.digest_sub v.buf 0 (Bytes.length v.buf)

(* The owning forms copy each view once and release it. *)
let own_concat t views =
  match views with
  | [||] -> Bytes.empty
  | [| v |] -> own v
  | _ ->
      let bs = t.block_size in
      let out = Bytes.create (Array.length views * bs) in
      Array.iteri
        (fun i v ->
          Bytes.blit v.buf 0 out (i * bs) bs;
          release v)
        views;
      out

let drain t =
  List.map
    (fun (c : view array completion) ->
      { c with cq_result = Result.map (own_concat t) c.cq_result })
    (drain_views t)

(* Service the synchronous request [tag] just submitted for
   [blk, blk+n): drain only the spindles holding it, each only until its
   share is serviced, leaving other pending requests queued and other
   completions for a later [drain].  Its result is in the mailbox. *)
let drain_tag t tag blk n =
  sync t;
  let first = search t.extents lstart_of blk in
  for si = 0 to Array.length t.spindles - 1 do
    let frags = frags_on t.extents si (blk + n) first blk 0 in
    ignore (run t si ~tag ~frags ~lo:no_lo ~hi:no_hi)
  done;
  if t.sync_tag <> tag then invalid_arg "Blockdev.drain_tag: unknown tag";
  let result = t.sync_result in
  t.sync_tag <- 0;
  t.sync_result <- ok_empty;
  result

let reset_queue t =
  let n = pending t in
  for si = 0 to Array.length t.spindles - 1 do
    fail_pending t si Io_error.Power_cut
  done;
  n

let submit_unit t (start, blocks) =
  match blocks with
  | [ b ] -> ignore (submit t Io_error.Write Batch start 1 no_blocks b)
  | _ ->
      let a = Array.of_list blocks in
      ignore (submit t Io_error.Write Batch start (Array.length a) a Bytes.empty)

(* Issue a set of contiguous units, each submitted as one tagged write
   before any spindle drains, so spindles service their shares
   concurrently under the mount's scheduling policy.  Each request
   persists (and notifies the write observer) as it is serviced.  On each
   spindle the first failed unit stops the rest of that spindle's share,
   whose waiters fail with [Power_cut] — so a failure mid-batch leaves
   exactly the already-serviced prefix on that spindle's media, the crash
   semantics the fault harness depends on.  The error raised is the first
   real fault.  Each unit's block buffers go to the store as they are. *)
let issue_units t units =
  match units with
  | [] -> ()
  | _ ->
      List.iter
        (fun (start, blocks) ->
          check_range t Io_error.Write start (List.length blocks))
        units;
      let lo = t.next_tag in
      t.batch_err <- None;
      List.iter (submit_unit t) units;
      let hi = t.next_tag - 1 in
      sync t;
      let failed = ref None in
      for si = 0 to Array.length t.spindles - 1 do
        match run t si ~tag:any_tag ~frags:0 ~lo ~hi with
        | Some e when !failed = None -> failed := Some e
        | _ -> ()
      done;
      (* foreign async completions stay for their own [drain] *)
      let first = t.batch_err in
      t.batch_err <- None;
      Option.iter (fun e -> raise (Io_error.E e)) !failed;
      Option.iter (fun e -> raise (Io_error.E e)) first

let read_views t blk n =
  let tag = submit t Io_error.Read Sync blk n no_blocks Bytes.empty in
  match drain_tag t tag blk n with
  | Ok views -> views
  | Error e -> raise (Io_error.E e)

let read t blk n = own_concat t (read_views t blk n)

let write t blk data =
  let len = Bytes.length data in
  if len mod t.block_size <> 0 then invalid_arg "Blockdev.write: partial block";
  let n = len / t.block_size in
  check_range t Io_error.Write blk n;
  let tag = submit_contiguous t Sync blk data in
  match drain_tag t tag blk n with
  | Ok _ -> ()
  | Error e -> raise (Io_error.E e)

let rec check_unit t blk = function
  | [] -> ()
  | data :: rest ->
      if Bytes.length data <> t.block_size then
        invalid_arg "Blockdev.write_batch_units: data must be one block";
      check_range t Io_error.Write blk 1;
      check_unit t (blk + 1) rest

let write_batch_units t units =
  List.iter (fun (start, blocks) -> check_unit t start blocks) units;
  issue_units t units

(* --- raw contents, in logical space ----------------------------------------- *)

let store_raw t blk data ~keep_sectors =
  let len = Bytes.length data in
  if len mod t.block_size <> 0 then invalid_arg "Blockdev.store_raw: partial block";
  let n = len / t.block_size in
  check_range t Io_error.Write blk n;
  let spb = sectors_per_block t and blocks = split t data in
  iter_frags t blk n (fun e lblk flen ->
      let off = lblk - blk in
      persist t t.spindles.(e.xsub) (e.pstart + lblk - e.lstart)
        (if flen = n then blocks else Array.sub blocks off flen)
        ~keep_sectors:
          (Option.map
             (fun k -> Int.max 0 (Int.min (flen * spb) (k - (off * spb))))
             keep_sectors))

(* Think time passes for every spindle: sync to the device clock, then
   move the whole array forward together. *)
let advance t dt =
  sync t;
  for i = 0 to Array.length t.spindles - 1 do
    let c = t.spindles.(i).clock in
    c.v <- c.v +. dt
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
      Int_tbl.iter
        (fun pblk v ->
          let lblk = lblk_of t si pblk in
          if lblk >= 0 then f lblk v)
        (tbl sp))
    t.spindles

let snapshot t =
  let size = Array.fold_left (fun acc sp -> acc + Int_tbl.length sp.store) 0 t.spindles in
  let blocks = Int_tbl.create size and tags = Int_tbl.create 64 in
  iter_logical t (fun sp -> sp.store) (fun l s -> Int_tbl.replace blocks l (Bytes.copy s.buf));
  iter_logical t (fun sp -> sp.tags) (Int_tbl.replace tags);
  { img_blocks = blocks; img_tags = tags; img_tags_enabled = t.tags_enabled }

let restore t img =
  Array.iter
    (fun sp ->
      Int_tbl.reset sp.store;
      Int_tbl.reset sp.tags)
    t.spindles;
  let place tbl blk v =
    if blk < t.nblocks then
      let e = locate t blk in
      Int_tbl.replace (tbl t.spindles.(e.xsub)) (e.pstart + blk - e.lstart) v
  in
  (* fresh slots: views of the old contents stay as they were *)
  Int_tbl.iter
    (fun blk b -> place (fun sp -> sp.store) blk { buf = Bytes.copy b; views = 0 })
    img.img_blocks;
  Int_tbl.iter (place (fun sp -> sp.tags)) img.img_tags;
  t.tags_enabled <- t.tags_enabled || img.img_tags_enabled

let blocks_written img = Int_tbl.length img.img_blocks

let write_torn t blk data ~keep_sectors =
  check_range t Io_error.Write blk 1;
  if Bytes.length data <> t.block_size then invalid_arg "Blockdev.write_torn";
  let e = locate t blk in
  persist t t.spindles.(e.xsub) (e.pstart + blk - e.lstart) [| data |]
    ~keep_sectors:(Some keep_sectors)

let corrupt_block t blk prng =
  check_range t Io_error.Write blk 1;
  let e = locate t blk in
  Int_tbl.replace t.spindles.(e.xsub).store (e.pstart + blk - e.lstart)
    { buf = Cffs_util.Prng.bytes prng t.block_size; views = 0 }

let save_file t path =
  let oc = open_out_bin path in
  (try
     (* Fix the file's extent first so unwritten tails stay sparse. *)
     seek_out oc ((t.nblocks * t.block_size) - 1);
     output_char oc '\000';
     iter_logical t
       (fun sp -> sp.store)
       (fun blk s ->
         seek_out oc (blk * t.block_size);
         output_bytes oc s.buf);
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
