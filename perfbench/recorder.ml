(* Capture of the device request stream during the measured part, and its
   replay on fresh instances, one layer at a time.

   Capture uses only public hooks.  [Blockdev.set_injector] (always
   answering [Proceed]) sees every request as it is serviced;
   [Cache.set_observer] sees each flush's writeback units, which are the
   requests as they were submitted.  A flush's units arrive after the
   drain that wrote them, followed by one [Flush] event, so the flush
   claims the newest serviced writes covering its block count and turns
   them into one batch of units.  The benchmark records each prefetch
   round itself.  Every other serviced request is a batch of its own.

   Each batch is replayed as soon as the call that issued it returns,
   outside that call's timed span, so the live call and its replay run
   under the same machine load.  Two shadow stacks of the live shape
   replay it: the first calls the Blockdev entry points the live stack
   called and times each batch whole; the second drives bare [Ioqueue]s
   and [Drive]s, timing [Ioqueue.submit]/[take] and [Drive.service]
   apart.  Self time then follows by subtraction down the stack.  The
   replays move the process-wide registry too; that movement is recorded
   so it can be taken back out of the live counts. *)

module Blockdev = Cffs_blockdev.Blockdev
module Cache = Cffs_cache.Cache
module Drive = Cffs_disk.Drive
module Geometry = Cffs_disk.Geometry
module Ioqueue = Cffs_disk.Ioqueue
module Request = Cffs_disk.Request
module Scheduler = Cffs_disk.Scheduler
module Volume = Cffs_volume.Volume
module Setup = Cffs_harness.Setup
module R = Cffs_obs.Registry

(* Which of the benchmark's own spans a batch was issued under. *)
type span = Call | Flush | Prefetch

let span_index = function Call -> 0 | Flush -> 1 | Prefetch -> 2
let n_spans = 3

type req = { write : bool; blk : int; n : int }

(* How the live stack issued a batch, so replay calls the same entry. *)
type kind = Single | Units | Reads

type event =
  | Mark of {
      clock : float;
      cyls : int array;
      depth : int;
      policy : Scheduler.policy;
      coalesce : bool;
    }
      (** start of a measured segment or a queue reconfiguration *)
  | Drop_device_cache
  | Batch of { span : span; kind : kind; clock : float; reqs : req array }

(* --- shadow stack 1: whole Blockdev calls -------------------------------- *)

type whole = {
  wdev : Blockdev.t;
  wdrives : Drive.t array;
  block : bytes;
  bufs : (int, bytes) Hashtbl.t;
  by_span : float array;  (** host seconds per span class *)
  mutable positioned : int;  (** head-positioning requests (1 sector each) *)
}

(* --- shadow stack 2: bare queues and drives ------------------------------ *)

type layers = {
  drives : Drive.t array;
  queues : unit Ioqueue.t array;
  frags : int -> int -> (int * int * int) list;
  spb : int;
  host_overhead : float;
  mutable ioqueue_s : float;
  mutable drive_s : float;
  mutable l_requests : int;
  mutable l_sectors : int;
  mutable l_dispatches : int;
  mutable window_sum : float;
  mutable window_max : int;
}

type t = {
  dev : Blockdev.t;
  mutable span : span;
  mutable in_prefetch : bool;
  mutable pending : (req * float) list;  (** serviced, unclaimed; newest first *)
  mutable units : req list;  (** writeback units awaiting a Flush; newest first *)
  mutable queue : event list;  (** captured, not yet replayed; newest first *)
  mutable writeback_units : int;
  whole : whole;
  layers : layers;
  mutable replay_s : float;  (** host seconds spent replaying, bookkeeping included *)
  mutable flip : bool;
  replay_moved : (string, R.datum) Hashtbl.t;  (** registry movement the replays caused *)
}

let drives_of dev =
  match Blockdev.subdevices dev with
  | [||] -> [| Option.get (Blockdev.drive dev) |]
  | subs -> Array.map (fun s -> Option.get (Blockdev.drive s)) subs

(* Logical range to per-spindle fragments [(spindle, pblk, len)], split at
   extent boundaries in ascending logical order, as the composite does. *)
let fragmenter = function
  | None -> fun blk n -> [ (0, blk, n) ]
  | Some exts ->
      let a = Array.of_list (List.sort compare exts) in
      let find blk =
        let rec go lo hi =
          if lo >= hi then lo
          else
            let mid = (lo + hi + 1) / 2 in
            let ls, _, _, _ = a.(mid) in
            if ls <= blk then go mid hi else go lo (mid - 1)
        in
        go 0 (Array.length a - 1)
      in
      fun blk n ->
        let rec go acc blk n =
          if n <= 0 then List.rev acc
          else
            let ls, len, sub, ps = a.(find blk) in
            let off = blk - ls in
            let take = min n (len - off) in
            go ((sub, ps + off, take) :: acc) (blk + take) (n - take)
        in
        go [] blk n

let create (s : Setup.t) dev =
  let su = Setup.stripe_unit and mpc = Setup.meta_per_chunk s.Setup.fs in
  let extents =
    match Blockdev.subdevices dev with
    | [||] -> None
    | subs ->
        Some
          (Volume.plan s.Setup.vol_layout ~drives:s.Setup.drives ~stripe_unit:su
             ~meta_per_chunk:mpc ~caps:(Array.map Blockdev.nblocks subs))
  in
  let wdev =
    (Volume.create ~profile:s.Setup.profile ~scheduler:s.Setup.scheduler
       ~host_overhead:s.Setup.host_overhead ~block_size:s.Setup.block_size
       ~stripe_unit:su ~meta_per_chunk:mpc ~drives:s.Setup.drives
       ~layout:s.Setup.vol_layout ())
      .Volume.dev
  in
  let nd = Array.length (drives_of dev) in
  {
    dev;
    span = Call;
    in_prefetch = false;
    pending = [];
    units = [];
    queue = [];
    writeback_units = 0;
    whole =
      {
        wdev;
        wdrives = drives_of wdev;
        block = Bytes.make s.Setup.block_size '\000';
        bufs = Hashtbl.create 8;
        by_span = Array.make n_spans 0.0;
        positioned = 0;
      };
    layers =
      {
        drives = Array.init nd (fun _ -> Drive.create s.Setup.profile);
        queues = Array.init nd (fun _ -> Ioqueue.create ~policy:s.Setup.scheduler ());
        frags = fragmenter extents;
        spb = s.Setup.block_size / Cffs_util.Units.sector_size;
        host_overhead = s.Setup.host_overhead;
        ioqueue_s = 0.0;
        drive_s = 0.0;
        l_requests = 0;
        l_sectors = 0;
        l_dispatches = 0;
        window_sum = 0.0;
        window_max = 0;
      };
    replay_s = 0.0;
    flip = false;
    replay_moved = Hashtbl.create 256;
  }

(* Put each head on the cylinder the live drive rested on (untimed, and
   below Blockdev).  Returns how many positioning requests it issued. *)
let position drives cyls =
  let n = ref 0 in
  Array.iteri
    (fun i d ->
      if Drive.current_cyl d <> cyls.(i) then begin
        incr n;
        ignore
          (Drive.service d
             (Request.write
                ~lba:(Geometry.first_lba_of_cyl (Drive.geometry d) cyls.(i))
                ~sectors:1))
      end)
    drives;
  !n

let replay_whole w = function
  | Mark m ->
      w.positioned <- w.positioned + position w.wdrives m.cyls;
      Blockdev.set_queue w.wdev ~depth:m.depth ~policy:m.policy ~coalesce:m.coalesce ();
      let dt = m.clock -. Blockdev.now w.wdev in
      if dt > 0.0 then Blockdev.advance w.wdev dt
  | Drop_device_cache -> Blockdev.flush_device_cache w.wdev
  | Batch b ->
      let dt = b.clock -. Blockdev.now w.wdev in
      if dt > 0.0 then Blockdev.advance w.wdev dt;
      let buf n =
        match Hashtbl.find_opt w.bufs n with
        | Some b -> b
        | None ->
            let b = Bytes.make (n * Bytes.length w.block) '\000' in
            Hashtbl.replace w.bufs n b;
            b
      in
      let units =
        match b.kind with
        | Units -> Array.to_list (Array.map (fun q -> (q.blk, List.init q.n (fun _ -> w.block))) b.reqs)
        | Single | Reads -> []
      in
      let q0 = b.reqs.(0) in
      let data = if b.kind = Single && q0.write then buf q0.n else w.block in
      let t0 = Hclock.now () in
      (match b.kind with
      | Single ->
          if q0.write then Blockdev.write w.wdev q0.blk data
          else ignore (Blockdev.read w.wdev q0.blk q0.n)
      | Units -> Blockdev.write_batch_units w.wdev units
      | Reads ->
          Array.iter (fun q -> ignore (Blockdev.submit_read w.wdev q.blk q.n)) b.reqs;
          ignore (Blockdev.drain w.wdev));
      let i = span_index b.span in
      w.by_span.(i) <- w.by_span.(i) +. (Hclock.now () -. t0)

let drain_layers l si =
  let q = l.queues.(si) and d = l.drives.(si) in
  let g = Drive.geometry d in
  let cyl = ref (Drive.current_cyl d) in
  let rec loop () =
    let pending = Ioqueue.pending q in
    let t0 = Hclock.now () in
    let group = Ioqueue.take q ~geom:(Some g) ~current_cyl:!cyl in
    l.ioqueue_s <- l.ioqueue_s +. (Hclock.now () -. t0);
    match group with
    | None | Some [] -> ()
    | Some (first :: _ as items) ->
        l.l_dispatches <- l.l_dispatches + 1;
        l.window_sum <- l.window_sum +. float_of_int pending;
        if pending > l.window_max then l.window_max <- pending;
        let req = first.Ioqueue.req in
        cyl := Geometry.cyl_of_lba g req.Request.lba;
        let n = List.fold_left (fun acc it -> acc + it.Ioqueue.req.Request.sectors) 0 items in
        Drive.advance d l.host_overhead;
        let req = { req with Request.sectors = n } in
        let t0 = Hclock.now () in
        ignore (Drive.service d req);
        l.drive_s <- l.drive_s +. (Hclock.now () -. t0);
        l.l_requests <- l.l_requests + 1;
        l.l_sectors <- l.l_sectors + n;
        loop ()
  in
  loop ()

(* A composite syncs every spindle to its clock before new work. *)
let sync_layers l clock =
  let target = Array.fold_left (fun acc d -> Float.max acc (Drive.now d)) clock l.drives in
  Array.iter
    (fun d ->
      let dt = target -. Drive.now d in
      if dt > 0.0 then Drive.advance d dt)
    l.drives

let replay_layers l = function
  | Mark m ->
      ignore (position l.drives m.cyls);
      Array.iter
        (fun q ->
          Ioqueue.set_depth q m.depth;
          Ioqueue.set_policy q m.policy;
          Ioqueue.set_coalesce q m.coalesce)
        l.queues;
      sync_layers l m.clock
  | Drop_device_cache -> Array.iter Drive.flush_cache l.drives
  | Batch b ->
      sync_layers l b.clock;
      Array.iter
        (fun q ->
          List.iter
            (fun (si, pblk, len) ->
              let lba = pblk * l.spb and sectors = len * l.spb in
              let req =
                if q.write then Request.write ~lba ~sectors else Request.read ~lba ~sectors
              in
              let now = Drive.now l.drives.(si) in
              let t0 = Hclock.now () in
              ignore (Ioqueue.submit l.queues.(si) req () ~now);
              l.ioqueue_s <- l.ioqueue_s +. (Hclock.now () -. t0))
            (l.frags q.blk q.n))
        b.reqs;
      Array.iteri (fun si q -> if not (Ioqueue.is_empty q) then drain_layers l si) l.queues

(* --- capture ------------------------------------------------------------- *)

let emit r ev = r.queue <- ev :: r.queue

(* Replay everything captured so far.  Called only between spans. *)
let replay r =
  if r.queue <> [] then begin
    let t0 = Hclock.now () in
    let before = R.snapshot () in
    List.iter
      (fun ev ->
        (* alternate which pass runs first, so neither is always the one
           paying for the other's garbage *)
        r.flip <- not r.flip;
        if r.flip then begin
          replay_whole r.whole ev;
          replay_layers r.layers ev
        end
        else begin
          replay_layers r.layers ev;
          replay_whole r.whole ev
        end)
      (List.rev r.queue);
    r.queue <- [];
    List.iter
      (fun (name, moved) ->
        let sum =
          match (Hashtbl.find_opt r.replay_moved name, moved) with
          | Some (R.Counter a), R.Counter b -> R.Counter (a + b)
          | Some (R.Fcounter a), R.Fcounter b -> R.Fcounter (a +. b)
          | Some (R.Histogram a), R.Histogram b ->
              R.Histogram
                {
                  a with
                  R.count = a.R.count + b.R.count;
                  sum = a.R.sum +. b.R.sum;
                  buckets = Array.mapi (fun i x -> x + b.R.buckets.(i)) a.R.buckets;
                }
          | _, moved -> moved
        in
        Hashtbl.replace r.replay_moved name sum)
      (R.diff (R.snapshot ()) before);
    r.replay_s <- r.replay_s +. (Hclock.now () -. t0)
  end

let singles r newest_first =
  List.iter
    (fun (q, clock) -> emit r (Batch { span = r.span; kind = Single; clock; reqs = [| q |] }))
    (List.rev newest_first)

let on_request r op ~blk ~nblocks =
  let write = op = Cffs_util.Io_error.Write in
  (* prefetch reads are recorded as submitted, by the benchmark *)
  if write || not r.in_prefetch then
    r.pending <- ({ write; blk; n = nblocks }, Blockdev.now r.dev) :: r.pending;
  Blockdev.Proceed

let on_flush r total =
  let rec claim acc got = function
    | (q, c) :: rest when got < total && q.write -> claim ((q, c) :: acc) (got + q.n) rest
    | rest -> (acc, rest)
  in
  let claimed, older = claim [] 0 r.pending in
  singles r older;
  let clock = match claimed with (_, c) :: _ -> c | [] -> Blockdev.now r.dev in
  emit r (Batch { span = r.span; kind = Units; clock; reqs = Array.of_list (List.rev r.units) });
  r.pending <- [];
  r.units <- []

let on_cache_event r = function
  | Cache.Writeback { blk; nblocks } ->
      r.writeback_units <- r.writeback_units + 1;
      r.units <- { write = true; blk; n = nblocks } :: r.units
  | Cache.Flush { nblocks } -> on_flush r nblocks
  | _ -> ()

(* Close the current span and replay it: whatever no flush claimed was a
   single request (a writeback unit never followed by [Flush] was written
   one block at a time, and its write is already among the pending
   records). *)
let settle r =
  if r.pending <> [] then singles r r.pending;
  r.pending <- [];
  r.units <- [];
  replay r

let mark r =
  emit r
    (Mark
       {
         clock = Blockdev.now r.dev;
         cyls = Array.map Drive.current_cyl (drives_of r.dev);
         depth = Blockdev.queue_depth r.dev;
         policy = Blockdev.queue_policy r.dev;
         coalesce = Blockdev.queue_coalesce r.dev;
       })

let attach r cache =
  mark r;
  Blockdev.set_injector r.dev (Some (on_request r));
  Cache.set_observer cache (Some (on_cache_event r))

let detach r cache =
  settle r;
  Blockdev.set_injector r.dev None;
  Cache.set_observer cache None

let drop_device_cache r =
  emit r Drop_device_cache;
  replay r

(* The sub-runs [Cache.prefetch] will submit: every non-resident stretch of
   each run, in order. *)
let prefetch_reqs cache runs =
  List.concat_map
    (fun (blk, n) ->
      let out = ref [] in
      let flush_sub start stop =
        if start < stop then out := { write = false; blk = start; n = stop - start } :: !out
      in
      let rec sub i start =
        if i >= n then flush_sub start (blk + n)
        else if Cache.resident_block cache (blk + i) then begin
          flush_sub start (blk + i);
          sub (i + 1) (blk + i + 1)
        end
        else sub (i + 1) start
      in
      sub 0 blk;
      List.rev !out)
    runs

let prefetch_batch r reqs =
  if reqs <> [] then
    emit r
      (Batch
         { span = Prefetch; kind = Reads; clock = Blockdev.now r.dev; reqs = Array.of_list reqs })

(* The replays' registry movement as one snapshot, sorted like
   [R.snapshot]. *)
let replay_moved r =
  List.sort compare (List.of_seq (Hashtbl.to_seq r.replay_moved))

(* How far the replays have moved one counter so far. *)
let moved_counter r name =
  match Hashtbl.find_opt r.replay_moved name with Some (R.Counter n) -> n | _ -> 0

(* Requests, sectors and dispatches each shadow stack produced. *)
type counts = { requests : int; sectors : int; dispatches : int }

let whole_counts r =
  let st = Blockdev.stats r.whole.wdev in
  {
    requests = Cffs_disk.Request.Stats.requests st - r.whole.positioned;
    sectors = Cffs_disk.Request.Stats.sectors st - r.whole.positioned;
    dispatches = moved_counter r "ioqueue.dispatched" - r.layers.l_dispatches;
  }

let layer_counts r =
  let l = r.layers in
  { requests = l.l_requests; sectors = l.l_sectors; dispatches = l.l_dispatches }
