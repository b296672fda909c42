module Obs = Cffs_obs.Registry
module Otrace = Cffs_obs.Trace

(* Registry mirrors of the drive's counters: the per-drive counters stay
   the source of truth for experiments that own a drive; the registry
   aggregates across every drive in the process for the obs exporters.
   The float mirrors are updated through their cells, in place. *)
let m_reads = Obs.counter "drive.reads"
let m_writes = Obs.counter "drive.writes"
let m_read_sectors = Obs.counter "drive.read_sectors"
let m_write_sectors = Obs.counter "drive.write_sectors"
let m_cache_hits = Obs.counter "drive.cache_hits"
let m_seek = Obs.fcell (Obs.fcounter "drive.seek_s")
let m_rotation = Obs.fcell (Obs.fcounter "drive.rotation_s")
let m_transfer = Obs.fcell (Obs.fcounter "drive.transfer_s")
let m_overhead = Obs.fcell (Obs.fcounter "drive.overhead_s")
let m_cachehit = Obs.fcell (Obs.fcounter "drive.cachehit_s")
let m_busy = Obs.fcell (Obs.fcounter "drive.busy_s")
let h_service = Obs.histogram "drive.service_s"

(* Seconds per service component.  A float-only record, so its fields are
   stored unboxed: the service path writes them without allocating (a
   mutable float field of a mixed record boxes every store). *)
type times = {
  mutable seek : float;
  mutable rotation : float;
  mutable transfer : float;
  mutable overhead : float;
  mutable cachehit : float;
  mutable busy : float;
}

let zero_times () =
  { seek = 0.0; rotation = 0.0; transfer = 0.0; overhead = 0.0; cachehit = 0.0; busy = 0.0 }

type t = {
  profile : Profile.t;
  geom : Geometry.t;
  seek_curve : Seek.t;
  cache : Dcache.t;
  rev_time : float;
  head_switch : float;  (* seconds, from the profile's milliseconds *)
  cylinder_switch : float;
  controller_overhead : float;
  clock : Obs.cell;  (* simulated seconds *)
  settled : Obs.cell;  (* clock up to which prefetch has been settled *)
  total : times;  (* every request so far *)
  cur : times;  (* the request being serviced; [busy] is its duration *)
  sample : Obs.cell;  (* [cur.busy], for [h_service] *)
  at : Geometry.pos;  (* where the request being serviced starts *)
  seek_s : Obs.cell;  (* its seek time *)
  mutable cyl : int;
  mutable head : int;
  mutable reads : int;
  mutable writes : int;
  mutable read_sectors : int;
  mutable write_sectors : int;
  mutable cache_hits : int;
}

let ms = Cffs_util.Units.ms

let create (p : Profile.t) =
  let segment_sectors =
    max 8 (p.cache_kib * 1024 / p.cache_segments / Cffs_util.Units.sector_size)
  in
  {
    profile = p;
    geom = Geometry.of_profile p;
    seek_curve = Seek.of_profile p;
    cache = Dcache.create ~segments:p.cache_segments ~segment_sectors;
    rev_time = Cffs_util.Units.rpm_to_rev_time p.rpm;
    head_switch = ms p.head_switch_ms;
    cylinder_switch = ms p.cylinder_switch_ms;
    controller_overhead = ms p.controller_overhead_ms;
    clock = { Obs.v = 0.0 };
    settled = { Obs.v = 0.0 };
    total = zero_times ();
    cur = zero_times ();
    sample = { Obs.v = 0.0 };
    at = { Geometry.cyl = 0; head = 0; sector = 0; spt = 0 };
    seek_s = { Obs.v = 0.0 };
    cyl = 0;
    head = 0;
    reads = 0;
    writes = 0;
    read_sectors = 0;
    write_sectors = 0;
    cache_hits = 0;
  }

let profile t = t.profile
let geometry t = t.geom
let now t = t.clock.v
let clock t = t.clock
let advance t dt = t.clock.v <- t.clock.v +. dt
let current_cyl t = t.cyl

let stats t =
  let s = t.total in
  {
    Request.Stats.reads = t.reads;
    writes = t.writes;
    read_sectors = t.read_sectors;
    write_sectors = t.write_sectors;
    cache_hits = t.cache_hits;
    busy_time = s.busy;
    seek_time = s.seek;
    rotation_time = s.rotation;
    transfer_time = s.transfer;
    overhead_time = s.overhead;
    cachehit_time = s.cachehit;
  }

let seek_time t d = Seek.time t.seek_curve d
let total_sectors t = Geometry.total_sectors t.geom
let flush_cache t = Dcache.clear t.cache

(* Bring the prefetch frontier up to the present: the media rate at the
   head's current cylinder fills the on-board cache while the mechanism
   is otherwise idle. *)
let settle t =
  let elapsed = t.clock.v -. t.settled.v in
  if elapsed > 0.0 then begin
    let sectors_per_sec =
      float_of_int (Geometry.sectors_per_track t.geom t.cyl) /. t.rev_time
    in
    Dcache.settle t.cache
      ~gain:(int_of_float (elapsed *. sectors_per_sec))
      ~max_lba:(Geometry.total_sectors t.geom)
  end;
  t.settled.v <- t.clock.v

(* Track-by-track media transfer starting at [pos], updating the head
   position.  Ideal skew: each head/cylinder switch costs only the switch
   time, after which transfer resumes immediately.  The transfer duration
   goes to [t.cur.transfer]. *)
let transfer_walk t (pos : Geometry.pos) ~sectors =
  let xfer = ref 0.0 in
  let remaining = ref sectors in
  let cyl = ref pos.cyl and head = ref pos.head and sector = ref pos.sector in
  let spt = ref pos.spt in
  let first = ref true in
  while !remaining > 0 do
    if not !first then begin
      if !head + 1 < t.profile.heads then begin
        incr head;
        xfer := !xfer +. t.head_switch
      end
      else begin
        head := 0;
        incr cyl;
        spt := Geometry.sectors_per_track t.geom !cyl;
        xfer := !xfer +. t.cylinder_switch
      end;
      sector := 0
    end;
    first := false;
    let burst = min !remaining (!spt - !sector) in
    xfer := !xfer +. (float_of_int burst /. float_of_int !spt *. t.rev_time);
    sector := !sector + burst;
    remaining := !remaining - burst
  done;
  t.cyl <- !cyl;
  t.head <- !head;
  t.cur.transfer <- !xfer

(* Serve the mechanical part of a request once the controller overhead
   has passed: seek, rotational wait (the angular position follows from
   the clock, so think time changes which sector is under the head) and
   transfer, each into [t.cur]; the request ends at [t.settled]. *)
let mechanical t (req : Request.t) =
  let c = t.cur and pos = t.at in
  let start = t.clock.v +. c.overhead in
  Geometry.locate_into t.geom req.lba pos;
  let dist = abs (t.cyl - pos.cyl) in
  if dist > 0 then begin
    Seek.time_into t.seek_curve dist t.seek_s;
    c.seek <- t.seek_s.v
  end
  else c.seek <- (if t.head <> pos.head then t.head_switch else 0.0);
  let after_seek = start +. c.seek in
  let target = float_of_int pos.sector /. float_of_int pos.spt in
  let angle = Float.rem (after_seek /. t.rev_time) 1.0 in
  c.rotation <- Float.rem (target -. angle +. 1.0) 1.0 *. t.rev_time;
  transfer_walk t pos ~sectors:req.sectors;
  t.settled.v <- after_seek +. c.rotation +. c.transfer;
  c.busy <- t.settled.v -. t.clock.v

(* Add each component of the request to the drive's totals and the same
   amount to the registry: the difference the total moved by, so both
   sums are the ones per-request snapshots would give.  [c] keeps each
   charged difference, for the trace. *)
let charge t =
  let c = t.cur and s = t.total in
  let old = s.seek in
  s.seek <- old +. c.seek;
  c.seek <- s.seek -. old;
  m_seek.v <- m_seek.v +. c.seek;
  let old = s.rotation in
  s.rotation <- old +. c.rotation;
  c.rotation <- s.rotation -. old;
  m_rotation.v <- m_rotation.v +. c.rotation;
  let old = s.transfer in
  s.transfer <- old +. c.transfer;
  c.transfer <- s.transfer -. old;
  m_transfer.v <- m_transfer.v +. c.transfer;
  let old = s.overhead in
  s.overhead <- old +. c.overhead;
  c.overhead <- s.overhead -. old;
  m_overhead.v <- m_overhead.v +. c.overhead;
  let old = s.cachehit in
  s.cachehit <- old +. c.cachehit;
  c.cachehit <- s.cachehit -. old;
  m_cachehit.v <- m_cachehit.v +. c.cachehit;
  s.busy <- s.busy +. c.busy;
  m_busy.v <- m_busy.v +. c.busy

let trace t (req : Request.t) ~start ~hit =
  let c = t.cur in
  Otrace.complete
    ~target:(Printf.sprintf "lba:%d+%d" req.lba req.sectors)
    ~attrs:
      [
        ("seek_s", Printf.sprintf "%.6f" c.seek);
        ("rotation_s", Printf.sprintf "%.6f" c.rotation);
        ("transfer_s", Printf.sprintf "%.6f" c.transfer);
        ("overhead_s", Printf.sprintf "%.6f" c.overhead);
        ("cachehit_s", Printf.sprintf "%.6f" c.cachehit);
        ("cache_hit", string_of_bool hit);
      ]
    ~t_start:start ~t_end:t.clock.v
    (match req.kind with Read -> "drive.read" | Write -> "drive.write")

(* Every branch below keeps the attribution invariant the obs layer builds
   on: duration = seek + rotation + transfer + overhead + cachehit, with
   each term charged to exactly one component.  The service writes its
   components into [t.cur], and its position and seek time into [t.at]
   and [t.seek_s], so nothing on the path allocates. *)
let serve t (req : Request.t) =
  let c = t.cur in
  settle t;
  c.seek <- 0.0;
  c.rotation <- 0.0;
  c.transfer <- 0.0;
  c.overhead <- t.controller_overhead;
  c.cachehit <- 0.0;
  let hit =
    match req.kind with
    | Read when Dcache.hit t.cache ~lba:req.lba ~sectors:req.sectors ->
        (* A cache hit moves data from the drive's RAM over the bus:
           command overhead plus burst transfer, no repositioning.
           Sustained sequential streams are still limited to media rate
           because the prefetch frontier only advances at media rate (see
           {!settle}).  Prefetch keeps running during a bus transfer:
           leave [settled] at the start so the next settle covers this
           service period too. *)
        c.cachehit <-
          float_of_int (req.sectors * Cffs_util.Units.sector_size)
          /. (t.profile.bus_mb_per_s *. 1.0e6);
        c.busy <- c.overhead +. c.cachehit;
        true
    | Read ->
        let cached = Dcache.streaming t.cache ~lba:req.lba ~sectors:req.sectors in
        if cached >= 0 then begin
          (* The request joins the active prefetch stream: the head is
             already on this track reading; only the not-yet-buffered tail
             costs media time.  No seek, no rotational loss. *)
          let fresh = req.sectors - cached in
          if fresh > 0 then begin
            Geometry.locate_into t.geom (req.lba + cached) t.at;
            transfer_walk t t.at ~sectors:fresh
          end;
          t.settled.v <- t.clock.v +. c.overhead +. c.transfer;
          c.busy <- c.overhead +. c.transfer;
          true
        end
        else begin
          Dcache.close_open t.cache;
          mechanical t req;
          Dcache.install t.cache ~lba:req.lba ~sectors:req.sectors;
          false
        end
    | Write ->
        Dcache.close_open t.cache;
        mechanical t req;
        Dcache.invalidate t.cache ~lba:req.lba ~sectors:req.sectors;
        false
  in
  (match req.kind with
  | Read ->
      t.reads <- t.reads + 1;
      t.read_sectors <- t.read_sectors + req.sectors;
      Obs.incr m_reads;
      Obs.add m_read_sectors req.sectors
  | Write ->
      t.writes <- t.writes + 1;
      t.write_sectors <- t.write_sectors + req.sectors;
      Obs.incr m_writes;
      Obs.add m_write_sectors req.sectors);
  if hit then begin
    t.cache_hits <- t.cache_hits + 1;
    Obs.incr m_cache_hits
  end;
  charge t;
  let start = t.clock.v in
  t.clock.v <- start +. c.busy;
  t.sample.v <- c.busy;
  Obs.observe_cell h_service t.sample;
  if Otrace.is_enabled () then trace t req ~start ~hit

let service t req =
  serve t req;
  t.cur.busy
