(* Tests for the disk simulator: profiles, seek model, geometry, on-board
   cache behaviour, request service times and schedulers. *)

module Profile = Cffs_disk.Profile
module Seek = Cffs_disk.Seek
module Geometry = Cffs_disk.Geometry
module Drive = Cffs_disk.Drive
module Dcache = Cffs_disk.Dcache
module Request = Cffs_disk.Request
module Scheduler = Cffs_disk.Scheduler
module Prng = Cffs_util.Prng

let check = Alcotest.check
let qtest ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

let st31200 = Profile.seagate_st31200

(* ------------------------------------------------------------------ *)
(* Profiles *)

let test_profile_capacities () =
  List.iter
    (fun (p : Profile.t) ->
      let cap = Profile.capacity_bytes p in
      (* Every profile is a 1990s drive: between 500 MB and 3 GB. *)
      if cap < 500_000_000 || cap > 3_000_000_000 then
        Alcotest.failf "%s capacity %d implausible" p.Profile.name cap)
    Profile.all

let test_profile_media_rates () =
  List.iter
    (fun (p : Profile.t) ->
      let r = Profile.media_mb_per_s p in
      if r < 1.0 || r > 20.0 then
        Alcotest.failf "%s media rate %.1f implausible" p.Profile.name r)
    Profile.all

let test_profile_lookup () =
  check Alcotest.bool "by_name finds" true (Profile.by_name "hp c3653" <> None);
  check Alcotest.bool "by_name misses" true (Profile.by_name "nope" = None)

let test_profile_c2247_slower () =
  (* The paper's bandwidth-trend example: the C2247 has roughly half the
     C3653's sectors per track. *)
  let old_spt = Profile.avg_sectors_per_track Profile.hp_c2247 in
  let new_spt = Profile.avg_sectors_per_track Profile.hp_c3653 in
  check Alcotest.bool "half the sectors" true (old_spt < 0.6 *. new_spt)

let test_profile_truncated () =
  let small = Profile.truncated st31200 ~cylinders:270 in
  check Alcotest.int "cylinders" 270 small.Profile.cylinders;
  let ratio =
    float_of_int (Profile.capacity_bytes small)
    /. float_of_int (Profile.capacity_bytes st31200)
  in
  check Alcotest.bool "~10% capacity" true (ratio > 0.08 && ratio < 0.16);
  check Alcotest.bool "rejects bad" true
    (try ignore (Profile.truncated st31200 ~cylinders:0); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Seek model *)

let test_seek_endpoints () =
  let s = Seek.of_profile st31200 in
  check (Alcotest.float 1e-9) "zero distance" 0.0 (Seek.time s 0);
  check (Alcotest.float 1e-6) "single cylinder"
    (st31200.Profile.single_cyl_seek_ms /. 1000.0)
    (Seek.time s 1);
  check (Alcotest.float 1e-4) "full stroke"
    (st31200.Profile.max_seek_ms /. 1000.0)
    (Seek.time s (st31200.Profile.cylinders - 1))

let test_seek_monotonic () =
  List.iter
    (fun (p : Profile.t) ->
      let s = Seek.of_profile p in
      let prev = ref 0.0 in
      for d = 1 to p.Profile.cylinders - 1 do
        let t = Seek.time s d in
        if t < !prev -. 1e-12 then Alcotest.failf "seek not monotonic at %d" d;
        prev := t
      done)
    Profile.all

let test_seek_average_fit () =
  List.iter
    (fun (p : Profile.t) ->
      let s = Seek.of_profile p in
      let avg = Seek.average s ~samples:30000 *. 1000.0 in
      (* The fitted model's random-pair average should be within 20% of the
         spec's average seek. *)
      let rel = Float.abs (avg -. p.Profile.avg_seek_ms) /. p.Profile.avg_seek_ms in
      if rel > 0.2 then
        Alcotest.failf "%s avg seek %.2f vs spec %.2f" p.Profile.name avg
          p.Profile.avg_seek_ms)
    Profile.all

let test_seek_short_seeks_expensive () =
  (* "Seeking a single cylinder generally costs a full millisecond": short
     seeks are far more expensive per cylinder than long ones. *)
  let s = Seek.of_profile st31200 in
  let per_cyl_short = Seek.time s 4 /. 4.0 in
  let per_cyl_long = Seek.time s 1000 /. 1000.0 in
  check Alcotest.bool "sqrt regime" true (per_cyl_short > 10.0 *. per_cyl_long)

(* ------------------------------------------------------------------ *)
(* Geometry *)

let test_geometry_total () =
  let g = Geometry.of_profile st31200 in
  check Alcotest.int "matches profile" (Profile.total_sectors st31200)
    (Geometry.total_sectors g)

let test_geometry_first_last () =
  let g = Geometry.of_profile st31200 in
  let p0 = Geometry.locate g 0 in
  check Alcotest.int "first cyl" 0 p0.Geometry.cyl;
  check Alcotest.int "first head" 0 p0.Geometry.head;
  check Alcotest.int "first sector" 0 p0.Geometry.sector;
  let plast = Geometry.locate g (Geometry.total_sectors g - 1) in
  check Alcotest.int "last cyl" (st31200.Profile.cylinders - 1) plast.Geometry.cyl

let test_geometry_out_of_range () =
  let g = Geometry.of_profile st31200 in
  check Alcotest.bool "negative rejected" true
    (try ignore (Geometry.locate g (-1)); false with Invalid_argument _ -> true);
  check Alcotest.bool "too large rejected" true
    (try ignore (Geometry.locate g (Geometry.total_sectors g)); false
     with Invalid_argument _ -> true)

let qcheck_geometry_roundtrip =
  qtest "geometry: locate is consistent with first_lba_of_cyl"
    QCheck.(int_bound (Profile.total_sectors st31200 - 1))
    (fun lba ->
      let g = Geometry.of_profile st31200 in
      let pos = Geometry.locate g lba in
      let base = Geometry.first_lba_of_cyl g pos.Geometry.cyl in
      let spt = Geometry.sectors_per_track g pos.Geometry.cyl in
      base + (pos.Geometry.head * spt) + pos.Geometry.sector = lba
      && Geometry.cyl_of_lba g lba = pos.Geometry.cyl)

let qcheck_geometry_monotone_cyl =
  qtest "geometry: cylinders increase with LBA"
    QCheck.(pair (int_bound (Profile.total_sectors st31200 - 1))
              (int_bound (Profile.total_sectors st31200 - 1)))
    (fun (a, b) ->
      let g = Geometry.of_profile st31200 in
      let a, b = (min a b, max a b) in
      Geometry.cyl_of_lba g a <= Geometry.cyl_of_lba g b)

(* ------------------------------------------------------------------ *)
(* Request stats *)

let test_request_basics () =
  let r = Request.read ~lba:100 ~sectors:8 in
  check Alcotest.int "last lba" 107 (Request.last_lba r);
  let w = Request.write ~lba:104 ~sectors:8 in
  check Alcotest.bool "overlap" true (Request.overlaps r w);
  let far = Request.read ~lba:200 ~sectors:8 in
  check Alcotest.bool "no overlap" false (Request.overlaps r far)

let test_stats_diff () =
  let d = Drive.create st31200 in
  let before = Request.Stats.copy (Drive.stats d) in
  ignore (Drive.service d (Request.read ~lba:0 ~sectors:8));
  ignore (Drive.service d (Request.write ~lba:1000 ~sectors:16));
  let diff = Request.Stats.diff (Drive.stats d) before in
  check Alcotest.int "reads" 1 diff.Request.Stats.reads;
  check Alcotest.int "writes" 1 diff.Request.Stats.writes;
  check Alcotest.int "sectors" 24 (Request.Stats.sectors diff);
  check Alcotest.int "requests" 2 (Request.Stats.requests diff);
  check Alcotest.bool "busy time positive" true (diff.Request.Stats.busy_time > 0.0)

(* ------------------------------------------------------------------ *)
(* Dcache *)

let test_dcache_hit_miss () =
  let c = Dcache.create ~segments:2 ~segment_sectors:64 in
  check Alcotest.bool "cold miss" false (Dcache.hit c ~lba:100 ~sectors:8);
  Dcache.install c ~lba:100 ~sectors:8;
  check Alcotest.bool "hit after install" true (Dcache.hit c ~lba:100 ~sectors:8);
  check Alcotest.bool "partial before" false (Dcache.hit c ~lba:96 ~sectors:8)

let test_dcache_settle_extends () =
  let c = Dcache.create ~segments:2 ~segment_sectors:64 in
  Dcache.install c ~lba:100 ~sectors:8;
  check Alcotest.bool "beyond frontier" false (Dcache.hit c ~lba:108 ~sectors:8);
  Dcache.settle c ~elapsed:1.0 ~sectors_per_sec:16.0 ~max_lba:10000;
  check Alcotest.bool "prefetched" true (Dcache.hit c ~lba:108 ~sectors:8)

let test_dcache_close_open_stops () =
  let c = Dcache.create ~segments:2 ~segment_sectors:64 in
  Dcache.install c ~lba:100 ~sectors:8;
  Dcache.close_open c;
  Dcache.settle c ~elapsed:10.0 ~sectors_per_sec:100.0 ~max_lba:10000;
  check Alcotest.bool "no growth after close" false (Dcache.hit c ~lba:108 ~sectors:8)

let test_dcache_invalidate () =
  let c = Dcache.create ~segments:2 ~segment_sectors:64 in
  Dcache.install c ~lba:100 ~sectors:8;
  Dcache.invalidate c ~lba:104 ~sectors:2;
  check Alcotest.bool "invalidated" false (Dcache.hit c ~lba:100 ~sectors:8)

let test_dcache_streaming_join () =
  let c = Dcache.create ~segments:2 ~segment_sectors:64 in
  Dcache.install c ~lba:100 ~sectors:8;
  (* A request at the frontier joins the stream. *)
  check (Alcotest.option Alcotest.int) "join with 0 cached" (Some 0)
    (Dcache.streaming c ~lba:108 ~sectors:8);
  (* The segment was extended; the same range is now a plain hit. *)
  check Alcotest.bool "now cached" true (Dcache.hit c ~lba:108 ~sectors:8)

let test_dcache_lru_eviction () =
  let c = Dcache.create ~segments:2 ~segment_sectors:64 in
  Dcache.install c ~lba:0 ~sectors:8;
  Dcache.install c ~lba:1000 ~sectors:8;
  Dcache.install c ~lba:2000 ~sectors:8;
  (* Two segments only: the oldest (0) is gone. *)
  check Alcotest.bool "oldest evicted" false (Dcache.hit c ~lba:0 ~sectors:8);
  check Alcotest.bool "newest present" true (Dcache.hit c ~lba:2000 ~sectors:8)

(* ------------------------------------------------------------------ *)
(* Drive service times *)

let rev_time = Cffs_util.Units.rpm_to_rev_time st31200.Profile.rpm

let test_drive_service_bounds () =
  let d = Drive.create st31200 in
  let prng = Prng.create 5 in
  for _ = 1 to 300 do
    Drive.advance d (Prng.float prng 0.02);
    let lba = Prng.int prng (Drive.total_sectors d - 8) in
    let t = Drive.service d (Request.read ~lba ~sectors:8) in
    (* A 4 KB access can't beat the bus and can't exceed
       overhead + max seek + full rotation + generous transfer. *)
    if t < 0.0004 || t > 0.040 then Alcotest.failf "service time %.4f out of bounds" t
  done

let test_drive_sequential_media_rate () =
  let d = Drive.create st31200 in
  let t0 = Drive.now d in
  let pos = ref 1000 in
  for _ = 1 to 256 do
    ignore (Drive.service d (Request.read ~lba:!pos ~sectors:64));
    pos := !pos + 64
  done;
  let mb = 256.0 *. 64.0 *. 512.0 /. 1.0e6 in
  let rate = mb /. (Drive.now d -. t0) in
  let media = Profile.media_mb_per_s st31200 in
  (* Within 40% of media rate (outer zone is faster than the average). *)
  check Alcotest.bool "sequential read near media rate" true
    (rate > media *. 0.6 && rate < media *. 1.6)

let test_drive_repeated_same_block_write_rotation () =
  (* Synchronously rewriting one block costs about a full revolution each
     time: the mechanism the paper exploits on delete is not free. *)
  let d = Drive.create st31200 in
  ignore (Drive.service d (Request.write ~lba:5000 ~sectors:8));
  let t = Drive.service d (Request.write ~lba:5000 ~sectors:8) in
  check Alcotest.bool "costs ~a revolution" true
    (t > 0.5 *. rev_time && t < (2.0 *. rev_time) +. 0.002)

let test_drive_advance_moves_clock () =
  let d = Drive.create st31200 in
  Drive.advance d 1.5;
  check (Alcotest.float 1e-9) "clock" 1.5 (Drive.now d)

let test_drive_cache_hits_counted () =
  let d = Drive.create st31200 in
  ignore (Drive.service d (Request.read ~lba:1000 ~sectors:64));
  ignore (Drive.service d (Request.read ~lba:1000 ~sectors:8));
  check Alcotest.int "one cache hit" 1 (Drive.stats d).Request.Stats.cache_hits

let test_drive_flush_cache () =
  let d = Drive.create st31200 in
  ignore (Drive.service d (Request.read ~lba:1000 ~sectors:64));
  Drive.flush_cache d;
  ignore (Drive.service d (Request.read ~lba:1000 ~sectors:8));
  check Alcotest.int "no hit after flush" 0 (Drive.stats d).Request.Stats.cache_hits

let test_drive_write_invalidates () =
  let d = Drive.create st31200 in
  ignore (Drive.service d (Request.read ~lba:1000 ~sectors:64));
  ignore (Drive.service d (Request.write ~lba:1010 ~sectors:8));
  ignore (Drive.service d (Request.read ~lba:1000 ~sectors:8));
  check Alcotest.int "read after write misses" 0 (Drive.stats d).Request.Stats.cache_hits

let test_random_4k_access_time_plausible () =
  (* The Figure 2 anchor: a random 4 KB access on the ST31200 averages about
     controller + avg seek + half rotation + transfer = 16-18 ms. *)
  let d = Drive.create st31200 in
  let prng = Prng.create 77 in
  let acc = ref 0.0 in
  let n = 500 in
  for _ = 1 to n do
    Drive.advance d (Prng.float prng 0.05);
    let lba = Prng.int prng (Drive.total_sectors d - 8) in
    acc := !acc +. Drive.service d (Request.read ~lba ~sectors:8)
  done;
  let avg_ms = !acc /. float_of_int n *. 1000.0 in
  check Alcotest.bool "random 4K ~17ms" true (avg_ms > 13.0 && avg_ms < 21.0)

(* ------------------------------------------------------------------ *)
(* Schedulers *)

let test_scheduler_names () =
  check (Alcotest.option Alcotest.string) "parse clook" (Some "C-LOOK")
    (Option.map Scheduler.policy_name (Scheduler.policy_of_string "c-look"));
  check (Alcotest.option Alcotest.string) "parse fifo alias" (Some "FCFS")
    (Option.map Scheduler.policy_name (Scheduler.policy_of_string "FIFO"));
  check Alcotest.bool "parse junk" true (Scheduler.policy_of_string "elevator?" = None)

let () =
  Alcotest.run "cffs_disk"
    [
      ( "profile",
        [
          Alcotest.test_case "capacities plausible" `Quick test_profile_capacities;
          Alcotest.test_case "media rates plausible" `Quick test_profile_media_rates;
          Alcotest.test_case "lookup by name" `Quick test_profile_lookup;
          Alcotest.test_case "C2247 bandwidth trend" `Quick test_profile_c2247_slower;
          Alcotest.test_case "truncated profile" `Quick test_profile_truncated;
        ] );
      ( "seek",
        [
          Alcotest.test_case "endpoints" `Quick test_seek_endpoints;
          Alcotest.test_case "monotonic" `Quick test_seek_monotonic;
          Alcotest.test_case "average matches spec" `Quick test_seek_average_fit;
          Alcotest.test_case "short seeks expensive" `Quick test_seek_short_seeks_expensive;
        ] );
      ( "geometry",
        [
          Alcotest.test_case "total sectors" `Quick test_geometry_total;
          Alcotest.test_case "first/last" `Quick test_geometry_first_last;
          Alcotest.test_case "bounds" `Quick test_geometry_out_of_range;
          qcheck_geometry_roundtrip;
          qcheck_geometry_monotone_cyl;
        ] );
      ( "request",
        [
          Alcotest.test_case "basics" `Quick test_request_basics;
          Alcotest.test_case "stats diff" `Quick test_stats_diff;
        ] );
      ( "dcache",
        [
          Alcotest.test_case "hit/miss" `Quick test_dcache_hit_miss;
          Alcotest.test_case "settle extends" `Quick test_dcache_settle_extends;
          Alcotest.test_case "close stops prefetch" `Quick test_dcache_close_open_stops;
          Alcotest.test_case "invalidate" `Quick test_dcache_invalidate;
          Alcotest.test_case "streaming join" `Quick test_dcache_streaming_join;
          Alcotest.test_case "segment eviction" `Quick test_dcache_lru_eviction;
        ] );
      ( "drive",
        [
          Alcotest.test_case "service bounds" `Quick test_drive_service_bounds;
          Alcotest.test_case "sequential ~ media rate" `Quick test_drive_sequential_media_rate;
          Alcotest.test_case "same-block rewrite ~ rotation" `Quick
            test_drive_repeated_same_block_write_rotation;
          Alcotest.test_case "advance" `Quick test_drive_advance_moves_clock;
          Alcotest.test_case "cache hits counted" `Quick test_drive_cache_hits_counted;
          Alcotest.test_case "flush cache" `Quick test_drive_flush_cache;
          Alcotest.test_case "write invalidates" `Quick test_drive_write_invalidates;
          Alcotest.test_case "random 4K ~ 17ms" `Quick test_random_4k_access_time_plausible;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "names" `Quick test_scheduler_names;
        ] );
    ]
