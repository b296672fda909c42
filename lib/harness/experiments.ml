module Tablefmt = Cffs_util.Tablefmt
module Prng = Cffs_util.Prng
module Profile = Cffs_disk.Profile
module Drive = Cffs_disk.Drive
module Request = Cffs_disk.Request
module Scheduler = Cffs_disk.Scheduler
module Cache = Cffs_cache.Cache
module Blockdev = Cffs_blockdev.Blockdev
module Volume = Cffs_volume.Volume
module Env = Cffs_workload.Env
module Smallfile = Cffs_workload.Smallfile
module Appbench = Cffs_workload.Appbench
module Aging = Cffs_workload.Aging
module Largefile = Cffs_workload.Largefile
module Mclient = Cffs_workload.Mclient
module Sizes = Cffs_workload.Sizes
module Statbench = Cffs_workload.Statbench
module Fs_intf = Cffs_vfs.Fs_intf
module Registry = Cffs_obs.Registry
module Sampler = Cffs_obs.Sampler
module Layout = Cffs_fsck.Layout
module Regroup = Cffs_fsck.Regroup

type scale = {
  smallfile_files : int;
  sweep_cap_bytes : int;
  aging_ops : int;
  aging_points : float list;
  aging_seed : int;
  decay_ops : int;
  app_spec : Appbench.spec;
  large_mb : int;
  fig2_samples : int;
  mclient : Mclient.params;
  stat_dirs : int;
  stat_files_per_dir : int;
  stat_repeats : int;
  stat_cache_blocks : int;
  dirindex_entries : int list;
      (** flat-directory sizes for the A8 linear-vs-indexed ablation *)
}

let full =
  {
    smallfile_files = 10000;
    sweep_cap_bytes = 16 * 1024 * 1024;
    aging_ops = 25000;
    aging_points = [ 0.1; 0.3; 0.5; 0.7; 0.9 ];
    aging_seed = 0xA9ED;
    decay_ops = 120_000;
    app_spec = Appbench.default_spec;
    large_mb = 64;
    fig2_samples = 1000;
    mclient =
      {
        Mclient.default_params with
        Mclient.nstreams = 8;
        files_per_stream = 200;
        large_mb = 8;
      };
    stat_dirs = 96;
    stat_files_per_dir = 32;
    stat_repeats = 5;
    stat_cache_blocks = 128;
    dirindex_entries = [ 1000; 10_000; 100_000; 1_000_000 ];
  }

let quick =
  {
    smallfile_files = 400;
    sweep_cap_bytes = 1024 * 1024;
    aging_ops = 1500;
    aging_points = [ 0.3; 0.7 ];
    aging_seed = 0xA9ED;
    decay_ops = 2000;
    app_spec = { Appbench.default_spec with dirs = 4; files_per_dir = 8 };
    large_mb = 8;
    fig2_samples = 100;
    mclient =
      {
        Mclient.default_params with
        Mclient.nstreams = 4;
        files_per_stream = 50;
        large_mb = 2;
      };
    stat_dirs = 64;
    stat_files_per_dir = 16;
    stat_repeats = 3;
    stat_cache_blocks = 48;
    dirindex_entries = [ 1000; 10_000 ];
  }

let f1 = Tablefmt.fmt_float ~decimals:1
let f2 = Tablefmt.fmt_float ~decimals:2

(* ------------------------------------------------------------------ *)
(* E1 / Table 1: drive characteristics. *)

let table1_profiles = [ Profile.hp_c3653; Profile.seagate_barracuda4lp; Profile.quantum_atlas_ii ]

let table1_drives () =
  let t =
    Tablefmt.create
      ~title:"Table 1: characteristics of three 1996 disk drives"
      (("Metric", Tablefmt.Left)
      :: List.map (fun (p : Profile.t) -> (p.Profile.name, Tablefmt.Right)) table1_profiles)
  in
  let row name f = Tablefmt.add_row t (name :: List.map f table1_profiles) in
  row "Formatted capacity" (fun p -> Tablefmt.fmt_bytes (Profile.capacity_bytes p));
  row "Rotation speed (RPM)" (fun p -> f1 p.Profile.rpm);
  row "Sectors per track (avg)" (fun p -> f1 (Profile.avg_sectors_per_track p));
  row "Media transfer rate (MB/s)" (fun p -> f2 (Profile.media_mb_per_s p));
  row "Seek < 1 cylinder (ms)" (fun p -> f2 p.Profile.single_cyl_seek_ms);
  row "Average seek (ms)" (fun p -> f2 p.Profile.avg_seek_ms);
  row "Maximum seek (ms)" (fun p -> f2 p.Profile.max_seek_ms);
  row "On-board cache" (fun p -> Tablefmt.fmt_bytes (p.Profile.cache_kib * 1024));
  row "Assumed fields" (fun p -> string_of_int (List.length p.Profile.assumed));
  t

(* ------------------------------------------------------------------ *)
(* E2 / Figure 2: average access time vs request size. *)

let fig2_sizes_kb = [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 ]

let mean_access_ms profile ~size_kb ~samples =
  let drive = Drive.create profile in
  let prng = Prng.create (0xF16 + size_kb) in
  let sectors = size_kb * 2 in
  let total = Drive.total_sectors drive in
  let acc = ref 0.0 in
  for _ = 1 to samples do
    (* Random think time decorrelates rotational phase. *)
    Drive.advance drive (Prng.float prng 0.03);
    let lba = Prng.int prng (total - sectors) in
    acc := !acc +. Drive.service drive (Request.read ~lba ~sectors)
  done;
  !acc /. float_of_int samples *. 1000.0

let fig2_access_time scale =
  let t =
    Tablefmt.create
      ~title:"Figure 2: average access time (ms) vs request size (random reads)"
      (("Request size", Tablefmt.Left)
      :: List.map (fun (p : Profile.t) -> (p.Profile.name, Tablefmt.Right)) table1_profiles)
  in
  List.iter
    (fun size_kb ->
      Tablefmt.add_row t
        (Tablefmt.fmt_bytes (size_kb * 1024)
        :: List.map
             (fun p -> f2 (mean_access_ms p ~size_kb ~samples:scale.fig2_samples))
             table1_profiles))
    fig2_sizes_kb;
  t

(* ------------------------------------------------------------------ *)
(* E3 / Table 2: the experimental-setup drive. *)

let table2_setup_drive () =
  let p = Profile.seagate_st31200 in
  let t =
    Tablefmt.create
      ~title:"Table 2: experimental-setup drive"
      [ ("Parameter", Tablefmt.Left); (p.Profile.name, Tablefmt.Right) ]
  in
  let row k v = Tablefmt.add_row t [ k; v ] in
  row "Formatted capacity" (Tablefmt.fmt_bytes (Profile.capacity_bytes p));
  row "Cylinders" (string_of_int p.Profile.cylinders);
  row "Data surfaces" (string_of_int p.Profile.heads);
  row "Rotation speed (RPM)" (f1 p.Profile.rpm);
  row "Sectors per track" (Printf.sprintf "%d-%d"
    (List.fold_left (fun a (z : Profile.zone) -> min a z.Profile.sectors_per_track) max_int p.Profile.zones)
    (List.fold_left (fun a (z : Profile.zone) -> max a z.Profile.sectors_per_track) 0 p.Profile.zones));
  row "Media transfer rate (MB/s)" (f2 (Profile.media_mb_per_s p));
  row "Single-cylinder seek (ms)" (f2 p.Profile.single_cyl_seek_ms);
  row "Average seek (ms)" (f2 p.Profile.avg_seek_ms);
  row "Maximum seek (ms)" (f2 p.Profile.max_seek_ms);
  row "Controller overhead (ms)" (f2 p.Profile.controller_overhead_ms);
  row "On-board cache" (Tablefmt.fmt_bytes (p.Profile.cache_kib * 1024));
  t

(* ------------------------------------------------------------------ *)
(* E4/E5/E6: the LFS small-file benchmark over the five configurations. *)

let smallfile scale policy =
  let policy_name = Cache.policy_name policy in
  let tput =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "Small-file benchmark (%d x 1 KB files), %s: throughput (files/s)"
           scale.smallfile_files policy_name)
      (("Configuration", Tablefmt.Left)
      :: List.map (fun p -> (Smallfile.phase_name p, Tablefmt.Right)) Smallfile.phases)
  in
  let reqs =
    Tablefmt.create
      ~title:
        (Printf.sprintf "Small-file benchmark, %s: disk requests per file" policy_name)
      (("Configuration", Tablefmt.Left)
      :: List.map (fun p -> (Smallfile.phase_name p, Tablefmt.Right)) Smallfile.phases)
  in
  List.iter
    (fun kind ->
      let inst = Setup.instantiate (Setup.standard ~policy kind) in
      let results = Smallfile.run ~nfiles:scale.smallfile_files inst.Setup.env in
      Tablefmt.add_row tput
        (Setup.fs_kind_label kind
        :: List.map (fun (r : Smallfile.result) -> f1 r.Smallfile.files_per_sec) results);
      Tablefmt.add_row reqs
        (Setup.fs_kind_label kind
        :: List.map (fun (r : Smallfile.result) -> f2 r.Smallfile.requests_per_file) results))
    Setup.five_configs;
  (tput, reqs)

(* ------------------------------------------------------------------ *)
(* E7: throughput vs file size. *)

let fig7_size_sweep scale =
  let sizes_kb = [ 1; 2; 4; 8; 16; 32; 64 ] in
  let t =
    Tablefmt.create
      ~title:
        "Figure 7: small-file throughput (KB/s of payload) vs file size, C-FFS vs no-technique baseline"
      [
        ("File size", Tablefmt.Left);
        ("base create", Tablefmt.Right);
        ("C-FFS create", Tablefmt.Right);
        ("speedup", Tablefmt.Right);
        ("base read", Tablefmt.Right);
        ("C-FFS read", Tablefmt.Right);
        ("speedup", Tablefmt.Right);
      ]
  in
  List.iter
    (fun size_kb ->
      let nfiles =
        max 50 (min scale.smallfile_files (scale.sweep_cap_bytes / (size_kb * 1024)))
      in
      let run kind =
        let inst = Setup.instantiate (Setup.standard kind) in
        Smallfile.run ~nfiles ~file_bytes:(size_kb * 1024) inst.Setup.env
      in
      let base = run (Setup.Cffs_fs Cffs.config_ffs_like) in
      let cffs = run (Setup.Cffs_fs Cffs.config_default) in
      let rate phase rs =
        let r = List.find (fun (r : Smallfile.result) -> r.Smallfile.phase = phase) rs in
        r.Smallfile.kb_per_sec
      in
      let bc = rate Smallfile.Create base and cc = rate Smallfile.Create cffs in
      let br = rate Smallfile.Read base and cr = rate Smallfile.Read cffs in
      Tablefmt.add_row t
        [
          Tablefmt.fmt_bytes (size_kb * 1024);
          f1 bc;
          f1 cc;
          f2 (cc /. bc) ^ "x";
          f1 br;
          f1 cr;
          f2 (cr /. br) ^ "x";
        ])
    sizes_kb;
  t

(* ------------------------------------------------------------------ *)
(* E8: aging. *)

let fig8_aging scale =
  let t =
    Tablefmt.create
      ~title:
        "Figure 8: aging - C-FFS cold-read throughput and grouping quality vs utilization"
      [
        ("Target util", Tablefmt.Right);
        ("Reached", Tablefmt.Right);
        ("Live files", Tablefmt.Right);
        ("Read files/s", Tablefmt.Right);
        ("Read reqs/file", Tablefmt.Right);
        ("Grouped fraction", Tablefmt.Right);
      ]
  in
  (* A ~120 MB slice of the ST31200: small enough that the churn actually
     fills it to the target utilization. *)
  let small_profile = Profile.truncated Profile.seagate_st31200 ~cylinders:320 in
  List.iter
    (fun util ->
      let setup =
        { (Setup.standard (Setup.Cffs_fs Cffs.config_default)) with
          Setup.profile = small_profile;
          Setup.cache_blocks = 4096;
        }
      in
      let inst = Setup.instantiate setup in
      let env = inst.Setup.env in
      let spec =
        { (Aging.default_spec util) with
          Aging.operations = scale.aging_ops;
          seed = scale.aging_seed;
        }
      in
      let outcome = Aging.run env spec in
      (* Measure small-file behaviour on the aged file system. *)
      let nfiles = max 100 (scale.smallfile_files / 5) in
      let results = Smallfile.run ~nfiles env in
      let read =
        List.find (fun (r : Smallfile.result) -> r.Smallfile.phase = Smallfile.Read) results
      in
      (* Grouping quality of the files created after aging — the fresh
         allocations are what fragmentation hurts. *)
      let grouped =
        match inst.Setup.cffs with
        | Some fs -> Cffs.grouped_fraction ~under:"/smallfile" fs
        | None -> 0.0
      in
      Tablefmt.add_row t
        [
          f2 util;
          f2 outcome.Aging.reached_utilization;
          string_of_int outcome.Aging.files_alive;
          f1 read.Smallfile.files_per_sec;
          f2 read.Smallfile.requests_per_file;
          f2 grouped;
        ])
    scale.aging_points;
  t

(* The decay-and-recovery curve behind Figure 8: grouping quality sampled
   on the simulated clock {e while} the churn runs — [scale.decay_ops]
   operations (10^5+ at full scale) toward the highest utilization the
   scale asks for — and then while an online regroup pass repairs the
   damage.  The aging driver and the regrouper both poll the installed
   sampler; the extra probe walks [/aged] at every sample point. *)
let fig8_decay scale =
  let util = List.fold_left max 0.0 scale.aging_points in
  let t =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "Figure 8 (decay + recovery): grouping quality over simulated \
            time while aging toward %.0f%% utilization, then across an \
            online regroup pass"
           (util *. 100.0))
      [
        ("t (sim s)", Tablefmt.Right);
        ("creates", Tablefmt.Right);
        ("unlinks", Tablefmt.Right);
        ("grouped fraction", Tablefmt.Right);
      ]
  in
  let small_profile = Profile.truncated Profile.seagate_st31200 ~cylinders:320 in
  let setup =
    { (Setup.standard (Setup.Cffs_fs Cffs.config_default)) with
      Setup.profile = small_profile;
      Setup.cache_blocks = 4096;
    }
  in
  let inst = Setup.instantiate setup in
  let env = inst.Setup.env in
  let probe () =
    [
      ( "aging.grouped_fraction",
        match inst.Setup.cffs with
        | Some fs -> Cffs.grouped_fraction ~under:"/aged" fs
        | None -> 0.0 );
    ]
  in
  let sampler =
    Sampler.create ~prefixes:[ "cffs.op." ] ~extra:probe ~interval_s:2.0
      ~start:(Blockdev.now env.Env.dev) ()
  in
  let spec =
    { (Aging.default_spec util) with
      Aging.operations = scale.decay_ops;
      seed = scale.aging_seed;
    }
  in
  Sampler.with_sampler sampler (fun () ->
      let (_ : Aging.outcome) = Aging.run env spec in
      (* Recovery: repack the decayed tree while sampling continues, so
         the curve's tail shows the grouped fraction climbing back. *)
      match inst.Setup.cffs with
      | Some fs ->
          let rspec = { Regroup.default_spec with Regroup.measure = false } in
          ignore (Regroup.run ~spec:rspec fs)
      | None -> ());
  let points = Sampler.samples sampler in
  (* The registry is global and cumulative, so op counts are shown as
     deltas from the first sample of this run. *)
  let base = match points with (_, v0) :: _ -> v0 | [] -> [] in
  let v values name = try List.assoc name values with Not_found -> 0.0 in
  (* Downsample to a dozen table rows; the full curve goes to telemetry. *)
  let n = List.length points in
  let stride = max 1 (n / 12) in
  List.iteri
    (fun i (t_s, values) ->
      if i mod stride = 0 || i = n - 1 then
        let d name = v values name -. v base name in
        Tablefmt.add_row t
          [
            f2 t_s;
            string_of_int (int_of_float (d "cffs.op.create_s.count"));
            string_of_int (int_of_float (d "cffs.op.unlink_s.count"));
            f2 (v values "aging.grouped_fraction");
          ])
    points;
  t

(* ------------------------------------------------------------------ *)
(* E9 / Table 3: software-development applications. *)

let table3_apps scale =
  let t =
    Tablefmt.create
      ~title:"Table 3: software-development applications (elapsed seconds)"
      [
        ("Application", Tablefmt.Left);
        ("FFS", Tablefmt.Right);
        ("C-FFS (none)", Tablefmt.Right);
        ("C-FFS (EI+EG)", Tablefmt.Right);
        ("improvement", Tablefmt.Right);
      ]
  in
  let run kind =
    let inst = Setup.instantiate (Setup.standard kind) in
    Appbench.run ~spec:scale.app_spec inst.Setup.env
  in
  let ffs = run Setup.Ffs_baseline in
  let base = run (Setup.Cffs_fs Cffs.config_ffs_like) in
  let cffs = run (Setup.Cffs_fs Cffs.config_default) in
  List.iter
    (fun app ->
      let sec rs =
        let r = List.find (fun (r : Appbench.result) -> r.Appbench.app = app) rs in
        r.Appbench.measure.Env.seconds
      in
      let b = sec base and c = sec cffs in
      Tablefmt.add_row t
        [
          Appbench.app_name app;
          f2 (sec ffs);
          f2 b;
          f2 c;
          Printf.sprintf "%+.0f%%" ((b /. c -. 1.0) *. 100.0);
        ])
    Appbench.apps;
  t

(* ------------------------------------------------------------------ *)
(* E10: the directory-size cost of embedded inodes. *)

let table_dirsize () =
  let nfiles = 1000 in
  let t =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "Directory sizes and lookup cost (%d files in one directory)" nfiles)
      [
        ("Configuration", Tablefmt.Left);
        ("Dir size", Tablefmt.Right);
        ("Bytes/file", Tablefmt.Right);
        ("Cold stat-all (s)", Tablefmt.Right);
        ("Disk reads", Tablefmt.Right);
      ]
  in
  List.iter
    (fun kind ->
      let inst = Setup.instantiate (Setup.standard kind) in
      let (Fs_intf.Packed ((module F), fs)) = inst.Setup.env.Env.fs in
      let ok = Cffs_vfs.Errno.get_ok in
      ok "mkdir" (F.mkdir fs "/d");
      for i = 0 to nfiles - 1 do
        ok "create" (F.write_file fs (Printf.sprintf "/d/f%04d" i) (Bytes.make 512 'x'))
      done;
      F.sync fs;
      let dir_size = (ok "stat" (F.stat fs "/d")).Fs_intf.st_size in
      F.remount fs;
      let m =
        Env.measured inst.Setup.env (fun () ->
            for i = 0 to nfiles - 1 do
              Blockdev.advance inst.Setup.env.Env.dev inst.Setup.env.Env.cpu_per_op;
              ignore (ok "stat" (F.stat fs (Printf.sprintf "/d/f%04d" i)))
            done)
      in
      Tablefmt.add_row t
        [
          Setup.fs_kind_label kind;
          Tablefmt.fmt_bytes dir_size;
          f1 (float_of_int dir_size /. float_of_int nfiles);
          f2 m.Env.seconds;
          string_of_int m.Env.reads;
        ])
    [
      Setup.Ffs_baseline;
      Setup.Cffs_fs Cffs.config_ffs_like;
      Setup.Cffs_fs { Cffs.config_default with grouping = false };
      Setup.Cffs_fs Cffs.config_default;
    ];
  t

(* ------------------------------------------------------------------ *)
(* E12: large files are unaffected. *)

let table_large scale =
  let t =
    Tablefmt.create
      ~title:
        (Printf.sprintf "Large-file sequential bandwidth (one %d MB file, MB/s)"
           scale.large_mb)
      [
        ("Configuration", Tablefmt.Left);
        ("write", Tablefmt.Right);
        ("cold read", Tablefmt.Right);
        ("rewrite", Tablefmt.Right);
      ]
  in
  List.iter
    (fun kind ->
      let inst = Setup.instantiate (Setup.standard kind) in
      let r = Largefile.run ~file_mb:scale.large_mb inst.Setup.env in
      Tablefmt.add_row t
        [
          Setup.fs_kind_label kind;
          f2 r.Largefile.write_mb_per_s;
          f2 r.Largefile.read_mb_per_s;
          f2 r.Largefile.rewrite_mb_per_s;
        ])
    [ Setup.Ffs_baseline; Setup.Cffs_fs Cffs.config_ffs_like; Setup.Cffs_fs Cffs.config_default ];
  t

(* ------------------------------------------------------------------ *)
(* A1: scheduler ablation.  Sequential create batches are already in LBA
   order, so the policy only shows on scattered traffic: random in-place
   updates over a large file population, flushed as one batch. *)

let ablation_scheduler scale =
  let t =
    Tablefmt.create
      ~title:
        "Ablation: disk scheduling policy (random in-place updates, one delayed flush)"
      [
        ("Scheduler", Tablefmt.Left);
        ("flush seconds", Tablefmt.Right);
        ("updates/s", Tablefmt.Right);
      ]
  in
  let nfiles = max 200 (scale.smallfile_files / 2) in
  let updates = nfiles * 3 / 4 in
  List.iter
    (fun sched ->
      let setup =
        {
          (Setup.standard ~policy:Cache.Delayed (Setup.Cffs_fs Cffs.config_ffs_like)) with
          Setup.scheduler = sched;
        }
      in
      let inst = Setup.instantiate setup in
      let env = inst.Setup.env in
      let (Fs_intf.Packed ((module F), fs)) = env.Env.fs in
      let ok what = Cffs_vfs.Errno.get_ok what in
      let prng = Prng.create 0x5C
 in
      ok "mkdir" (F.mkdir fs "/db");
      for d = 0 to 49 do
        ok "mkdir" (F.mkdir fs (Printf.sprintf "/db/d%02d" d))
      done;
      for i = 0 to nfiles - 1 do
        ok "w" (F.write_file fs (Printf.sprintf "/db/d%02d/f%05d" (i mod 50) i)
                  (Bytes.make 4096 'a'))
      done;
      F.sync fs;
      (* Random in-place updates leave dirty blocks scattered over the
         device; the flush is where the scheduler earns its keep. *)
      let m =
        Env.measured env (fun () ->
            for _ = 1 to updates do
              let i = Prng.int prng nfiles in
              ok "u" (F.write fs (Printf.sprintf "/db/d%02d/f%05d" (i mod 50) i)
                        ~off:0 (Bytes.make 4096 'u'))
            done;
            F.sync fs)
      in
      Tablefmt.add_row t
        [
          Scheduler.policy_name sched;
          f2 m.Env.seconds;
          f1 (float_of_int updates /. m.Env.seconds);
        ])
    [ Scheduler.Fcfs; Scheduler.Sstf; Scheduler.Clook ];
  t

(* ------------------------------------------------------------------ *)
(* A2: group-size ablation. *)

let ablation_group_size scale =
  let t =
    Tablefmt.create ~title:"Ablation: group frame size (C-FFS EI+EG)"
      [
        ("Frame size", Tablefmt.Left);
        ("create files/s", Tablefmt.Right);
        ("read files/s", Tablefmt.Right);
        ("overwrite files/s", Tablefmt.Right);
      ]
  in
  List.iter
    (fun gb ->
      let config = { Cffs.config_default with Cffs.group_blocks = gb } in
      let inst = Setup.instantiate (Setup.standard (Setup.Cffs_fs config)) in
      let results = Smallfile.run ~nfiles:scale.smallfile_files inst.Setup.env in
      let rate phase =
        let r = List.find (fun (r : Smallfile.result) -> r.Smallfile.phase = phase) results in
        r.Smallfile.files_per_sec
      in
      Tablefmt.add_row t
        [
          Tablefmt.fmt_bytes (gb * 4096);
          f1 (rate Smallfile.Create);
          f1 (rate Smallfile.Read);
          f1 (rate Smallfile.Overwrite);
        ])
    [ 4; 8; 16; 32; 64 ];
  t

(* ------------------------------------------------------------------ *)
(* Where the time goes: the mechanical split behind the headline results. *)

let table_breakdown scale =
  let t =
    Tablefmt.create
      ~title:
        "Time breakdown of the small-file benchmark (seconds per mechanical component)"
      [
        ("Phase", Tablefmt.Left);
        ("Config", Tablefmt.Left);
        ("total", Tablefmt.Right);
        ("seek", Tablefmt.Right);
        ("rotation", Tablefmt.Right);
        ("transfer", Tablefmt.Right);
        ("overhead", Tablefmt.Right);
        ("cache-hit", Tablefmt.Right);
        ("host/CPU", Tablefmt.Right);
      ]
  in
  let runs =
    List.map
      (fun kind ->
        let inst = Setup.instantiate (Setup.standard kind) in
        (kind, Smallfile.run ~nfiles:scale.smallfile_files inst.Setup.env))
      [ Setup.Cffs_fs Cffs.config_ffs_like; Setup.Cffs_fs Cffs.config_default ]
  in
  List.iter
    (fun phase ->
      List.iter
        (fun (kind, results) ->
          let r =
            List.find (fun (r : Smallfile.result) -> r.Smallfile.phase = phase) results
          in
          let m = r.Smallfile.measure in
          (* The residual after the drive components: host overhead, charged
             CPU think-time, and queue-idle gaps. *)
          let other =
            m.Env.seconds -. m.Env.seek_s -. m.Env.rotation_s
            -. m.Env.transfer_s -. m.Env.overhead_s -. m.Env.cachehit_s
          in
          Tablefmt.add_row t
            [
              Smallfile.phase_name phase;
              Setup.fs_kind_label kind;
              f2 m.Env.seconds;
              f2 m.Env.seek_s;
              f2 m.Env.rotation_s;
              f2 m.Env.transfer_s;
              f2 m.Env.overhead_s;
              f2 m.Env.cachehit_s;
              f2 other;
            ])
        runs;
      Tablefmt.add_separator t)
    Smallfile.phases;
  t

(* ------------------------------------------------------------------ *)
(* A3: read-ahead ablation (our extension; the paper's implementation
   "currently does not support prefetching"). *)

let ablation_readahead scale =
  let t =
    Tablefmt.create
      ~title:
        "Ablation: sequential read-ahead window (C-FFS extension), large-file cold read"
      [
        ("Window", Tablefmt.Left);
        ("read MB/s", Tablefmt.Right);
        ("write MB/s", Tablefmt.Right);
      ]
  in
  List.iter
    (fun window ->
      let config = { Cffs.config_default with Cffs.readahead_blocks = window } in
      let inst = Setup.instantiate (Setup.standard (Setup.Cffs_fs config)) in
      let r = Largefile.run ~file_mb:scale.large_mb inst.Setup.env in
      Tablefmt.add_row t
        [
          (if window = 0 then "off (paper)" else Tablefmt.fmt_bytes (window * 4096));
          f2 r.Largefile.read_mb_per_s;
          f2 r.Largefile.write_mb_per_s;
        ])
    [ 0; 4; 8; 16; 32 ];
  t

(* ------------------------------------------------------------------ *)
(* A4: concurrency ablation (our extension).  The multi-client workload —
   N small-file streams plus one large sequential stream — interleaved
   over the shared tagged queue, swept over queue depth and scheduling
   policy.  Depth 1 under FCFS degenerates to the strictly serial,
   arrival-ordered service of a queueless disk; a deep C-LOOK window with
   write coalescing lets the device sort and merge across clients. *)

let run_mclient ?(config = Cffs.config_ffs_like) ?(drives = 1)
    ?(vol_layout = Volume.Striped) scale ~qdepth ~sched ~coalesce =
  let params =
    { scale.mclient with Mclient.qdepth; sched; coalesce }
  in
  let inst =
    Setup.instantiate (Setup.standard ~drives ~vol_layout (Setup.Cffs_fs config))
  in
  Mclient.run ~params ~cache:(Setup.cache_of inst) inst.Setup.env

let concurrency_points =
  [
    (1, Scheduler.Fcfs, false);
    (4, Scheduler.Clook, true);
    (8, Scheduler.Clook, true);
    (16, Scheduler.Clook, true);
    (8, Scheduler.Sstf, true);
  ]

let ablation_concurrency scale =
  let t =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "Ablation: tagged queue depth and scheduler (%d small-file streams + \
            1 large)"
           scale.mclient.Mclient.nstreams)
      [
        ("Configuration", Tablefmt.Left);
        ("qdepth/sched", Tablefmt.Left);
        ("small KB/s", Tablefmt.Right);
        ("large KB/s", Tablefmt.Right);
        ("total KB/s", Tablefmt.Right);
        ("mean qdepth", Tablefmt.Right);
        ("wait p95 ms", Tablefmt.Right);
        ("dispatches", Tablefmt.Right);
        ("coalesced", Tablefmt.Right);
      ]
  in
  (* Grouping already captures most of the small-file locality
     synchronously (one group read per frame), so the queue's headroom is
     largest on the no-technique configuration — the comparison shows
     both. *)
  List.iter
    (fun (label, config) ->
      List.iter
        (fun (qdepth, sched, coalesce) ->
          let r = run_mclient ~config scale ~qdepth ~sched ~coalesce in
          Tablefmt.add_row t
            [
              label;
              Printf.sprintf "%2d %s%s" qdepth (Mclient.sched_name sched)
                (if coalesce then "+coalesce" else "");
              f1 r.Mclient.small_kb_per_sec;
              f1 r.Mclient.large_kb_per_sec;
              f1 r.Mclient.total_kb_per_sec;
              (match r.Mclient.qdepth_mean with Some v -> f1 v | None -> "n/a");
              (match r.Mclient.wait_p95_ms with Some v -> f2 v | None -> "n/a");
              string_of_int r.Mclient.dispatches;
              string_of_int r.Mclient.coalesced;
            ])
        concurrency_points;
      Tablefmt.add_separator t)
    [
      ("C-FFS (none)", Cffs.config_ffs_like);
      ("C-FFS (EI+EG)", Cffs.config_default);
    ];
  t

(* ------------------------------------------------------------------ *)
(* A9: multi-volume scaling (our extension).  The multi-client read
   phase maps every stream's files to physical runs and submits each
   round through one composite prefetch; with group-aligned striping
   the streams' directories — and therefore their group frames — sit in
   different cylinder groups, i.e. on different spindles, so one round
   keeps every drive's queue busy at once and the drains overlap.  On
   one spindle the same round serializes.  The meta-split point sends
   group headers (and, for FFS, inode tables) to a dedicated spindle,
   CFS-style, which helps metadata-heavy phases rather than grouped
   data reads — it is the contrast, not the headline. *)

type vol_point = {
  vp_drives : int;
  vp_layout : Volume.layout;
  vp_result : Mclient.result;
  vp_spindles : Volume.spindle list;
}

type volume_scaling = {
  vol_points : vol_point list;
  vol_meta_split : vol_point option;
  vol_speedup : float;
}

let volume_point ?(config = Cffs.config_default) ?(qdepth = 16) scale ~drives
    ~layout =
  let inst =
    Setup.instantiate
      (Setup.standard ~drives ~vol_layout:layout (Setup.Cffs_fs config))
  in
  (* The A9 stream shape: at least as many client streams as the widest
     sweep point has spindles (so every drive owns whole directories),
     no large stream (its single extent lives in one cylinder group —
     one spindle — and would serialize the phase), and files of exactly
     the grouping threshold (8 blocks): the largest file that still
     travels entirely in group frames, which keeps the measured phase
     data-dominated rather than per-op-CPU-dominated. *)
  let params =
    {
      scale.mclient with
      Mclient.nstreams = max 8 scale.mclient.Mclient.nstreams;
      file_bytes = 8 * 4096;
      large_mb = 0;
      qdepth;
      sched = Scheduler.Clook;
      coalesce = true;
    }
  in
  let r = Mclient.run ~params ~cache:(Setup.cache_of inst) inst.Setup.env in
  {
    vp_drives = drives;
    vp_layout = inst.Setup.setup.Setup.vol_layout;
    vp_result = r;
    vp_spindles = Volume.spindles inst.Setup.env.Env.dev;
  }

let volume_scaling ?(config = Cffs.config_default) ?(drives = [ 1; 2; 4 ])
    ?(layout = Volume.Striped) scale =
  let contrast =
    match layout with
    | Volume.Meta_split -> Volume.Striped
    | _ -> Volume.Meta_split
  in
  let points =
    List.map (fun n -> volume_point ~config scale ~drives:n ~layout) drives
  in
  let meta_split =
    match List.rev drives with
    | n :: _ when n >= 2 ->
        Some (volume_point ~config scale ~drives:n ~layout:contrast)
    | _ -> None
  in
  let speedup =
    match (points, List.rev points) with
    | first :: _, last :: _
      when first.vp_result.Mclient.small_kb_per_sec > 0.0 ->
        last.vp_result.Mclient.small_kb_per_sec
        /. first.vp_result.Mclient.small_kb_per_sec
    | _ -> 0.0
  in
  { vol_points = points; vol_meta_split = meta_split; vol_speedup = speedup }

let ablation_volume scale =
  let vs = volume_scaling scale in
  let t =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "Ablation: spindles per volume (%d small-file streams, C-FFS \
            (EI+EG))"
           (max 8 scale.mclient.Mclient.nstreams))
      [
        ("drives/layout", Tablefmt.Left);
        ("small KB/s", Tablefmt.Right);
        ("vs 1 drive", Tablefmt.Right);
        ("files/s", Tablefmt.Right);
        ("busy min s", Tablefmt.Right);
        ("busy max s", Tablefmt.Right);
      ]
  in
  let base =
    match vs.vol_points with
    | p :: _ -> p.vp_result.Mclient.small_kb_per_sec
    | [] -> 0.0
  in
  let row p =
    let busy = List.map (fun s -> s.Volume.s_busy_s) p.vp_spindles in
    let fold f init = List.fold_left f init busy in
    Tablefmt.add_row t
      [
        Printf.sprintf "%d %s" p.vp_drives (Volume.layout_name p.vp_layout);
        f1 p.vp_result.Mclient.small_kb_per_sec;
        (if base > 0.0 then
           Printf.sprintf "%.2fx" (p.vp_result.Mclient.small_kb_per_sec /. base)
         else "n/a");
        f1 p.vp_result.Mclient.small_files_per_sec;
        (if busy = [] then "n/a" else f2 (fold min infinity));
        (if busy = [] then "n/a" else f2 (fold max 0.0));
      ]
  in
  List.iter row vs.vol_points;
  (match vs.vol_meta_split with
  | Some p ->
      Tablefmt.add_separator t;
      row p
  | None -> ());
  t

(* ------------------------------------------------------------------ *)
(* A5: namei ablation (our extension).  The stat-heavy workload over
   {FFS, C-FFS (none), C-FFS (EI+EG)} with the dentry/attribute cache on
   and off.  The buffer cache is sized deliberately below the tree's
   metadata working set so warm *uncached* resolution goes back to the
   disk; the namei caches answer from memory without touching blocks at
   all, which is where the repeated-stat gap comes from.  readdir_plus
   makes the cold "ls -l" column interesting on its own: with embedded
   inodes the attributes ride along in the directory blocks, while FFS
   pays one inode-table fetch per name. *)

(* ------------------------------------------------------------------ *)
(* A6: write-policy churn.  Create/delete throughput (the metadata-bound
   smallfile phases) and the multi-client small-file aggregate over every
   write policy on full C-FFS.  The row that earns the table is
   [journaled]: one sequential log append per barrier instead of one
   synchronous scattered write per metadata block, at Sync_metadata-class
   crash safety (Crashmc holds it to a stricter bar than the ordered
   policies — see DESIGN.md §15). *)

let ablation_journal scale =
  let t =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "Ablation: write policy vs create/delete churn (%d x 1 KB files, \
            C-FFS EI+EG)"
           scale.smallfile_files)
      [
        ("Policy", Tablefmt.Left);
        ("create files/s", Tablefmt.Right);
        ("delete files/s", Tablefmt.Right);
        ("create req/file", Tablefmt.Right);
        ("mclient small KB/s", Tablefmt.Right);
      ]
  in
  List.iter
    (fun policy ->
      let kind = Setup.Cffs_fs Cffs.config_default in
      let inst = Setup.instantiate (Setup.standard ~policy kind) in
      let results = Smallfile.run ~nfiles:scale.smallfile_files inst.Setup.env in
      let phase p =
        List.find (fun (r : Smallfile.result) -> r.Smallfile.phase = p) results
      in
      let create = phase Smallfile.Create and delete = phase Smallfile.Delete in
      let minst = Setup.instantiate (Setup.standard ~policy kind) in
      let m =
        Mclient.run ~params:scale.mclient ~cache:(Setup.cache_of minst)
          minst.Setup.env
      in
      Tablefmt.add_row t
        [
          Cache.policy_name policy;
          f1 create.Smallfile.files_per_sec;
          f1 delete.Smallfile.files_per_sec;
          f2 create.Smallfile.requests_per_file;
          f1 m.Mclient.small_kb_per_sec;
        ])
    Cache.all_policies;
  t

(* A linear directory pays a full scan per create (to prove the name
   absent before appending), so populating one is quadratic in the entry
   count: a 10^6-entry linear populate visits tens of billions of
   directory blocks and is infeasible at any simulation scale.  Linear
   rows past this cap are omitted from the A8 table — the omission is
   itself a result — and statbench's big-directory phase clamps its
   un-indexed configurations to it. *)
let dirindex_linear_cap = 100_000

let run_statbench ?policy ?entries ?depth ?(drives = 1)
    ?(vol_layout = Volume.Striped) scale ~fs ~namei =
  let entries =
    match (entries, fs) with
    | Some n, Setup.Ffs_baseline -> Some (min n dirindex_linear_cap)
    | Some n, Setup.Cffs_fs c when c.Cffs.dirindex_threshold <= 0 ->
        Some (min n dirindex_linear_cap)
    | e, _ -> e
  in
  let setup =
    {
      (Setup.standard ?policy ~namei ~drives ~vol_layout fs) with
      Setup.cache_blocks = scale.stat_cache_blocks;
    }
  in
  let inst = Setup.instantiate setup in
  let before = Registry.snapshot () in
  let results =
    Statbench.run ~dirs:scale.stat_dirs
      ~files_per_dir:scale.stat_files_per_dir ~repeats:scale.stat_repeats
      ?entries ?depth inst.Setup.env
  in
  let delta = Registry.diff (Registry.snapshot ()) before in
  (results, delta)

let namei_configs =
  [
    Setup.Ffs_baseline;
    Setup.Cffs_fs Cffs.config_ffs_like;
    Setup.Cffs_fs Cffs.config_default;
  ]

let ablation_namei scale =
  let t =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "Ablation: dentry/attribute cache (namei), stat-heavy workload \
            (%d dirs x %d files, %d-block buffer cache)"
           scale.stat_dirs scale.stat_files_per_dir scale.stat_cache_blocks)
      [
        ("Configuration", Tablefmt.Left);
        ("namei", Tablefmt.Left);
        ("walk s", Tablefmt.Right);
        ("ls warm s", Tablefmt.Right);
        ("stat cold s", Tablefmt.Right);
        ("stat warm s", Tablefmt.Right);
        ("warm stat/s", Tablefmt.Right);
        ("dentry hit%", Tablefmt.Right);
        ("attr hit%", Tablefmt.Right);
      ]
  in
  let pct hits misses =
    let total = hits + misses in
    if total = 0 then "-"
    else f1 (100.0 *. float_of_int hits /. float_of_int total)
  in
  List.iter
    (fun fs ->
      List.iter
        (fun (tag, namei) ->
          let results, delta = run_statbench scale ~fs ~namei in
          let phase p =
            List.find (fun (r : Statbench.result) -> r.Statbench.phase = p)
              results
          in
          let secs p = (phase p).Statbench.measure.Env.seconds in
          let c name = Registry.get_counter delta name in
          Tablefmt.add_row t
            [
              Setup.fs_kind_label fs;
              tag;
              f2 (secs Statbench.Walk);
              f2 (secs Statbench.Ls_warm);
              f2 (secs Statbench.Stat_cold);
              f2 (secs Statbench.Stat_warm);
              Tablefmt.fmt_float ~decimals:0
                (phase Statbench.Stat_warm).Statbench.ops_per_sec;
              pct (c "namei.dentry_hits") (c "namei.dentry_misses");
              pct (c "namei.attr_hits") (c "namei.attr_misses");
            ])
        [
          ("off", Cffs_namei.Namei.config_disabled);
          ("on", Cffs_namei.Namei.config_default);
        ];
      Tablefmt.add_separator t)
    namei_configs;
  t

(* ------------------------------------------------------------------ *)
(* A7: the online regrouper.  Fresh vs aged vs aged-then-regrouped on the
   fig8 slice of the ST31200: does a regroup pass buy back the small-file
   read throughput that aging cost, and does measured group residency
   actually recover?  Every row gets an identical create-only probe tree
   before measurement so the fresh row's residency is measured, not
   assumed (a just-formatted image has no small files at all, and the
   layout introspector would report zero residency for it). *)

type regroup_stage = Fresh | Aged | Regrouped

type regroup_recovery = {
  fresh_read_s : float;
  fresh_reqs_per_file : float;
  fresh_residency : float;
  aged_read_s : float;
  aged_reqs_per_file : float;
  aged_residency : float;
  regrouped_read_s : float;
  regrouped_reqs_per_file : float;
  regrouped_residency : float;
  regroup_outcome : Regroup.outcome option;
  regroup_passes : int;
}

(* The A7 working set: multi-block small files (2..5 blocks at 4 KB) in a
   shallow tree — the shapes the regrouper exists for.  Single-block files
   are trivially frame-resident, so they would mask layout decay. *)
let regroup_work_sizes = [| 6144; 9216; 14336; 20480; 8192; 13312 |]

(* One A7 row: build the layout the stage asks for, then create the SAME
   deterministic working set on whatever free space that stage left
   behind.  On the fresh image it lands wholly in frames; created after
   aging it fragments; the [Regrouped] stage then runs a pass over the
   image (working set included) before measuring.  Residency is computed
   over the working set alone so the three rows share a base, and the read
   rate is a cold (post-remount) sweep of those same files. *)
let regroup_row scale stage =
  (* A deliberately small disk: aging must actually reach high utilization
     for allocation pressure to fragment the working set, and a seek-true
     drive model is what makes the read-rate recovery measurable. *)
  let small_profile = Profile.truncated Profile.seagate_st31200 ~cylinders:40 in
  let setup =
    { (Setup.standard (Setup.Cffs_fs Cffs.config_default)) with
      Setup.profile = small_profile;
      Setup.cache_blocks = 4096;
    }
  in
  let inst = Setup.instantiate setup in
  let env = inst.Setup.env in
  let fs =
    match inst.Setup.cffs with
    | Some fs -> fs
    | None -> invalid_arg "regroup_row: C-FFS instance expected"
  in
  if stage <> Fresh then begin
    let util = max 0.80 (List.fold_left max 0.0 scale.aging_points) in
    let spec =
      { (Aging.default_spec util) with
        Aging.operations = max 2500 scale.aging_ops;
        seed = scale.aging_seed;
      }
    in
    let (_ : Aging.outcome) = Aging.run env spec in
    ()
  end;
  let nfiles = max 60 (scale.smallfile_files / 25) in
  let files_per_dir = 20 in
  (match Cffs.mkdir fs "/work" with Ok () | Error _ -> ());
  let work = ref [] in
  for i = 0 to nfiles - 1 do
    let dir = Printf.sprintf "/work/d%02d" (i / files_per_dir) in
    if i mod files_per_dir = 0 then
      (match Cffs.mkdir fs dir with Ok () | Error _ -> ());
    let bytes = regroup_work_sizes.(i mod Array.length regroup_work_sizes) in
    let path = Printf.sprintf "%s/f%04d" dir i in
    match Cffs.write_file fs path (Bytes.make bytes (Char.chr (97 + (i mod 26)))) with
    | Ok () -> work := path :: !work
    | Error _ -> ()
  done;
  let work = List.rev !work in
  Cffs.sync fs;
  (* Compaction is incremental: early moves free scattered source blocks,
     which later passes turn into destination frames.  Run to convergence
     (bounded), as an online regrouper daemon would across idle periods.
     The outcome is the last pass's, with [moved] and [blocks_copied]
     summed over every pass — the last one moves nothing by
     construction — paired with the number of passes. *)
  let outcome =
    if stage <> Regrouped then None
    else begin
      let rec converge (total : Regroup.outcome) passes n =
        if n = 0 then (total, passes)
        else
          let o = Regroup.run fs in
          let total =
            {
              o with
              Regroup.moved = total.Regroup.moved + o.Regroup.moved;
              blocks_copied = total.Regroup.blocks_copied + o.Regroup.blocks_copied;
            }
          in
          if o.Regroup.moved = 0 then (total, passes + 1)
          else converge total (passes + 1) (n - 1)
      in
      Some (converge (Regroup.run fs) 1 16)
    end
  in
  let residency =
    let small_blocks = (Cffs.superblock fs).Cffs.Csb.group_file_blocks in
    let total = ref 0 and grouped = ref 0 in
    List.iter
      (fun path ->
        match Cffs.file_runs fs path with
        | Error _ -> ()
        | Ok runs ->
            let blocks =
              List.concat_map (fun (s, n) -> List.init n (fun i -> s + i)) runs
            in
            let nb = List.length blocks in
            if nb > 0 && nb <= small_blocks then begin
              incr total;
              match List.map (Cffs.frame_of_block fs) blocks with
              | Some f :: rest when List.for_all (fun g -> g = Some f) rest ->
                  incr grouped
              | _ -> ()
            end)
      work;
    if !total = 0 then 0.0
    else float_of_int !grouped /. float_of_int !total
  in
  (* Cold reads of the working set, in a fixed shuffled order (identical
     across the three stages): every file pays its own positioning cost,
     so the measured difference is how many requests each file needs —
     grouping quality — not the disk order the files happen to be in. *)
  Cffs.remount fs;
  let order =
    let a = Array.of_list work in
    let prng = Prng.create 0xA7 in
    for i = Array.length a - 1 downto 1 do
      let j = Prng.int prng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  let op () =
    Blockdev.advance env.Env.dev env.Env.cpu_per_op;
    Sampler.poll_current ~now:(Blockdev.now env.Env.dev)
  in
  let m =
    Env.measured env (fun () ->
        List.iter
          (fun path ->
            op ();
            ignore (Cffs.read_file fs path))
          order;
        Cffs.sync fs)
  in
  let n = float_of_int (List.length work) in
  let read_s = if m.Env.seconds <= 0.0 then 0.0 else n /. m.Env.seconds in
  let reqs = if n = 0.0 then 0.0 else float_of_int m.Env.requests /. n in
  (read_s, reqs, residency, outcome)

let regroup_recovery scale =
  let f_read, f_reqs, f_res, _ = regroup_row scale Fresh in
  let a_read, a_reqs, a_res, _ = regroup_row scale Aged in
  let r_read, r_reqs, r_res, outcome = regroup_row scale Regrouped in
  {
    fresh_read_s = f_read;
    fresh_reqs_per_file = f_reqs;
    fresh_residency = f_res;
    aged_read_s = a_read;
    aged_reqs_per_file = a_reqs;
    aged_residency = a_res;
    regrouped_read_s = r_read;
    regrouped_reqs_per_file = r_reqs;
    regrouped_residency = r_res;
    regroup_outcome = Option.map fst outcome;
    regroup_passes = (match outcome with Some (_, n) -> n | None -> 0);
  }

let ablation_regroup scale =
  let util = max 0.80 (List.fold_left max 0.0 scale.aging_points) in
  let t =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "A7: online regrouping - working-set cold reads and residency, \
            fresh vs aged (%.0f%% util) vs aged+regrouped"
           (util *. 100.0))
      [
        ("Layout", Tablefmt.Left);
        ("Residency", Tablefmt.Right);
        ("Read files/s", Tablefmt.Right);
        ("Read reqs/file", Tablefmt.Right);
        ("vs fresh", Tablefmt.Right);
        ("Moved", Tablefmt.Right);
      ]
  in
  let rows =
    List.map
      (fun (label, stage) -> (label, regroup_row scale stage))
      [ ("fresh", Fresh); ("aged", Aged); ("aged+regrouped", Regrouped) ]
  in
  let fresh_read =
    match rows with (_, (r, _, _, _)) :: _ -> r | [] -> 0.0
  in
  List.iter
    (fun (label, (read, reqs, res, outcome)) ->
      Tablefmt.add_row t
        [
          label;
          f2 res;
          f1 read;
          f2 reqs;
          (if fresh_read > 0.0 then f2 (read /. fresh_read) ^ "x" else "-");
          (match outcome with
          | Some (o, passes) ->
              Printf.sprintf "%d (%d blk, %d passes)" o.Regroup.moved
                o.Regroup.blocks_copied passes
          | None -> "-");
        ])
    rows;
  t

(* ------------------------------------------------------------------ *)
(* A8: hashed directory index - one flat directory, linear vs indexed. *)

let dirindex_probes = 200

let dirindex_cell ~entries config =
  (* Two cache sizes, deliberately different.  The populate runs behind a
     generous cache (32 MB) with delayed writeback: the phase is a warm
     in-memory churn in both formats, so the create/s column compares the
     directory formats, not the populate's eviction pattern.  The probe
     then remounts the same device behind a small cache (512 blocks =
     2 MB, far below the big directory): the index's claim is about how
     many blocks a *cold* lookup touches, and a cache that held the whole
     directory would hide the linear re-scan after the first few
     probes. *)
  let populate_cache = 8192 in
  let probe_cache = 512 in
  let setup =
    { (Setup.standard ~policy:Cache.Delayed (Setup.Cffs_fs config)) with
      Setup.cache_blocks = populate_cache;
    }
  in
  let inst = Setup.instantiate setup in
  let env = inst.Setup.env in
  let fs =
    match inst.Setup.cffs with
    | Some fs -> fs
    | None -> invalid_arg "dirindex_cell: C-FFS instance expected"
  in
  let op () =
    Blockdev.advance env.Env.dev env.Env.cpu_per_op;
    Sampler.poll_current ~now:(Blockdev.now env.Env.dev)
  in
  let fail what e =
    failwith
      (Printf.sprintf "ablation_dirindex %s: %s" what
         (Cffs_vfs.Errno.to_string e))
  in
  let name i = Printf.sprintf "/big/e%07d" i in
  (match Cffs.mkdir fs "/big" with Ok () -> () | Error e -> fail "mkdir" e);
  let before = Registry.snapshot () in
  let m_pop =
    Env.measured env (fun () ->
        for i = 0 to entries - 1 do
          op ();
          match Cffs.create fs (name i) with
          | Ok _ -> ()
          | Error e -> fail (name i) e
        done;
        Cffs.sync fs)
  in
  let delta = Registry.diff (Registry.snapshot ()) before in
  let promotions = Registry.get_counter delta "dirindex.promotions" in
  let splits = Registry.get_counter delta "dirindex.leaf_splits" in
  let fs =
    match Cffs.mount ~cache_blocks:probe_cache env.Env.dev with
    | Some fs -> fs
    | None -> failwith "ablation_dirindex: probe mount failed"
  in
  (* Stride-sampled, shuffled probe names: coverage of the whole entry
     range without a sequential sweep the scheduler could exploit. *)
  let nprobe = min entries dirindex_probes in
  let stride = entries / nprobe in
  let probe = Array.init nprobe (fun k -> k * stride) in
  let prng = Prng.create 0xD1D8 in
  for i = nprobe - 1 downto 1 do
    let j = Prng.int prng (i + 1) in
    let t = probe.(i) in
    probe.(i) <- probe.(j);
    probe.(j) <- t
  done;
  let m_probe =
    Env.measured env (fun () ->
        Array.iter
          (fun i ->
            op ();
            match Cffs.stat fs (name i) with
            | Ok _ -> ()
            | Error e -> fail ("stat " ^ name i) e)
          probe)
  in
  let per num seconds =
    if seconds <= 0.0 then 0.0 else float_of_int num /. seconds
  in
  ( per entries m_pop.Env.seconds,
    per nprobe m_probe.Env.seconds,
    float_of_int m_probe.Env.reads /. float_of_int nprobe,
    promotions,
    splits )

let ablation_dirindex scale =
  let t =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "A8: hashed directory index - one flat directory, linear vs \
            indexed, cold stat of %d sampled names (512-block cache; \
            linear omitted past %d entries: quadratic populate)"
           dirindex_probes dirindex_linear_cap)
      [
        ("Entries", Tablefmt.Right);
        ("Format", Tablefmt.Left);
        ("Create/s", Tablefmt.Right);
        ("Cold stat/s", Tablefmt.Right);
        ("Reads/name", Tablefmt.Right);
        ("Promotions", Tablefmt.Right);
        ("Splits", Tablefmt.Right);
        ("Stat speedup", Tablefmt.Right);
      ]
  in
  List.iter
    (fun entries ->
      let linear =
        if entries <= dirindex_linear_cap then
          Some
            (dirindex_cell ~entries
               { Cffs.config_default with Cffs.dirindex_threshold = 0 })
        else None
      in
      let indexed = dirindex_cell ~entries Cffs.config_default in
      let row label (create_s, stat_s, reads, promotions, splits) speedup =
        Tablefmt.add_row t
          [
            string_of_int entries;
            label;
            f1 create_s;
            f1 stat_s;
            f2 reads;
            string_of_int promotions;
            string_of_int splits;
            speedup;
          ]
      in
      (match linear with
      | Some cell -> row "linear" cell "1.0x"
      | None ->
          Tablefmt.add_row t
            [ string_of_int entries; "linear"; "-"; "-"; "-"; "-"; "-"; "-" ]);
      let speedup =
        match (linear, indexed) with
        | Some (_, linear_stat_s, _, _, _), (_, indexed_stat_s, _, _, _)
          when linear_stat_s > 0.0 ->
            f1 (indexed_stat_s /. linear_stat_s) ^ "x"
        | _ -> "-"
      in
      row "indexed" indexed speedup)
    scale.dirindex_entries;
  t

(* ------------------------------------------------------------------ *)

let experiments =
  let one f scale = [ f scale ] in
  let smallfile_tables policy scale =
    let tput, reqs = smallfile scale policy in
    [ tput; reqs ]
  in
  [
    ("table1", fun _ -> [ table1_drives () ]);
    ("fig2", one fig2_access_time);
    ("table2", fun _ -> [ table2_setup_drive () ]);
    ("fig4", smallfile_tables Cache.Sync_metadata);
    ("fig6", smallfile_tables Cache.Delayed);
    ("softupdates", smallfile_tables Cache.Soft_updates);
    ("journaled", smallfile_tables Cache.Journaled);
    ("fig7", one fig7_size_sweep);
    ("fig8", one fig8_aging);
    ("fig8decay", one fig8_decay);
    ("table3", one table3_apps);
    ("dirsize", fun _ -> [ table_dirsize () ]);
    ("large", one table_large);
    ("breakdown", one table_breakdown);
    ("sched", one ablation_scheduler);
    ("groupsize", one ablation_group_size);
    ("readahead", one ablation_readahead);
    ("concurrency", one ablation_concurrency);
    ("volume", one ablation_volume);
    ("namei", one ablation_namei);
    ("journal", one ablation_journal);
    ("regroup", one ablation_regroup);
    ("dirindex", one ablation_dirindex);
  ]

let print_tables =
  List.iter (fun t ->
      Tablefmt.print t;
      print_newline ())

let run_all scale = List.iter (fun (_, tables) -> print_tables (tables scale)) experiments
