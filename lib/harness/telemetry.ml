module Registry = Cffs_obs.Registry
module Json = Cffs_obs.Json
module Sampler = Cffs_obs.Sampler
module Env = Cffs_workload.Env
module Smallfile = Cffs_workload.Smallfile
module Tablefmt = Cffs_util.Tablefmt
module Blockdev = Cffs_blockdev.Blockdev
module Volume = Cffs_volume.Volume
module Fs_intf = Cffs_vfs.Fs_intf
module Obs_low = Cffs_vfs.Obs_low
module Layout = Cffs_fsck.Layout

let schema = "cffs-telemetry-v2"

(* Time-series capture: metric prefixes worth curves.  The op histograms
   contribute [.count]/[.sum_s] series (rates by diffing points) and the
   drive fcounters the mechanical-time split over time. *)
let sample_prefixes = [ "drive."; "cffs.op."; "ffs.op." ]

type config_run = {
  label : string;
  results : Smallfile.result list;
  delta : Registry.snapshot;  (** registry delta over the run *)
  timeseries : Json.t;  (** sampler output captured during the run *)
}

let run_config ?(sample_interval_s = 0.5) ~nfiles ~file_bytes ~policy fs =
  let inst = Setup.instantiate (Setup.standard ~policy fs) in
  let before = Registry.snapshot () in
  let sampler =
    Sampler.create ~prefixes:sample_prefixes ~interval_s:sample_interval_s
      ~start:(Blockdev.now inst.Setup.env.Env.dev) ()
  in
  let results =
    Sampler.with_sampler sampler (fun () ->
        Smallfile.run ~nfiles ~file_bytes inst.Setup.env)
  in
  let delta = Registry.diff (Registry.snapshot ()) before in
  {
    label = Setup.fs_kind_label fs;
    results;
    delta;
    timeseries = Sampler.to_json sampler;
  }

(* The two endpoints of the paper's comparison: both-techniques-off (the
   conventional FFS-style configuration) and both-techniques-on. *)
let default_pair =
  [ Setup.Cffs_fs Cffs.config_ffs_like; Setup.Cffs_fs Cffs.config_default ]

let measure_fields (m : Env.measure) =
  [
    ("seconds", Json.Float m.seconds);
    ("requests", Json.Int m.requests);
    ("reads", Json.Int m.reads);
    ("writes", Json.Int m.writes);
    ("bytes_moved", Json.Int m.bytes_moved);
    ("cache_hits", Json.Int m.cache_hits);
    ("seek_s", Json.Float m.seek_s);
    ("rotation_s", Json.Float m.rotation_s);
    ("transfer_s", Json.Float m.transfer_s);
  ]

let phase_to_json (r : Smallfile.result) =
  Json.Obj
    ([
       ("phase", Json.String (Smallfile.phase_name r.phase));
       ("files_per_sec", Json.Float r.files_per_sec);
       ("kb_per_sec", Json.Float r.kb_per_sec);
       ("requests_per_file", Json.Float r.requests_per_file);
     ]
    @ measure_fields r.measure)

let is_op_hist name = Filename.check_suffix name "_s" && String.length name > 2

let split_delta delta =
  List.fold_left
    (fun (ops, counters) (name, d) ->
      match (d : Registry.datum) with
      | Registry.Histogram h when is_op_hist name ->
          if h.Registry.count = 0 then (ops, counters)
          else ((name, Registry.hist_to_json h) :: ops, counters)
      | Registry.Counter 0 -> (ops, counters)
      | Registry.Counter v -> (ops, (name, Json.Int v) :: counters)
      | Registry.Fcounter v ->
          if v = 0.0 then (ops, counters) else (ops, (name, Json.Float v) :: counters)
      | Registry.Gauge _ | Registry.Histogram _ -> (ops, counters))
    ([], []) delta
  |> fun (ops, counters) -> (List.rev ops, List.rev counters)

let config_to_json run =
  let ops, counters = split_delta run.delta in
  Json.Obj
    [
      ("label", Json.String run.label);
      ("phases", Json.List (List.map phase_to_json run.results));
      ("ops", Json.Obj ops);
      ("counters", Json.Obj counters);
    ]

let phase_measure run phase =
  List.find_opt (fun (r : Smallfile.result) -> r.phase = phase) run.results

let derived_json runs =
  match runs with
  | [ base; cffs ] -> begin
      match (phase_measure base Smallfile.Read, phase_measure cffs Smallfile.Read) with
      | Some b, Some c ->
          let ratio =
            if c.requests_per_file > 0.0 then b.requests_per_file /. c.requests_per_file
            else 0.0
          in
          [
            ( "read_requests_per_file",
              Json.Obj
                [
                  ("base", Json.Float b.requests_per_file);
                  ("cffs", Json.Float c.requests_per_file);
                  ("ratio", Json.Float ratio);
                ] );
          ]
      | _ -> []
    end
  | _ -> []

(* The counter sections are always present, every key with its value,
   zeros included, unlike the per-run counter deltas which drop zeros:
   consumers of the document can assert on these keys whether or not the
   run used the subsystem (an integrity-formatted volume, the [Journaled]
   policy, a regroup pass, a promoted directory). *)
let counters_json snap names =
  Json.Obj (List.map (fun name -> (name, Json.Int (Registry.get_counter snap name))) names)

let integrity_counter_names =
  [
    "integrity.checksum_failures";
    "integrity.remaps";
    "integrity.degraded_reads";
    "scrub.blocks_verified";
  ]

let journal_counter_names =
  [
    "journal.records";
    "journal.commits";
    "journal.revokes";
    "journal.replays";
    "journal.replayed_txns";
    "journal.replayed_blocks";
    "journal.discarded_txns";
    "journal.checkpoints";
    "journal.checkpoint_lag_blocks";
    "journal.overflow_syncs";
  ]

let namei_counter_names =
  [
    "namei.dentry_hits";
    "namei.dentry_misses";
    "namei.negative_hits";
    "namei.attr_hits";
    "namei.attr_misses";
    "namei.readdirplus_warms";
    "namei.evictions";
    "namei.invalidations";
    "namei.shortcut_hits";
    "namei.shortcut_misses";
    "namei.shortcut_negative_hits";
    "namei.shortcut_stale";
  ]

let regroup_counter_names =
  [
    "regroup.passes";
    "regroup.files_scanned";
    "regroup.files_moved";
    "regroup.blocks_copied";
    "regroup.files_skipped_io";
    "regroup.enospc_aborts";
    "regroup.resumes";
    "regroup.cursor_writes";
  ]

let dirindex_counter_names =
  [
    "dirindex.promotions";
    "dirindex.demotions";
    "dirindex.leaf_splits";
    "dirindex.doublings";
    "dirindex.overflow_chains";
    "dirindex.indexed_lookups";
    "dirindex.indexed_inserts";
  ]

(* The five sections of a document, from the live registry. *)
let counter_sections () =
  let snap = Registry.snapshot () in
  List.map
    (fun (section, names) -> (section, counters_json snap names))
    [
      ("integrity", integrity_counter_names);
      ("journal", journal_counter_names);
      ("namei", namei_counter_names);
      ("regroup", regroup_counter_names);
      ("dirindex", dirindex_counter_names);
    ]

(* --- grouping: the layout introspector on freshly populated images ------- *)

(* The benchmark images are useless for layout analysis — smallfile's
   delete phase empties them — so the grouping section formats a fresh
   image per configuration, populates it with small files, and runs the
   {!Cffs_fsck.Layout} introspector.  Always present: FFS and no-grouping
   configurations report zero residency by construction, which is itself
   the claim the section documents. *)
let layout_of_populated ?(nfiles = 120) ?(files_per_dir = 40) ~policy
    ~file_bytes fs =
  let inst = Setup.instantiate (Setup.standard ~policy fs) in
  let (Fs_intf.Packed ((module F), handle)) = inst.Setup.env.Env.fs in
  let payload = Bytes.make file_bytes 'g' in
  let check what = function
    | Ok _ -> ()
    | Error e ->
        failwith
          (Printf.sprintf "layout populate %s: %s" what
             (Cffs_vfs.Errno.to_string e))
  in
  check "mkdir" (F.mkdir handle "/pop");
  let ndirs = (nfiles + files_per_dir - 1) / files_per_dir in
  for d = 0 to ndirs - 1 do
    check "mkdir" (F.mkdir handle (Printf.sprintf "/pop/d%02d" d))
  done;
  for i = 0 to nfiles - 1 do
    check "write"
      (F.write_file handle
         (Printf.sprintf "/pop/d%02d/f%04d" (i / files_per_dir) i)
         payload)
  done;
  F.sync handle;
  match (inst.Setup.cffs, inst.Setup.ffs) with
  | Some fs, _ -> Layout.cffs_report fs
  | None, Some fs -> Layout.ffs_report fs
  | None, None -> assert false

let grouping_json ?(policy = Cffs_cache.Cache.Sync_metadata)
    ?(file_bytes = 1024) configs =
  Json.Obj
    [
      ( "images",
        Json.List
          (List.map
             (fun fs ->
               Layout.to_json (layout_of_populated ~policy ~file_bytes fs))
             configs) );
    ]

(* --- latency_breakdown: per-op-class percentiles and attribution --------- *)

let op_classes = [ "lookup"; "create"; "unlink"; "read"; "write" ]
let breakdown_prefixes = [ "cffs"; "ffs" ]

(* Always-present contract: both prefixes and all five op classes appear
   with the full key set, zeros where an op class never ran.  The
   components are the obs_low attribution fcounters; the first
   {!Obs_low.n_summed} of them sum to [total_s] (the invariant the
   attribution property test asserts), [queue_wait_s] overlaps device
   service and is reported alongside, and [other_s] is the residual. *)
let latency_breakdown_json (delta : Registry.snapshot) =
  let op_json prefix op =
    let comps =
      Array.to_list
        (Array.map
           (fun comp ->
             ( comp ^ "_s",
               Registry.get_fcounter delta
                 (prefix ^ ".lat." ^ op ^ "." ^ comp ^ "_s") ))
           Obs_low.component_names)
    in
    let count, total, p50, p95, p99 =
      match Registry.get_histogram delta (prefix ^ ".op." ^ op ^ "_s") with
      | Some h when h.Registry.count > 0 ->
          ( h.Registry.count,
            h.Registry.sum,
            Registry.hist_percentile h 50.0,
            Registry.hist_percentile h 95.0,
            Registry.hist_percentile h 99.0 )
      | _ -> (0, 0.0, 0.0, 0.0, 0.0)
    in
    let summed =
      List.filteri (fun i _ -> i < Obs_low.n_summed) comps
      |> List.fold_left (fun acc (_, v) -> acc +. v) 0.0
    in
    ( op,
      Json.Obj
        ([
           ("count", Json.Int count);
           ("total_s", Json.Float total);
           ("p50_s", Json.Float p50);
           ("p95_s", Json.Float p95);
           ("p99_s", Json.Float p99);
         ]
        @ List.map (fun (k, v) -> (k, Json.Float v)) comps
        @ [ ("other_s", Json.Float (total -. summed)) ]) )
  in
  Json.Obj
    (List.map
       (fun prefix -> (prefix, Json.Obj (List.map (op_json prefix) op_classes)))
       breakdown_prefixes)

(* --- timeseries: per-config sampler curves ------------------------------- *)

let timeseries_json runs =
  Json.Obj
    [
      ( "configs",
        Json.List
          (List.map
             (fun run ->
               match run.timeseries with
               | Json.Obj fields ->
                   Json.Obj (("label", Json.String run.label) :: fields)
               | j -> j)
             runs) );
    ]

(* --- volume: per-spindle counters and the A9 spindle-scaling sweep ------ *)

let spindle_json (s : Volume.spindle) =
  Json.Obj
    [
      ("spindle", Json.Int s.Volume.spindle);
      ("reads", Json.Int s.Volume.s_reads);
      ("writes", Json.Int s.Volume.s_writes);
      ("read_sectors", Json.Int s.Volume.s_read_sectors);
      ("write_sectors", Json.Int s.Volume.s_write_sectors);
      ("busy_s", Json.Float s.Volume.s_busy_s);
      ("seek_s", Json.Float s.Volume.s_seek_s);
      ("rotation_s", Json.Float s.Volume.s_rotation_s);
      ("transfer_s", Json.Float s.Volume.s_transfer_s);
      ("queue_pending", Json.Int s.Volume.s_pending);
    ]

let vol_point_json (p : Experiments.vol_point) =
  let r = p.Experiments.vp_result in
  Json.Obj
    [
      ("drives", Json.Int p.Experiments.vp_drives);
      ("layout", Json.String (Volume.layout_name p.Experiments.vp_layout));
      ("small_kb_per_sec", Json.Float r.Cffs_workload.Mclient.small_kb_per_sec);
      ( "small_files_per_sec",
        Json.Float r.Cffs_workload.Mclient.small_files_per_sec );
      ("seconds", Json.Float r.Cffs_workload.Mclient.measure.Env.seconds);
      ("requests", Json.Int r.Cffs_workload.Mclient.measure.Env.requests);
      ( "spindles",
        Json.List (List.map spindle_json p.Experiments.vp_spindles) );
    ]

(* Always-present contract, like the other subsystem sections: every
   document carries the volume section with the full A9 sweep — the
   striped 1/2/4-spindle points (each with its per-spindle
   reads/writes/busy-time/queue-depth counters), the meta-split
   contrast, and the headline speedup — so the benchdiff gate can watch
   multi-spindle scaling across documents unconditionally. *)
let volume_json ?(scale = Experiments.quick) ?drives ?layout () =
  let vs = Experiments.volume_scaling ?drives ?layout scale in
  Json.Obj
    [
      ( "points",
        Json.List (List.map vol_point_json vs.Experiments.vol_points) );
      ( "meta_split",
        match vs.Experiments.vol_meta_split with
        | Some p -> vol_point_json p
        | None -> Json.Null );
      ("small_read_speedup", Json.Float vs.Experiments.vol_speedup);
    ]

(* The async-pipeline headline: the multi-client workload at queue depth 1
   under FCFS (a queueless disk) vs a deep C-LOOK window with coalescing,
   on the no-technique configuration — where the queue has the most
   headroom, since grouping already captures small-file locality
   synchronously. *)
let concurrency_json ?(nstreams = 4) ?(files_per_stream = 50) ?(large_mb = 2)
    () =
  let module Mclient = Cffs_workload.Mclient in
  let module Scheduler = Cffs_disk.Scheduler in
  let params =
    { Mclient.default_params with Mclient.nstreams; files_per_stream; large_mb }
  in
  let run ~qdepth ~sched ~coalesce =
    let inst =
      Setup.instantiate (Setup.standard (Setup.Cffs_fs Cffs.config_ffs_like))
    in
    Mclient.run
      ~params:{ params with Mclient.qdepth; sched; coalesce }
      ~cache:(Setup.cache_of inst) inst.Setup.env
  in
  let base = run ~qdepth:1 ~sched:Scheduler.Fcfs ~coalesce:false in
  let fast = run ~qdepth:8 ~sched:Scheduler.Clook ~coalesce:true in
  let speedup =
    if base.Mclient.small_kb_per_sec > 0.0 then
      fast.Mclient.small_kb_per_sec /. base.Mclient.small_kb_per_sec
    else 0.0
  in
  Json.Obj
    [
      ("baseline", Mclient.to_json base);
      ("pipelined", Mclient.to_json fast);
      ("small_read_speedup", Json.Float speedup);
    ]

let document ?(nfiles = 400) ?(file_bytes = 1024)
    ?(policy = Cffs_cache.Cache.Sync_metadata) ?(configs = default_pair)
    ?(sample_interval_s = 0.5) ?(mclient_files_per_stream = 50)
    ?(mclient_large_mb = 2) ?vol_drives ?vol_layout () =
  (* Sections are built in explicit sequence because the registry is
     global: the latency breakdown covers exactly the config runs, not the
     layout population or the concurrency experiment that follow. *)
  let before = Registry.snapshot () in
  let runs =
    List.map (run_config ~sample_interval_s ~nfiles ~file_bytes ~policy) configs
  in
  let lat_delta = Registry.diff (Registry.snapshot ()) before in
  let grouping = grouping_json ~policy ~file_bytes configs in
  let concurrency =
    concurrency_json ~files_per_stream:mclient_files_per_stream
      ~large_mb:mclient_large_mb ()
  in
  let volume = volume_json ?drives:vol_drives ?layout:vol_layout () in
  Json.Obj
    ([
       ("schema", Json.String schema);
       ("benchmark", Json.String "smallfile");
       ("nfiles", Json.Int nfiles);
       ("file_bytes", Json.Int file_bytes);
       ("policy", Json.String (Cffs_cache.Cache.policy_name policy));
       ("configs", Json.List (List.map config_to_json runs));
       ("grouping", grouping);
       ("latency_breakdown", latency_breakdown_json lat_delta);
       ("timeseries", timeseries_json runs);
     ]
    @ counter_sections ()
    @ [
        ("concurrency", concurrency);
        ("volume", volume);
        ("derived", Json.Obj (derived_json runs));
      ])

(* ------------------------------------------------------------------ *)
(* The stat-heavy benchmark as a telemetry document: both file systems
   with the namei caches on and off, plus the headline derived number —
   warm repeated-stat speedup from caching. *)

let statbench_phase_json (r : Cffs_workload.Statbench.result) =
  Json.Obj
    ([
       ("phase", Json.String (Cffs_workload.Statbench.phase_name r.phase));
       ("nops", Json.Int r.nops);
       ("ops_per_sec", Json.Float r.ops_per_sec);
     ]
    @ measure_fields r.measure)

let statbench_run_json ~scale ~entries ~depth ~drives ~vol_layout ~fs ~cached =
  let namei =
    if cached then Cffs_namei.Namei.config_default
    else Cffs_namei.Namei.config_disabled
  in
  (* Fresh instances start their simulated clock at zero, so the sampler
     can be armed before the run's device exists. *)
  let sampler =
    Sampler.create ~prefixes:sample_prefixes ~interval_s:0.5 ~start:0.0 ()
  in
  let results, delta =
    Sampler.with_sampler sampler (fun () ->
        Experiments.run_statbench ~entries ~depth ~drives ~vol_layout scale ~fs
          ~namei)
  in
  let ops, counters = split_delta delta in
  let label =
    Setup.fs_kind_label fs ^ ", namei " ^ if cached then "on" else "off"
  in
  ( results,
    Json.Obj
      [
        ("label", Json.String (Setup.fs_kind_label fs));
        ("namei", Json.String (if cached then "on" else "off"));
        ("phases", Json.List (List.map statbench_phase_json results));
        ("namei_counters", counters_json delta namei_counter_names);
        ("ops", Json.Obj ops);
        ("counters", Json.Obj counters);
      ],
    match Sampler.to_json sampler with
    | Json.Obj fields -> Json.Obj (("label", Json.String label) :: fields)
    | j -> j )

let statbench_document ?(scale = Experiments.quick) ?(entries = 0) ?(depth = 0)
    ?(drives = 1) ?(vol_layout = Volume.Striped) () =
  let statbench_fss = [ Setup.Ffs_baseline; Setup.Cffs_fs Cffs.config_default ] in
  let warm results =
    List.find
      (fun (r : Cffs_workload.Statbench.result) ->
        r.phase = Cffs_workload.Statbench.Stat_warm)
      results
  in
  let before = Registry.snapshot () in
  let runs =
    List.concat_map
      (fun fs ->
        let uncached_results, uncached, ts_u =
          statbench_run_json ~scale ~entries ~depth ~drives ~vol_layout ~fs
            ~cached:false
        in
        let cached_results, cached, ts_c =
          statbench_run_json ~scale ~entries ~depth ~drives ~vol_layout ~fs
            ~cached:true
        in
        let speedup =
          let u = (warm uncached_results).Cffs_workload.Statbench.measure.Env.seconds in
          let c = (warm cached_results).Cffs_workload.Statbench.measure.Env.seconds in
          if c > 0.0 then u /. c else 0.0
        in
        [
          (uncached, ts_u, None);
          (cached, ts_c, Some (Setup.fs_kind_label fs, speedup));
        ])
      statbench_fss
  in
  let lat_delta = Registry.diff (Registry.snapshot ()) before in
  let derived =
    List.filter_map
      (fun (_, _, d) ->
        Option.map
          (fun (label, speedup) ->
            (label ^ " warm_stat_speedup", Json.Float speedup))
          d)
      runs
  in
  (* the spindle count and layout every instance above ran on *)
  let vol = Setup.standard ~drives ~vol_layout Setup.Ffs_baseline in
  Json.Obj
    ([
       ("schema", Json.String schema);
       ("benchmark", Json.String "statbench");
       ("dirs", Json.Int scale.Experiments.stat_dirs);
       ("files_per_dir", Json.Int scale.Experiments.stat_files_per_dir);
       ("repeats", Json.Int scale.Experiments.stat_repeats);
       ("cache_blocks", Json.Int scale.Experiments.stat_cache_blocks);
       ("bigdir_entries", Json.Int entries);
       ("deep_depth", Json.Int depth);
       ("drives", Json.Int vol.Setup.drives);
       ("vol_layout", Json.String (Volume.layout_name vol.Setup.vol_layout));
       ("configs", Json.List (List.map (fun (c, _, _) -> c) runs));
       ("grouping", grouping_json statbench_fss);
       ("latency_breakdown", latency_breakdown_json lat_delta);
       ( "timeseries",
         Json.Obj
           [ ("configs", Json.List (List.map (fun (_, ts, _) -> ts) runs)) ] );
     ]
    @ counter_sections ()
    @ [ ("derived", Json.Obj derived) ])

let print_human ?(nfiles = 400) ?(file_bytes = 1024)
    ?(policy = Cffs_cache.Cache.Sync_metadata) ?(configs = default_pair) () =
  let runs = List.map (run_config ~nfiles ~file_bytes ~policy) configs in
  List.iter
    (fun run ->
      let t =
        Tablefmt.create
          ~title:
            (Printf.sprintf "%s — smallfile, %d files of %d bytes" run.label
               nfiles file_bytes)
          [
            ("phase", Tablefmt.Left);
            ("files/s", Tablefmt.Right);
            ("reqs/file", Tablefmt.Right);
            ("reads", Tablefmt.Right);
            ("writes", Tablefmt.Right);
            ("seek", Tablefmt.Right);
            ("rotation", Tablefmt.Right);
            ("transfer", Tablefmt.Right);
          ]
      in
      List.iter
        (fun (r : Smallfile.result) ->
          Tablefmt.add_row t
            [
              Smallfile.phase_name r.phase;
              Tablefmt.fmt_float ~decimals:0 r.files_per_sec;
              Tablefmt.fmt_float ~decimals:2 r.requests_per_file;
              string_of_int r.measure.Env.reads;
              string_of_int r.measure.Env.writes;
              Tablefmt.fmt_ms r.measure.Env.seek_s;
              Tablefmt.fmt_ms r.measure.Env.rotation_s;
              Tablefmt.fmt_ms r.measure.Env.transfer_s;
            ])
        run.results;
      Tablefmt.print t;
      print_newline ();
      Tablefmt.print
        (Registry.to_table ~title:(run.label ^ " — metrics") run.delta);
      print_newline ();
      let nt =
        Tablefmt.create
          ~title:(run.label ^ " — namei (dentry/attribute cache)")
          [ ("counter", Tablefmt.Left); ("value", Tablefmt.Right) ]
      in
      List.iter
        (fun name ->
          Tablefmt.add_row nt
            [ name; string_of_int (Registry.get_counter run.delta name) ])
        namei_counter_names;
      Tablefmt.print nt;
      print_newline ())
    runs
