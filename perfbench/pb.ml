(* One benchmark iteration in a fresh process:

     pb.exe WORKLOAD [--seed N] [--mode plain|traced|reference] [--fsck]

   [plain] runs the workload and reports its end-to-end metrics and layer
   counts; [traced] also captures the device request stream and replays it
   to split host time per layer; [reference] runs the library workload this
   benchmark mirrors and reports its per-phase simulated numbers.  The result
   is one JSON object on stdout.  run.py starts the iterations and
   aggregates them. *)

module R = Cffs_obs.Registry
module Setup = Cffs_harness.Setup
module Volume = Cffs_volume.Volume

type workload = {
  name : string;
  setup : Setup.t;
  capacity : int;  (** calls the measured part issues *)
  default_seed : int;  (** the library workload's own seed *)
  drive : Work.ctx -> seed:int -> unit;
  reference : seed:int -> Work.phase list;
  op_class : string -> string;  (** phase name -> op class *)
}

let cffs ?(cache_blocks = 16384) ?(drives = 1) config =
  let s =
    Setup.standard ~policy:Cffs_cache.Cache.Sync_metadata ~drives
      ~vol_layout:Volume.Striped (Setup.Cffs_fs config)
  in
  { s with Setup.cache_blocks }

let smallfile name config ~nfiles =
  let setup = cffs config in
  {
    name;
    setup;
    capacity = (4 * nfiles) + 5;
    default_seed = 7;
    drive = Work.smallfile ~nfiles;
    reference =
      (fun ~seed -> Work.smallfile_reference ~nfiles (Setup.instantiate setup) ~seed);
    op_class = Fun.id;
  }

let namespace_sizes =
  { Work.dirs = 96; per_dir = 32; repeats = 50; entries = 100_000; depth = 8 }

let namespace =
  let p = namespace_sizes in
  let setup = cffs ~cache_blocks:128 Cffs.config_default in
  {
    name = "namespace";
    setup;
    capacity =
      3 + (2 * p.dirs) + ((1 + p.repeats) * p.dirs * p.per_dir) + 200
      + max 100 (p.repeats * 100);
    default_seed = 11;
    drive = Work.namespace p;
    reference =
      (fun ~seed -> Work.namespace_reference p (Setup.instantiate setup) ~seed);
    op_class = (fun _ -> "stat");
  }

let mclient_sizes =
  { Work.streams = 8; per_stream = 400; file_bytes = 8 * 4096; batch = 8; qdepth = 16 }

let mclient =
  let p = mclient_sizes in
  {
    name = "mclient_striped";
    setup = cffs ~drives:4 Cffs.config_default;
    capacity = 2 + (2 * p.streams * p.per_stream) + (p.per_stream / p.batch) + 1;
    default_seed = 11;
    drive = Work.mclient p;
    reference = (fun ~seed -> Work.mclient_reference p ~seed);
    op_class = Fun.id;
  }

let workloads =
  [
    smallfile "smallfile_noopt" Cffs.config_ffs_like ~nfiles:1000;
    smallfile "smallfile_cffs" Cffs.config_default ~nfiles:10_000;
    namespace;
    mclient;
  ]

(* --- JSON ------------------------------------------------------------- *)

type j = F of float | I of int | S of string | B of bool | N | L of j list | O of (string * j) list

let rec emit buf = function
  | F x when Float.is_finite x -> Buffer.add_string buf (Printf.sprintf "%.17g" x)
  | F _ | N -> Buffer.add_string buf "null"
  | I i -> Buffer.add_string buf (string_of_int i)
  | S s -> Buffer.add_string buf (Printf.sprintf "%S" s)
  | B b -> Buffer.add_string buf (string_of_bool b)
  | L l ->
      Buffer.add_char buf '[';
      List.iteri (fun i x -> if i > 0 then Buffer.add_char buf ','; emit buf x) l;
      Buffer.add_char buf ']'
  | O kv ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "%S:" k);
          emit buf v)
        kv;
      Buffer.add_char buf '}'

let print_json j =
  let buf = Buffer.create 4096 in
  emit buf j;
  print_endline (Buffer.contents buf)

let phases_json phases =
  L
    (List.map
       (fun (p : Work.phase) ->
         O
           [
             ("name", S p.name);
             ("nops", I p.nops);
             ("sim_s", F p.sim_s);
             ("requests", I p.requests);
           ])
       phases)

(* --- metrics ------------------------------------------------------------ *)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let fratio a b = if b = 0.0 then 0.0 else a /. b

(* Nearest-rank quantile of the first [n] samples. *)
let quantile arr n q =
  if n = 0 then 0.0
  else begin
    let a = Array.init n (Float.Array.get arr) in
    Array.sort compare a;
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))
  end

(* Sum of a histogram over the live segment diffs, less what the shadow
   replays added to it. *)
let merged_hist ~live ~replay name =
  let add sign acc d =
    match (acc, R.get_histogram d name) with
    | acc, None -> acc
    | None, Some b when sign > 0 -> Some b
    | None, Some _ -> None
    | Some a, Some b ->
        Some
          {
            a with
            R.count = a.R.count + (sign * b.R.count);
            sum = a.R.sum +. (float_of_int sign *. b.R.sum);
            buckets = Array.mapi (fun i x -> x + (sign * b.R.buckets.(i))) a.R.buckets;
          }
  in
  let h = List.fold_left (add 1) None live in
  List.fold_left (add (-1)) h replay

let self_tolerance = 0.25

let run_workload w ~seed ~traced ~fsck =
  let inst_h0 = Hclock.now () in
  let inst = Setup.instantiate w.setup in
  let format_s = Hclock.now () -. inst_h0 in
  let dev = inst.Setup.env.Cffs_workload.Env.dev in
  let recorder = if traced then Some (Recorder.create w.setup dev) else None in
  let c = Work.make ?recorder inst ~capacity:w.capacity in
  c.Work.setup_s <- format_s;
  w.drive c ~seed;
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let fsck_h0 = Hclock.now () in
  let fsck_problems =
    if fsck then Cffs_fsck.Report.count (Cffs_fsck.Fsck_cffs.check c.Work.fs) else 0
  in
  let fsck_s = Hclock.now () -. fsck_h0 in
  c.Work.errors <- c.Work.errors + fsck_problems;
  let d = c.Work.deltas in
  let rd = match recorder with Some r -> [ Recorder.replay_moved r ] | None -> [] in
  let sum get zero add name =
    let total l = List.fold_left (fun acc s -> add acc (get s name)) zero l in
    (total d, total rd)
  in
  let cnt name = let a, b = sum R.get_counter 0 ( + ) name in a - b in
  let fcnt name = let a, b = sum R.get_fcounter 0.0 ( +. ) name in a -. b in
  let calls = c.Work.nsim and fs_calls = c.Work.nhost in
  let live =
    {
      Recorder.requests = cnt "blockdev.reads" + cnt "blockdev.writes";
      sectors = cnt "blockdev.read_sectors" + cnt "blockdev.write_sectors";
      dispatches = cnt "ioqueue.dispatched";
    }
  in
  let requests = live.Recorder.requests in
  let e2e =
    [
      ("ops_per_host_s", F (fratio (float_of_int calls) c.Work.measured_s));
      ("setup_s", F c.Work.setup_s);
      ("alloc_mwords", F (c.Work.alloc_words /. 1e6));
      ("peak_heap_mb", F (float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1e6));
      ("sim_ops_per_s", F (fratio (float_of_int calls) c.Work.measured_sim_s));
      ("sim_requests_per_op", F (ratio requests calls));
      ("sim_op_ms_p50", F (1e3 *. quantile c.Work.sim calls 0.50));
      ("sim_op_ms_p99", F (1e3 *. quantile c.Work.sim calls 0.99));
    ]
  in
  let phases = List.rev c.Work.phases in
  let class_rate cls =
    let nops, secs =
      List.fold_left
        (fun (n, s) (p : Work.phase) ->
          if w.op_class p.name = cls then (n + p.nops, s +. p.sim_s) else (n, s))
        (0, 0.0) phases
    in
    fratio (float_of_int nops) secs
  in
  let hit_ratio hits misses = ratio (cnt hits) (cnt hits + cnt misses) in
  let lat =
    List.concat_map
      (fun op ->
        List.map
          (fun comp ->
            ( Printf.sprintf "fs.lat.%s.%s_s" op comp,
              F (fcnt (Printf.sprintf "cffs.lat.%s.%s_s" op comp)) ))
          [ "seek"; "rotation"; "transfer"; "overhead"; "cachehit"; "host"; "queue_wait" ])
      [ "lookup"; "create"; "unlink"; "read"; "write" ]
  in
  let wait = merged_hist ~live:d ~replay:rd "ioqueue.wait_s" in
  let wait_ms p = match wait with Some h -> 1e3 *. R.hist_percentile h p | None -> 0.0 in
  let drive_reqs = cnt "drive.reads" + cnt "drive.writes" in
  let per_drive_req name = 1e3 *. fratio (fcnt name) (float_of_int drive_reqs) in
  let bigdir_reads, bigdir_lookups = c.Work.bigdir in
  let busy = c.Work.busy in
  let nspindles = max 1 (Array.length busy) in
  let busy_spread =
    if Array.length busy <= 1 then 1.0
    else
      let total = Array.fold_left ( +. ) 0.0 busy in
      let mx = Array.fold_left Float.max 0.0 busy in
      fratio mx (total /. float_of_int (Array.length busy))
  in
  let counted =
    [
      ("pathfs.host_us_p50", F (1e6 *. quantile c.Work.host fs_calls 0.50));
      ("pathfs.host_us_p99", F (1e6 *. quantile c.Work.host fs_calls 0.99));
      ("pathfs.calls", I fs_calls);
      ("pathfs.components_per_resolve", F (ratio (cnt "vfs.path_components") (cnt "vfs.resolves")));
      ("pathfs.resolves", I (cnt "vfs.resolves"));
      ("namei.dentry_hit_ratio", F (hit_ratio "namei.dentry_hits" "namei.dentry_misses"));
      ("namei.dentry_lookups", I (cnt "namei.dentry_hits" + cnt "namei.dentry_misses"));
      ("namei.attr_hit_ratio", F (hit_ratio "namei.attr_hits" "namei.attr_misses"));
      ("namei.attr_lookups", I (cnt "namei.attr_hits" + cnt "namei.attr_misses"));
      ("namei.shortcut_hit_ratio", F (hit_ratio "namei.shortcut_hits" "namei.shortcut_misses"));
      ("namei.shortcut_lookups", I (cnt "namei.shortcut_hits" + cnt "namei.shortcut_misses"));
      ("cffs.embedded_inode_hits_per_op", F (ratio (cnt "cffs.embedded_inode_hits") fs_calls));
      ("cffs.external_inode_reads_per_op", F (ratio (cnt "cffs.external_inode_reads") fs_calls));
      ("cffs.group_reads", I (cnt "cffs.group_reads"));
      ("dirindex.reads_per_lookup", F (ratio bigdir_reads bigdir_lookups));
      ("dirindex.lookups", I bigdir_lookups);
    ]
    @ List.map
        (fun cls -> (Printf.sprintf "fs.sim_%s_per_s" cls, F (class_rate cls)))
        [ "create"; "read"; "overwrite"; "delete"; "stat" ]
    @ lat
    @ [
        ( "cache.hit_ratio",
          F
            (ratio
               (cnt "cache.phys_hits" + cnt "cache.logical_hits")
               (cnt "cache.phys_hits" + cnt "cache.logical_hits" + cnt "cache.misses")) );
        ("cache.lookups", I (cnt "cache.phys_hits" + cnt "cache.logical_hits" + cnt "cache.misses"));
        ( "cache.logical_hit_share",
          F (ratio (cnt "cache.logical_hits") (cnt "cache.phys_hits" + cnt "cache.logical_hits")) );
        ("cache.evictions", I (cnt "cache.evictions"));
        ("cache.sync_writes_per_op", F (ratio (cnt "cache.sync_writes") fs_calls));
        ("cache.prefetch_blocks_per_run", F (ratio (cnt "cache.prefetch_blocks") (cnt "cache.prefetch_runs")));
        ("cache.prefetch_runs", I (cnt "cache.prefetch_runs"));
        ("blockdev.requests", I requests);
        ("blockdev.requests_per_op", F (ratio requests calls));
        ("blockdev.kb_per_request", F (ratio (live.Recorder.sectors * 512) (requests * 1024)));
        ("volume.busy_spread", F busy_spread);
        ("volume.requests_per_spindle", F (ratio requests nspindles));
        ("ioqueue.coalesce_ratio", F (ratio (cnt "ioqueue.coalesced") (cnt "ioqueue.submitted")));
        ("ioqueue.submitted", I (cnt "ioqueue.submitted"));
        ("ioqueue.dispatches", I live.Recorder.dispatches);
        ("ioqueue.wait_ms_p50", F (wait_ms 50.0));
        ("ioqueue.wait_ms_p95", F (wait_ms 95.0));
        ("drive.seek_ms_per_request", F (per_drive_req "drive.seek_s"));
        ("drive.rotation_ms_per_request", F (per_drive_req "drive.rotation_s"));
        ("drive.transfer_ms_per_request", F (per_drive_req "drive.transfer_s"));
        ("drive.cache_hit_ratio", F (ratio (cnt "drive.cache_hits") (cnt "drive.reads")));
        ("drive.reads", I (cnt "drive.reads"));
      ]
  in
  let traced_part =
    match recorder with
    | None -> []
    | Some r ->
        let l = r.Recorder.layers in
        let t = c.Work.span_host in
        let bt = r.Recorder.whole.Recorder.by_span in
        let total = Array.fold_left ( +. ) 0.0 t in
        let b_total = Array.fold_left ( +. ) 0.0 bt in
        let pos x = Float.max 0.0 x in
        let drive = l.Recorder.drive_s and ioqueue = l.Recorder.ioqueue_s in
        let bc = Recorder.whole_counts r and lc = Recorder.layer_counts r in
        let blockdev = pos (b_total -. ioqueue -. drive) in
        let fs = pos (t.(0) -. bt.(0)) in
        let flush = pos (t.(1) -. bt.(1)) in
        let cache = flush +. pos (t.(2) -. bt.(2)) in
        let layers =
          [ ("fs", fs); ("cache", cache); ("blockdev", blockdev); ("ioqueue", ioqueue); ("drive", drive) ]
        in
        let self_sum = List.fold_left (fun acc (_, x) -> acc +. x) 0.0 layers in
        let self_err = fratio (Float.abs (self_sum -. total)) total in
        let same (x : Recorder.counts) =
          x.Recorder.requests = live.Recorder.requests && x.Recorder.sectors = live.Recorder.sectors
          && x.Recorder.dispatches = live.Recorder.dispatches
        in
        let replay_ok = same bc && same lc in
        if not replay_ok then
          Work.fail c
            (Printf.sprintf
               "replay: live %d req/%d sect/%d disp, blockdev pass %d/%d/%d, layer pass %d/%d/%d"
               live.requests live.sectors live.dispatches bc.requests bc.sectors
               bc.dispatches lc.requests lc.sectors lc.dispatches);
        if self_err > self_tolerance then
          Work.fail c (Printf.sprintf "self times sum off the traced total by %.3f" self_err);
        List.map (fun (k, x) -> ("host_self_s." ^ k, F x)) layers
        @ List.map (fun (k, x) -> ("host_share." ^ k, F (fratio x total))) layers
        @ [
            ("trace.total_host_s", F total);
            ("trace.call_host_s", F t.(0));
            ("trace.flush_host_s", F t.(1));
            ("trace.prefetch_host_s", F t.(2));
            ("trace.replay_call_s", F bt.(0));
            ("trace.replay_flush_s", F bt.(1));
            ("trace.replay_prefetch_s", F bt.(2));
            ("trace.self_sum_error", F self_err);
            ("trace.replay_ok", B replay_ok);
            ("fs.host_self_us_per_op", F (1e6 *. fratio fs (float_of_int fs_calls)));
            ("cache.flush_host_s", F flush);
            ("cache.writeback_units", I r.Recorder.writeback_units);
            ("blockdev.host_us_per_request", F (1e6 *. fratio blockdev (float_of_int requests)));
            ("ioqueue.window_mean", F (fratio l.window_sum (float_of_int lc.dispatches)));
            ("ioqueue.window_max", I l.window_max);
            ( "ioqueue.host_us_per_dispatch",
              F (1e6 *. fratio ioqueue (float_of_int lc.dispatches)) );
            ("drive.host_us_per_service", F (1e6 *. fratio drive (float_of_int lc.requests)));
          ]
  in
  O
    [
      ("workload", S w.name);
      ("seed", I seed);
      ("mode", S (if traced then "traced" else "plain"));
      ("attempted", I c.Work.attempted);
      ("failed", I c.Work.errors);
      ("first_error", match c.Work.first_error with Some e -> S e | None -> N);
      ("fsck", B fsck);
      ("fsck_problems", I fsck_problems);
      ("fsck_s", F fsck_s);
      ("calls", I calls);
      ("measured_host_s", F c.Work.measured_s);
      (* a traced iteration's per-phase request counts include its replays *)
      ("phases", phases_json (if traced then [] else phases));
      ("e2e", O e2e);
      ("layers", O (counted @ traced_part));
    ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let usage () =
    prerr_endline
      ("usage: pb.exe WORKLOAD [--seed N] [--mode plain|traced|reference] [--fsck]\nworkloads: "
      ^ String.concat " " (List.map (fun w -> w.name) workloads));
    exit 2
  in
  let rec parse ((name, seed, mode, fsck) as acc) = function
    | [] -> acc
    | "--seed" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n -> parse (name, Some n, mode, fsck) rest
        | None -> usage ())
    | "--mode" :: m :: rest -> parse (name, seed, m, fsck) rest
    | "--fsck" :: rest -> parse (name, seed, mode, true) rest
    | w :: rest when name = None -> parse (Some w, seed, mode, fsck) rest
    | _ -> usage ()
  in
  let name, seed, mode, fsck = parse (None, None, "plain", false) args in
  let w =
    match List.find_opt (fun w -> Some w.name = name) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed = Option.value seed ~default:w.default_seed in
  match mode with
  | "plain" -> print_json (run_workload w ~seed ~traced:false ~fsck)
  | "traced" -> print_json (run_workload w ~seed ~traced:true ~fsck)
  | "reference" ->
      print_json
        (O [ ("workload", S w.name); ("seed", I seed); ("mode", S "reference");
             ("phases", phases_json (w.reference ~seed)) ])
  | _ -> usage ()
