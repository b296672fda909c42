(* The benchmark harness.

   Running `dune exec bench/main.exe` does two things:

   1. Regenerates every table and figure of the paper's evaluation at full
      scale on the simulated testbed (the same entry points as
      `cffs experiment all`).  This is the reproduction itself: compare the
      printed tables against EXPERIMENTS.md.

   2. Runs one Bechamel micro-benchmark per table/figure (at quick scale) and
      a few core-data-structure benchmarks, reporting how long the
      {e simulator machinery} takes on the host — useful for tracking
      performance regressions of this repository itself.

   `--quick` shrinks part 1 to smoke-test size; `--no-bechamel` skips part 2;
   `--bechamel-only` skips part 1.  `--json` skips both and instead emits
   the machine-readable telemetry document (quick-scale small-file runs
   with the full obs-counter delta) on stdout — the artifact CI tracks. *)

open Bechamel
open Toolkit
module Experiments = Cffs_harness.Experiments
module Cache = Cffs_cache.Cache

let quick_flag = Array.exists (( = ) "--quick") Sys.argv
let no_bechamel = Array.exists (( = ) "--no-bechamel") Sys.argv
let bechamel_only = Array.exists (( = ) "--bechamel-only") Sys.argv
let json_flag = Array.exists (( = ) "--json") Sys.argv

(* ------------------------------------------------------------------ *)
(* Part 1: the paper's tables and figures. *)

let print_paper_tables () =
  let scale = if quick_flag then Experiments.quick else Experiments.full in
  Printf.printf
    "==============================================================\n\
     C-FFS reproduction: every table and figure of the evaluation\n\
     (simulated Seagate ST31200 testbed; see EXPERIMENTS.md)\n\
     ==============================================================\n\n%!";
  Experiments.run_all scale

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel benchmarks of the machinery. *)

let q = Experiments.quick

(* One Test.make per table/figure: each run regenerates that table at quick
   scale. *)
let table_tests =
  Test.make_grouped ~name:"tables"
    [
      Test.make ~name:"table1_drives"
        (Staged.stage (fun () -> ignore (Experiments.table1_drives ())));
      Test.make ~name:"fig2_access_time"
        (Staged.stage (fun () -> ignore (Experiments.fig2_access_time q)));
      Test.make ~name:"table2_setup_drive"
        (Staged.stage (fun () -> ignore (Experiments.table2_setup_drive ())));
      Test.make ~name:"fig4_smallfile_sync"
        (Staged.stage (fun () -> ignore (Experiments.smallfile q Cache.Sync_metadata)));
      Test.make ~name:"fig6_smallfile_delayed"
        (Staged.stage (fun () -> ignore (Experiments.smallfile q Cache.Delayed)));
      Test.make ~name:"fig7_size_sweep"
        (Staged.stage (fun () -> ignore (Experiments.fig7_size_sweep q)));
      Test.make ~name:"fig8_aging"
        (Staged.stage (fun () -> ignore (Experiments.fig8_aging q)));
      Test.make ~name:"table3_apps"
        (Staged.stage (fun () -> ignore (Experiments.table3_apps q)));
      Test.make ~name:"table_dirsize"
        (Staged.stage (fun () -> ignore (Experiments.table_dirsize ())));
      Test.make ~name:"table_large"
        (Staged.stage (fun () -> ignore (Experiments.table_large q)));
      Test.make ~name:"ablation_scheduler"
        (Staged.stage (fun () -> ignore (Experiments.ablation_scheduler q)));
      Test.make ~name:"ablation_group_size"
        (Staged.stage (fun () -> ignore (Experiments.ablation_group_size q)));
      Test.make ~name:"table_breakdown"
        (Staged.stage (fun () -> ignore (Experiments.table_breakdown q)));
      Test.make ~name:"ablation_readahead"
        (Staged.stage (fun () -> ignore (Experiments.ablation_readahead q)));
      Test.make ~name:"ablation_namei"
        (Staged.stage (fun () -> ignore (Experiments.ablation_namei q)));
    ]

(* Core machinery micro-benchmarks. *)
let core_tests =
  let module Drive = Cffs_disk.Drive in
  let module Profile = Cffs_disk.Profile in
  let module Request = Cffs_disk.Request in
  let module Blockdev = Cffs_blockdev.Blockdev in
  Test.make_grouped ~name:"core"
    [
      Test.make ~name:"drive_random_4k_service"
        (Staged.stage
           (let drive = Drive.create Profile.seagate_st31200 in
            let prng = Cffs_util.Prng.create 3 in
            let total = Drive.total_sectors drive in
            fun () ->
              let lba = Cffs_util.Prng.int prng (total - 8) in
              ignore (Drive.service drive (Request.read ~lba ~sectors:8))));
      Test.make ~name:"cffs_create_write_1k"
        (Staged.stage
           (let dev = Blockdev.memory ~block_size:4096 ~nblocks:262144 in
            let fs = Cffs.format dev in
            let payload = Bytes.make 1024 'x' in
            let i = ref 0 in
            ignore (Cffs.mkdir fs "/b");
            fun () ->
              incr i;
              ignore (Cffs.write_file fs (Printf.sprintf "/b/f%08d" !i) payload)));
      Test.make ~name:"cffs_lookup_read_1k"
        (Staged.stage
           (let dev = Blockdev.memory ~block_size:4096 ~nblocks:65536 in
            let fs = Cffs.format dev in
            let payload = Bytes.make 1024 'x' in
            ignore (Cffs.mkdir fs "/b");
            for i = 0 to 99 do
              ignore (Cffs.write_file fs (Printf.sprintf "/b/f%03d" i) payload)
            done;
            let i = ref 0 in
            fun () ->
              incr i;
              ignore (Cffs.read_file fs (Printf.sprintf "/b/f%03d" (!i mod 100)))));
      Test.make ~name:"ffs_create_write_1k"
        (Staged.stage
           (let dev = Blockdev.memory ~block_size:4096 ~nblocks:262144 in
            let fs = Ffs.format dev in
            let payload = Bytes.make 1024 'x' in
            let i = ref 0 in
            ignore (Ffs.mkdir fs "/b");
            fun () ->
              incr i;
              ignore (Ffs.write_file fs (Printf.sprintf "/b/f%08d" !i) payload)));
    ]

let run_bechamel () =
  Printf.printf
    "\n==============================================================\n\
     Bechamel: host-side cost of the machinery (quick-scale runs)\n\
     ==============================================================\n\n%!";
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~kde:None ~stabilize:false ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let t =
    Cffs_util.Tablefmt.create
      [
        ("Benchmark", Cffs_util.Tablefmt.Left);
        ("time/run", Cffs_util.Tablefmt.Right);
        ("r²", Cffs_util.Tablefmt.Right);
      ]
  in
  let analyze test =
    let results = Benchmark.all cfg instances test in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let results = Analyze.all ols Instance.monotonic_clock results in
    Hashtbl.iter
      (fun name ols_result ->
        let time_str =
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] ->
              if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
              else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
              else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
              else Printf.sprintf "%.0f ns" ns
          | _ -> "?"
        in
        let r2 =
          match Analyze.OLS.r_square ols_result with
          | Some r -> Printf.sprintf "%.3f" r
          | None -> "-"
        in
        Cffs_util.Tablefmt.add_row t [ name; time_str; r2 ])
      results
  in
  analyze core_tests;
  analyze table_tests;
  Cffs_util.Tablefmt.print t

let () =
  if json_flag then begin
    print_endline (Cffs_obs.Json.to_string_pretty (Cffs_harness.Telemetry.document ()))
  end
  else begin
    if not bechamel_only then print_paper_tables ();
    if not no_bechamel then run_bechamel ()
  end
