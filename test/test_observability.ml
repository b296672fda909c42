(* Observability tests: the layout introspector's residency ordering
   (fresh > aged > no-grouping), the per-op latency attribution invariant
   (components sum to the op's clock time), the telemetry-v2 document
   contract on both file systems across write policies, the sampler, and
   the exact benchdiff gate. *)

module Registry = Cffs_obs.Registry
module Json = Cffs_obs.Json
module Sampler = Cffs_obs.Sampler
module Layout = Cffs_fsck.Layout
module Benchdiff = Cffs_harness.Benchdiff
module Telemetry = Cffs_harness.Telemetry
module Setup = Cffs_harness.Setup
module Env = Cffs_workload.Env
module Smallfile = Cffs_workload.Smallfile
module Aging = Cffs_workload.Aging
module Fs_intf = Cffs_vfs.Fs_intf
module Obs_low = Cffs_vfs.Obs_low
module Profile = Cffs_disk.Profile
module Cache = Cffs_cache.Cache

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Layout introspector *)

(* A ~50 MB slice so aging at high utilization actually fragments it. *)
let small_setup config =
  {
    (Setup.standard (Setup.Cffs_fs config)) with
    Setup.profile = Profile.truncated Profile.seagate_st31200 ~cylinders:160;
    Setup.cache_blocks = 4096;
  }

let populate inst ~nfiles =
  let (Fs_intf.Packed ((module F), fs)) = inst.Setup.env.Env.fs in
  let payload = Bytes.make 1024 'p' in
  let ok what = function
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: %s" what (Cffs_vfs.Errno.to_string e)
  in
  ok "mkdir" (F.mkdir fs "/fresh");
  for d = 0 to (nfiles / 40) do
    ok "mkdir" (F.mkdir fs (Printf.sprintf "/fresh/d%02d" d))
  done;
  for i = 0 to nfiles - 1 do
    ok "write"
      (F.write_file fs (Printf.sprintf "/fresh/d%02d/f%04d" (i / 40) i) payload)
  done;
  F.sync fs

let cffs_layout inst =
  match inst.Setup.cffs with
  | Some fs -> Layout.cffs_report fs
  | None -> Alcotest.fail "expected a C-FFS instance"

(* The acceptance ordering: a fig8-style aged image reports small-file
   group residency below a fresh image's and above (well, strictly: the
   no-grouping configuration reports exactly zero by construction). *)
let test_layout_residency_ordering () =
  let fresh =
    let inst = Setup.instantiate (small_setup Cffs.config_default) in
    populate inst ~nfiles:150;
    cffs_layout inst
  in
  let aged =
    let inst = Setup.instantiate (small_setup Cffs.config_default) in
    let spec =
      { (Aging.default_spec 0.9) with Aging.operations = 6000; seed = 3 }
    in
    ignore (Aging.run inst.Setup.env spec);
    populate inst ~nfiles:150;
    cffs_layout inst
  in
  let ungrouped =
    let inst =
      Setup.instantiate
        (small_setup { Cffs.config_default with Cffs.grouping = false })
    in
    populate inst ~nfiles:150;
    cffs_layout inst
  in
  check Alcotest.bool
    (Printf.sprintf "fresh residency high (%.3f)" fresh.Layout.group_residency)
    true
    (fresh.Layout.group_residency > 0.8);
  check Alcotest.bool
    (Printf.sprintf "aged (%.3f) < fresh (%.3f)" aged.Layout.group_residency
       fresh.Layout.group_residency)
    true
    (aged.Layout.group_residency < fresh.Layout.group_residency);
  check Alcotest.bool
    (Printf.sprintf "aged (%.3f) > no-grouping" aged.Layout.group_residency)
    true
    (aged.Layout.group_residency > ungrouped.Layout.group_residency);
  check (Alcotest.float 0.0) "no grouping -> zero residency" 0.0
    ungrouped.Layout.group_residency;
  check Alcotest.int "no grouping -> zero frames" 0
    ungrouped.Layout.total_frames;
  (* Embedded inodes are orthogonal to grouping and on in all three. *)
  check Alcotest.bool "embedded inodes present" true
    (fresh.Layout.embedded_inodes > 0 && fresh.Layout.external_inodes = 0)

let test_layout_ffs_and_counts () =
  let inst = Setup.instantiate (Setup.standard Setup.Ffs_baseline) in
  let (Fs_intf.Packed ((module F), fs)) = inst.Setup.env.Env.fs in
  let payload = Bytes.make 1024 'p' in
  (match F.mkdir fs "/d" with Ok () -> () | Error _ -> Alcotest.fail "mkdir");
  for i = 0 to 19 do
    match F.write_file fs (Printf.sprintf "/d/f%02d" i) payload with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "write"
  done;
  F.sync fs;
  let r =
    match inst.Setup.ffs with
    | Some fs -> Layout.ffs_report fs
    | None -> Alcotest.fail "expected FFS"
  in
  check Alcotest.int "files" 20 r.Layout.files;
  check Alcotest.int "dirs (root + /d)" 2 r.Layout.dirs;
  check Alcotest.int "small files" 20 r.Layout.small_files;
  check (Alcotest.float 0.0) "ffs residency zero" 0.0 r.Layout.group_residency;
  check Alcotest.int "ffs embeds nothing" 0 r.Layout.embedded_inodes;
  check Alcotest.bool "free extents seen" true
    (r.Layout.free_ext.Layout.extents > 0
    && r.Layout.free_ext.Layout.largest > 0);
  (* JSON carries the full fixed key set. *)
  match Layout.to_json r with
  | Json.Obj fields ->
      List.iter
        (fun k ->
          check Alcotest.bool ("layout json has " ^ k) true
            (List.mem_assoc k fields))
        [
          "label"; "total_blocks"; "used_blocks"; "files"; "dirs";
          "small_files"; "small_fully_grouped"; "group_residency";
          "embedded_inodes"; "external_inodes"; "embedded_ratio";
          "group_blocks"; "total_frames"; "frames_active"; "frames_free";
          "frame_fill"; "grouped_fraction"; "free_extents";
        ]
  | _ -> Alcotest.fail "layout json is not an object"

(* ------------------------------------------------------------------ *)
(* Per-op latency attribution *)

(* The invariant: for every op class, the summed component fcounters
   (seek/rotation/transfer/overhead/cachehit/host) equal the op latency
   histogram's total within 1%.  queue_wait overlaps device service and is
   excluded from the sum. *)
let attribution_for fs prefix =
  let inst = Setup.instantiate (Setup.standard fs) in
  let before = Registry.snapshot () in
  ignore (Smallfile.run ~nfiles:80 ~file_bytes:1024 inst.Setup.env);
  let delta = Registry.diff (Registry.snapshot ()) before in
  let checked = ref 0 in
  List.iter
    (fun op ->
      match Registry.get_histogram delta (prefix ^ ".op." ^ op ^ "_s") with
      | Some h when h.Registry.count > 0 && h.Registry.sum > 1e-9 ->
          let total = h.Registry.sum in
          let summed = ref 0.0 in
          Array.iteri
            (fun i comp ->
              if i < Obs_low.n_summed then
                summed :=
                  !summed
                  +. Registry.get_fcounter delta
                       (prefix ^ ".lat." ^ op ^ "." ^ comp ^ "_s"))
            Obs_low.component_names;
          let rel = Float.abs (total -. !summed) /. total in
          incr checked;
          check Alcotest.bool
            (Printf.sprintf "%s.%s: |%.6f - %.6f| / total = %.4f%% <= 1%%"
               prefix op total !summed (rel *. 100.0))
            true (rel <= 0.01)
      | _ -> ())
    [ "lookup"; "create"; "unlink"; "read"; "write" ];
  !checked

let test_attribution_sums () =
  let n_cffs = attribution_for (Setup.Cffs_fs Cffs.config_default) "cffs" in
  let n_ffs = attribution_for Setup.Ffs_baseline "ffs" in
  check Alcotest.bool
    (Printf.sprintf "enough op classes exercised (cffs %d, ffs %d)" n_cffs n_ffs)
    true
    (n_cffs >= 3 && n_ffs >= 3)

(* ------------------------------------------------------------------ *)
(* Telemetry document contract (v2) *)

let assert_obj what = function
  | Json.Obj fields -> fields
  | _ -> Alcotest.failf "%s is not a JSON object" what

let test_document_sections () =
  List.iter
    (fun fs ->
      List.iter
        (fun policy ->
          let doc =
            Telemetry.document ~nfiles:40 ~file_bytes:1024 ~policy
              ~configs:[ fs ] ~mclient_files_per_stream:8 ~mclient_large_mb:1
              ()
          in
          let name =
            Setup.fs_kind_label fs ^ "/" ^ Cache.policy_name policy ^ ": "
          in
          let fields = assert_obj "document" doc in
          check Alcotest.string (name ^ "schema") "cffs-telemetry-v2"
            (match List.assoc "schema" fields with
            | Json.String s -> s
            | _ -> "?");
          (* Every documented section present and of the right shape. *)
          List.iter
            (fun k -> ignore (assert_obj (name ^ k) (List.assoc k fields)))
            [
              "grouping"; "latency_breakdown"; "timeseries"; "integrity";
              "namei"; "concurrency"; "derived";
            ];
          (* grouping: one image per config, full layout key set. *)
          (match List.assoc "grouping" fields with
          | Json.Obj [ ("images", Json.List [ img ]) ] ->
              let ifields = assert_obj (name ^ "image") img in
              List.iter
                (fun k ->
                  check Alcotest.bool (name ^ "image has " ^ k) true
                    (List.mem_assoc k ifields))
                [ "group_residency"; "embedded_ratio"; "frame_fill";
                  "free_extents" ]
          | _ -> Alcotest.failf "%sgrouping shape" name);
          (* latency_breakdown: both prefixes x all op classes x full keys,
             including p50/p95/p99 (the unified percentile set). *)
          let lb = assert_obj (name ^ "lb") (List.assoc "latency_breakdown" fields) in
          List.iter
            (fun prefix ->
              let ops = assert_obj (name ^ prefix) (List.assoc prefix lb) in
              List.iter
                (fun op ->
                  let o = assert_obj (name ^ op) (List.assoc op ops) in
                  List.iter
                    (fun k ->
                      check Alcotest.bool
                        (name ^ prefix ^ "." ^ op ^ " has " ^ k)
                        true (List.mem_assoc k o))
                    [
                      "count"; "total_s"; "p50_s"; "p95_s"; "p99_s"; "seek_s";
                      "rotation_s"; "transfer_s"; "overhead_s"; "cachehit_s";
                      "host_s"; "queue_wait_s"; "other_s";
                    ])
                [ "lookup"; "create"; "unlink"; "read"; "write" ])
            [ "cffs"; "ffs" ];
          (* timeseries: one sampled config with points on the simulated
             clock. *)
          (match List.assoc "timeseries" fields with
          | Json.Obj [ ("configs", Json.List [ Json.Obj ts ]) ] ->
              check Alcotest.bool (name ^ "timeseries points") true
                (match List.assoc_opt "points" ts with
                | Some (Json.List (_ :: _)) -> true
                | _ -> false)
          | _ -> Alcotest.failf "%stimeseries shape" name);
          (* The whole document survives a serialise/parse round-trip. *)
          match Json.parse (Json.to_string doc) with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%sreparse failed: %s" name e)
        [ Cache.Sync_metadata; Cache.Delayed ])
    [ Setup.Ffs_baseline; Setup.Cffs_fs Cffs.config_default ]

(* ------------------------------------------------------------------ *)
(* Sampler *)

let test_sampler_polling () =
  Registry.add (Registry.counter "samp.c") 5;
  let s =
    Sampler.create ~prefixes:[ "samp." ]
      ~extra:(fun () -> [ ("samp.extra", 1.5) ])
      ~interval_s:1.0 ~start:0.0 ()
  in
  Sampler.poll s ~now:0.0;
  Sampler.poll s ~now:0.4;
  (* below the next boundary: no sample *)
  Registry.add (Registry.counter "samp.c") 2;
  Sampler.poll s ~now:1.0;
  (* a long stall yields one sample, not a backfilled burst *)
  Sampler.poll s ~now:7.5;
  let pts = Sampler.samples s in
  check Alcotest.int "three samples" 3 (List.length pts);
  (match pts with
  | (t0, v0) :: (t1, v1) :: (t2, _) :: _ ->
      check (Alcotest.float 1e-9) "t0" 0.0 t0;
      check (Alcotest.float 1e-9) "t1" 1.0 t1;
      check (Alcotest.float 1e-9) "t2" 7.5 t2;
      check (Alcotest.float 1e-9) "counter at t0" 5.0 (List.assoc "samp.c" v0);
      check (Alcotest.float 1e-9) "counter at t1" 7.0 (List.assoc "samp.c" v1);
      check (Alcotest.float 1e-9) "extra series" 1.5
        (List.assoc "samp.extra" v0)
  | _ -> Alcotest.fail "unexpected samples");
  (* poll_current is a no-op when nothing is installed. *)
  Sampler.poll_current ~now:99.0;
  Sampler.with_sampler s (fun () -> Sampler.poll_current ~now:9.0);
  check Alcotest.int "installed sampler polled" 4
    (List.length (Sampler.samples s))

(* ------------------------------------------------------------------ *)
(* Benchdiff *)

let doc_of phases =
  Json.Obj
    [
      ( "configs",
        Json.List
          [
            Json.Obj
              [
                ("label", Json.String "C-FFS");
                ( "phases",
                  Json.List
                    (List.map
                       (fun (phase, fps, secs) ->
                         Json.Obj
                           [
                             ("phase", Json.String phase);
                             ("files_per_sec", Json.Float fps);
                             ("seconds", Json.Float secs);
                           ])
                       phases) );
              ];
          ] );
    ]

let changed_paths a b =
  List.map (fun c -> c.Benchdiff.path) (Benchdiff.diff a b).Benchdiff.changes

let base = doc_of [ ("read", 100.0, 2.0); ("create", 50.0, 4.0) ]

let test_benchdiff_number () =
  let b = doc_of [ ("read", 100.0, 2.0); ("create", 45.0, 4.0) ] in
  check (Alcotest.list Alcotest.string) "-10% fails"
    [ "configs.C-FFS.phases.create.files_per_sec" ] (changed_paths base b);
  check Alcotest.bool "dirty" false (Benchdiff.clean (Benchdiff.diff base b));
  check Alcotest.bool "self-diff is clean" true
    (Benchdiff.clean (Benchdiff.diff base base))

let test_benchdiff_string () =
  let layout v = Json.Obj [ ("layout", Json.String v); ("flag", Json.Bool true) ] in
  check (Alcotest.list Alcotest.string) "a changed string leaf fails" [ "layout" ]
    (changed_paths (layout "single") (layout "striped"))

let test_benchdiff_timeseries () =
  let ts v =
    Json.Obj
      [
        ( "timeseries",
          Json.Obj
            [
              ( "points",
                Json.List
                  [ Json.Obj [ ("t", Json.Float 0.5); ("v", Json.Int 3) ];
                    Json.Obj [ ("t", Json.Float 1.0); ("v", Json.Int v) ] ] );
            ] );
      ]
  in
  check (Alcotest.list Alcotest.string) "a moved sample fails"
    [ "timeseries.points.1.v" ] (changed_paths (ts 4) (ts 5))

let test_benchdiff_one_side () =
  let b =
    match base with
    | Json.Obj fields -> Json.Obj (fields @ [ ("new_section", Json.Obj [ ("x", Json.Int 1) ]) ])
    | j -> j
  in
  check (Alcotest.list Alcotest.string) "path only in the candidate"
    [ "new_section.x" ] (changed_paths base b);
  check (Alcotest.list Alcotest.string) "path only in the baseline"
    [ "new_section.x" ] (changed_paths b base)

let test_benchdiff_keyed_reorder () =
  let b = doc_of [ ("create", 50.0, 4.0); ("read", 100.0, 2.0) ] in
  check (Alcotest.list Alcotest.string) "reordered keyed array is clean" []
    (changed_paths base b)

let test_benchdiff_duplicates () =
  let dup = doc_of [ ("read", 100.0, 2.0); ("read", 90.0, 2.0) ] in
  check Alcotest.bool "duplicate keys rejected" true
    (match Benchdiff.diff base dup with
    | _ -> false
    | exception Benchdiff.Duplicate_path p ->
        String.starts_with ~prefix:"configs.C-FFS.phases.read." p)

(* ------------------------------------------------------------------ *)
(* Op spans *)

(* A traced read or write span names its inode as "ino:N"; the target is
   built only while tracing is on. *)
let test_span_ino_targets () =
  let module Trace = Cffs_obs.Trace in
  let fs = Cffs.format (Cffs_blockdev.Blockdev.memory ~block_size:4096 ~nblocks:6144) in
  let ok what = Cffs_vfs.Errno.get_ok what in
  ok "write" (Cffs.write_file fs "/f" (Bytes.make 1024 'x'));
  let ino = (ok "stat" (Cffs.stat fs "/f")).Fs_intf.st_ino in
  Trace.clear ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.clear ())
    (fun () ->
      ok "overwrite" (Cffs.write fs "/f" ~off:0 (Bytes.make 16 'y'));
      ignore (ok "read" (Cffs.read_file fs "/f"));
      let targets name =
        List.filter_map
          (fun e -> if e.Trace.name = name then Some e.Trace.target else None)
          (Trace.events ())
      in
      let want = [ Printf.sprintf "ino:%d" ino ] in
      check (Alcotest.list Alcotest.string) "write target" want (targets "cffs.write");
      check (Alcotest.list Alcotest.string) "read target" want (targets "cffs.read"))

(* A path op resolves its parent once, counting the parent's components;
   a bad path counts nothing. *)
let test_resolve_counts () =
  let fs = Cffs.format (Cffs_blockdev.Blockdev.memory ~block_size:4096 ~nblocks:6144) in
  let ok what = Cffs_vfs.Errno.get_ok what in
  ok "mkdir" (Cffs.mkdir_p fs "/a/b");
  let counted f =
    let before = Registry.snapshot () in
    ignore (f ());
    let d = Registry.diff (Registry.snapshot ()) before in
    (Registry.get_counter d "vfs.resolves", Registry.get_counter d "vfs.path_components")
  in
  let pair = Alcotest.(pair int int) in
  check pair "create under /a/b" (1, 2) (counted (fun () -> Cffs.create fs "/a/b/c"));
  check pair "create at the root" (1, 0) (counted (fun () -> Cffs.create fs "/d"));
  check pair "stat walks every component" (1, 3) (counted (fun () -> Cffs.stat fs "/a/b/c"));
  check pair "relative path" (0, 0) (counted (fun () -> Cffs.create fs "a/x"));
  check pair "root has no parent" (0, 0) (counted (fun () -> Cffs.mkdir fs "/"))

let () =
  Alcotest.run "observability"
    [
      ( "layout",
        [
          Alcotest.test_case "residency ordering" `Quick
            test_layout_residency_ordering;
          Alcotest.test_case "ffs counts and json" `Quick
            test_layout_ffs_and_counts;
        ] );
      ( "attribution",
        [ Alcotest.test_case "components sum" `Quick test_attribution_sums ] );
      ( "telemetry",
        [ Alcotest.test_case "v2 sections" `Quick test_document_sections ] );
      ( "sampler",
        [ Alcotest.test_case "polling" `Quick test_sampler_polling ] );
      ( "spans",
        [ Alcotest.test_case "ino targets" `Quick test_span_ino_targets ] );
      ( "pathfs",
        [ Alcotest.test_case "resolve counts" `Quick test_resolve_counts ] );
      ( "benchdiff",
        [
          Alcotest.test_case "numeric leaf" `Quick test_benchdiff_number;
          Alcotest.test_case "string leaf" `Quick test_benchdiff_string;
          Alcotest.test_case "timeseries sample" `Quick test_benchdiff_timeseries;
          Alcotest.test_case "one-sided path" `Quick test_benchdiff_one_side;
          Alcotest.test_case "keyed reorder" `Quick test_benchdiff_keyed_reorder;
          Alcotest.test_case "duplicate keys" `Quick test_benchdiff_duplicates;
        ] );
    ]
