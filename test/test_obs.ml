(* The observability layer: registry semantics, snapshot/diff, span
   tracing under simulated time, JSON export, and the telemetry document's
   regression guarantees. *)

module Registry = Cffs_obs.Registry
module Trace = Cffs_obs.Trace
module Json = Cffs_obs.Json
module Telemetry = Cffs_harness.Telemetry
module Setup = Cffs_harness.Setup
module Smallfile = Cffs_workload.Smallfile

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_counter_semantics () =
  let c = Registry.counter "testobs.c1" in
  Registry.incr c;
  Registry.add c 4;
  check Alcotest.int "value" 5 (Registry.counter_value c);
  let f = Registry.fcounter "testobs.f1" in
  Registry.fadd f 0.25;
  Registry.fadd f 0.25;
  check (Alcotest.float 1e-9) "fvalue" 0.5 (Registry.fcounter_value f);
  (* Re-registering the same name yields the same metric... *)
  Registry.incr (Registry.counter "testobs.c1");
  check Alcotest.int "shared" 6 (Registry.counter_value c);
  (* ...and a kind clash is rejected. *)
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Registry: testobs.c1 already registered with another kind")
    (fun () -> ignore (Registry.gauge "testobs.c1"))

let test_histogram_semantics () =
  let h = Registry.histogram "testobs.h1" in
  for _ = 1 to 100 do
    Registry.observe h 0.001
  done;
  let snap = Registry.snapshot () in
  match Registry.get_histogram snap "testobs.h1" with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some hs ->
      check Alcotest.int "count" 100 hs.Registry.count;
      check (Alcotest.float 1e-9) "sum" 0.1 hs.Registry.sum;
      check (Alcotest.float 1e-12) "min" 0.001 hs.Registry.min;
      check (Alcotest.float 1e-12) "max" 0.001 hs.Registry.max;
      check (Alcotest.float 1e-12) "mean" 0.001 (Registry.hist_mean hs);
      (* Constant samples: every percentile clamps to the observed value. *)
      check (Alcotest.float 1e-12) "p50" 0.001 (Registry.hist_percentile hs 50.0);
      check (Alcotest.float 1e-12) "p99" 0.001 (Registry.hist_percentile hs 99.0)

let test_histogram_empty () =
  let h = Registry.histogram "testobs.h_empty" in
  ignore h;
  let snap = Registry.snapshot () in
  match Registry.get_histogram snap "testobs.h_empty" with
  | None -> Alcotest.fail "histogram missing"
  | Some hs ->
      check (Alcotest.float 0.0) "min 0 when empty" 0.0 hs.Registry.min;
      check (Alcotest.float 0.0) "max 0 when empty" 0.0 hs.Registry.max;
      check (Alcotest.float 0.0) "p50 0 when empty" 0.0
        (Registry.hist_percentile hs 50.0)

let test_snapshot_diff_roundtrip () =
  let c = Registry.counter "testobs.rt_c" in
  let f = Registry.fcounter "testobs.rt_f" in
  let g = Registry.gauge "testobs.rt_g" in
  let h = Registry.histogram "testobs.rt_h" in
  Registry.add c 10;
  Registry.fadd f 1.0;
  Registry.observe h 0.002;
  let before = Registry.snapshot () in
  Registry.add c 7;
  Registry.fadd f 0.5;
  Registry.set g 42.0;
  Registry.observe h 0.002;
  Registry.observe h 0.002;
  let d = Registry.diff (Registry.snapshot ()) before in
  check Alcotest.int "counter delta" 7 (Registry.get_counter d "testobs.rt_c");
  check (Alcotest.float 1e-9) "fcounter delta" 0.5
    (Registry.get_fcounter d "testobs.rt_f");
  check (Alcotest.float 0.0) "gauge passes through" 42.0
    (Registry.get_gauge d "testobs.rt_g");
  (match Registry.get_histogram d "testobs.rt_h" with
  | None -> Alcotest.fail "hist missing from diff"
  | Some hs ->
      check Alcotest.int "hist count delta" 2 hs.Registry.count;
      check (Alcotest.float 1e-9) "hist sum delta" 0.004 hs.Registry.sum);
  (* Absent names read as zero. *)
  check Alcotest.int "absent counter" 0 (Registry.get_counter d "testobs.absent")

(* ------------------------------------------------------------------ *)
(* Trace *)

let with_tracing f =
  Trace.set_capacity 1024;
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.clear ())
    f

let test_span_nesting () =
  with_tracing (fun () ->
      let clock = ref 0.0 in
      let now () = !clock in
      Trace.with_span ~clock:now ~target:"outer-target" "outer" (fun () ->
          clock := 1.0;
          Trace.with_span ~clock:now "inner" (fun () -> clock := 2.0);
          clock := 3.0);
      match Trace.events () with
      | [ inner; outer ] ->
          (* Spans record at close: the inner span lands first. *)
          check Alcotest.string "inner name" "inner" inner.Trace.name;
          check Alcotest.string "outer name" "outer" outer.Trace.name;
          check Alcotest.int "inner depth" 1 inner.Trace.depth;
          check Alcotest.int "outer depth" 0 outer.Trace.depth;
          check (Alcotest.float 0.0) "inner start" 1.0 inner.Trace.t_start;
          check (Alcotest.float 0.0) "inner end" 2.0 inner.Trace.t_end;
          check (Alcotest.float 0.0) "outer start" 0.0 outer.Trace.t_start;
          check (Alcotest.float 0.0) "outer end" 3.0 outer.Trace.t_end;
          check Alcotest.string "target" "outer-target" outer.Trace.target;
          check Alcotest.bool "seq order" true (inner.Trace.seq < outer.Trace.seq)
      | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs))

let test_span_exception () =
  with_tracing (fun () ->
      let clock = ref 0.0 in
      (try
         Trace.with_span ~clock:(fun () -> !clock) "failing" (fun () ->
             failwith "boom")
       with Failure _ -> ());
      match Trace.events () with
      | [ ev ] ->
          check Alcotest.bool "error attr" true
            (List.mem_assoc "error" ev.Trace.attrs)
      | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs))

let test_ring_bounded () =
  with_tracing (fun () ->
      Trace.set_capacity 3;
      for i = 1 to 5 do
        Trace.instant ~now:(float_of_int i) (Printf.sprintf "ev%d" i)
      done;
      let names = List.map (fun e -> e.Trace.name) (Trace.events ()) in
      check (Alcotest.list Alcotest.string) "oldest dropped"
        [ "ev3"; "ev4"; "ev5" ] names;
      Trace.set_capacity 1024)

let test_sink_delivery () =
  with_tracing (fun () ->
      let seen = ref [] in
      Trace.add_sink ~name:"test" (fun e -> seen := e.Trace.name :: !seen);
      Trace.instant ~now:0.0 "a";
      Trace.instant ~now:0.0 "b";
      Trace.remove_sink "test";
      Trace.instant ~now:0.0 "c";
      check (Alcotest.list Alcotest.string) "sink saw a b" [ "a"; "b" ]
        (List.rev !seen))

let test_disabled_records_nothing () =
  Trace.clear ();
  check Alcotest.bool "disabled" false (Trace.is_enabled ());
  Trace.instant ~now:0.0 "ignored";
  Trace.with_span ~clock:(fun () -> 0.0) "ignored" (fun () -> ());
  check Alcotest.int "no events" 0 (List.length (Trace.events ()))

(* ------------------------------------------------------------------ *)
(* JSON export *)

let test_json_golden () =
  let j =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.String "x\"y\n");
        ("c", Json.List [ Json.Float 0.5; Json.Bool true; Json.Null ]);
        ("d", Json.Float 2.0);
      ]
  in
  check Alcotest.string "compact serialisation"
    {|{"a":1,"b":"x\"y\n","c":[0.5,true,null],"d":2.0}|} (Json.to_string j)

let test_json_parse_roundtrip () =
  let j =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.String "x\"y\n");
        ("c", Json.List [ Json.Float 0.5; Json.Bool true; Json.Null ]);
        ("d", Json.Float 2.0);
        ("e", Json.Obj [ ("nested", Json.List [ Json.Int (-3) ]) ]);
      ]
  in
  match Json.parse (Json.to_string j) with
  | Ok j' -> check Alcotest.bool "roundtrip" true (j = j')
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

let test_json_parse_details () =
  (* Ints stay ints; anything with a fraction or exponent becomes float. *)
  (match Json.parse "[1, 1.0, 1e2, -4]" with
  | Ok (Json.List [ Json.Int 1; Json.Float 1.0; Json.Float 100.0; Json.Int (-4) ]) -> ()
  | Ok j -> Alcotest.fail ("unexpected " ^ Json.to_string j)
  | Error e -> Alcotest.fail e);
  (* Unicode escapes decode to UTF-8. *)
  (match Json.parse {|"aéb"|} with
  | Ok (Json.String s) -> check Alcotest.string "utf8" "a\xc3\xa9b" s
  | _ -> Alcotest.fail "unicode escape");
  (* Errors carry a byte offset; trailing garbage is rejected. *)
  (match Json.parse "{\"a\":}" with
  | Error e -> check Alcotest.bool "error mentions offset" true (e <> "")
  | Ok _ -> Alcotest.fail "accepted malformed input");
  match Json.parse "1 x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted trailing garbage"

let test_registry_json_golden () =
  Registry.add (Registry.counter "testg.c") 3;
  Registry.fadd (Registry.fcounter "testg.f") 1.5;
  let h = Registry.histogram "testg.h" in
  Registry.observe h 0.001;
  Registry.observe h 0.001;
  let snap = Registry.filter ~prefix:"testg." (Registry.snapshot ()) in
  check Alcotest.string "snapshot json"
    ({|{"testg.c":3,"testg.f":1.5,"testg.h":{"count":2,"sum_s":0.002,|}
    ^ {|"min_s":0.001,"max_s":0.001,"mean_s":0.001,"p50_s":0.001,|}
    ^ {|"p95_s":0.001,"p99_s":0.001}}|})
    (Json.to_string (Registry.to_json snap))

let test_event_json () =
  let ev =
    {
      Trace.seq = 7;
      name = "cffs.lookup";
      target = "f001";
      depth = 1;
      t_start = 0.5;
      t_end = 0.75;
      attrs = [ ("reads", "2") ];
    }
  in
  check Alcotest.string "event json"
    {|{"seq":7,"name":"cffs.lookup","target":"f001","depth":1,"t_start":0.5,"t_end":0.75,"attrs":{"reads":"2"}}|}
    (Json.to_string (Trace.event_to_json ev))

(* ------------------------------------------------------------------ *)
(* Telemetry document and the paper's headline regression *)

let nfiles = 300

let read_phase (run : Telemetry.config_run) =
  List.find (fun (r : Smallfile.result) -> r.phase = Smallfile.Read) run.results

(* The paper's Table 3 claim: C-FFS with embedded inodes + grouping needs
   an order of magnitude fewer disk reads per file than the conventional
   configuration (1.01 -> 0.07 requests/file at full scale, ~14x; the seed
   measures ~13.5x at quick scale).  Guard a conservative floor so any
   future change that erodes the win fails loudly. *)
let test_smallfile_ratio_regression () =
  let policy = Cffs_cache.Cache.Sync_metadata in
  let base =
    Telemetry.run_config ~nfiles ~file_bytes:1024 ~policy
      (Setup.Cffs_fs Cffs.config_ffs_like)
  in
  let cffs =
    Telemetry.run_config ~nfiles ~file_bytes:1024 ~policy
      (Setup.Cffs_fs Cffs.config_default)
  in
  let b = (read_phase base).requests_per_file in
  let c = (read_phase cffs).requests_per_file in
  check Alcotest.bool
    (Printf.sprintf "read reqs/file ratio >= 8 (base %.3f, cffs %.3f)" b c)
    true
    (b >= 8.0 *. c);
  (* The C-FFS-specific counters behind the effect actually fired. *)
  check Alcotest.bool "embedded-inode hits" true
    (Registry.get_counter cffs.delta "cffs.embedded_inode_hits" > 0);
  check Alcotest.bool "group reads" true
    (Registry.get_counter cffs.delta "cffs.group_reads" > 0);
  check Alcotest.bool "conventional falls to external inodes" true
    (Registry.get_counter base.delta "cffs.external_inode_reads" > 0);
  check Alcotest.bool "no embedded hits when off" true
    (Registry.get_counter base.delta "cffs.embedded_inode_hits" = 0)

let contains haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= hn && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_document_shape () =
  let doc = Telemetry.document ~nfiles ~file_bytes:1024 () in
  let s = Json.to_string doc in
  List.iter
    (fun needle ->
      check Alcotest.bool ("document contains " ^ needle) true
        (contains s needle))
    [
      {|"schema":"cffs-telemetry-v2"|};
      {|"benchmark":"smallfile"|};
      {|"phase":"create"|};
      {|"p50_s"|};
      {|"p95_s"|};
      {|"p99_s"|};
      {|"grouping"|};
      {|"group_residency"|};
      {|"latency_breakdown"|};
      {|"timeseries"|};
      {|"drive.seek_s"|};
      {|"drive.rotation_s"|};
      {|"drive.transfer_s"|};
      {|"blockdev.reads"|};
      {|"cffs.embedded_inode_hits"|};
      {|"cffs.group_reads"|};
      {|"read_requests_per_file"|};
    ]

(* Updating a registry metric allocates nothing, whether through the
   update functions with a value already at hand or through a metric's
   own cell. *)
let test_updates_allocate_nothing () =
  let c = Registry.counter "testobs.alloc_c" and f = Registry.fcounter "testobs.alloc_f"
  and g = Registry.gauge "testobs.alloc_g" and h = Registry.histogram "testobs.alloc_h" in
  let n = Sys.opaque_identity 3 and x = Sys.opaque_identity 0.25 in
  let cell = Registry.fcell f and sample = { Registry.v = 0.5 } in
  List.iter
    (fun (what, update) -> Alloc_probe.at_most what 0.0 (Alloc_probe.words_per_call update))
    [
      ("incr", fun () -> Registry.incr c);
      ("add", fun () -> Registry.add c n);
      ("fadd", fun () -> Registry.fadd f x);
      ("set", fun () -> Registry.set g x);
      ("observe", fun () -> Registry.observe h x);
      ("observe_cell", fun () -> Registry.observe_cell h sample);
      ("cell update", fun () -> cell.Registry.v <- cell.Registry.v +. x);
    ];
  check (Alcotest.float 0.0) "the cell is the fcounter" (Registry.fcounter_value f)
    cell.Registry.v

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
          Alcotest.test_case "histogram semantics" `Quick test_histogram_semantics;
          Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
          Alcotest.test_case "snapshot/diff round-trip" `Quick
            test_snapshot_diff_roundtrip;
          Alcotest.test_case "updates allocate nothing" `Quick test_updates_allocate_nothing;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "span exception" `Quick test_span_exception;
          Alcotest.test_case "ring bounded" `Quick test_ring_bounded;
          Alcotest.test_case "sink delivery" `Quick test_sink_delivery;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
        ] );
      ( "json",
        [
          Alcotest.test_case "json golden" `Quick test_json_golden;
          Alcotest.test_case "json parse roundtrip" `Quick
            test_json_parse_roundtrip;
          Alcotest.test_case "json parse details" `Quick
            test_json_parse_details;
          Alcotest.test_case "registry json golden" `Quick
            test_registry_json_golden;
          Alcotest.test_case "event json" `Quick test_event_json;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "smallfile ratio regression" `Slow
            test_smallfile_ratio_regression;
          Alcotest.test_case "document shape" `Slow test_document_shape;
        ] );
    ]
