(* The four workloads, driven from one thread in a closed loop: each FS
   call is issued only after the previous one returns.  Each workload
   issues exactly the call sequence of the library workload it mirrors
   (same per-call CPU charge, same phase boundaries), so the simulated
   per-phase numbers match the paper tables; on top of that it times
   every call, checks every result and brackets the measured part. *)

module Blockdev = Cffs_blockdev.Blockdev
module Cache = Cffs_cache.Cache
module Errno = Cffs_vfs.Errno
module Inode = Cffs_vfs.Inode
module Fs_intf = Cffs_vfs.Fs_intf
module Prng = Cffs_util.Prng
module R = Cffs_obs.Registry
module Setup = Cffs_harness.Setup
module Env = Cffs_workload.Env
module Volume = Cffs_volume.Volume

type phase = { name : string; nops : int; sim_s : float; requests : int }

type ctx = {
  inst : Setup.instance;
  fs : Cffs.t;
  dev : Blockdev.t;
  cache : Cache.t;
  recorder : Recorder.t option;
  host : Float.Array.t;  (** host seconds of each FS call (Call spans) *)
  sim : Float.Array.t;  (** simulated seconds of every call, CPU charge included *)
  mutable nhost : int;
  mutable nsim : int;
  span_host : float array;  (** host seconds per {!Recorder.span} *)
  mutable attempted : int;
  mutable errors : int;
  mutable first_error : string option;
  mutable setup_s : float;
  mutable measured_s : float;
  mutable measured_sim_s : float;
  mutable alloc_words : float;
  mutable deltas : R.snapshot list;  (** registry diff of each measured segment *)
  mutable busy : float array;  (** per-spindle simulated busy seconds *)
  mutable phases : phase list;  (** newest first *)
  mutable bigdir : int * int;  (** device reads, indexed lookups in bigdir_cold *)
}

let make ?recorder inst ~capacity =
  let fs = Option.get inst.Setup.cffs in
  {
    inst;
    fs;
    dev = inst.Setup.env.Env.dev;
    cache = Cffs.cache fs;
    recorder;
    host = Float.Array.make capacity 0.0;
    sim = Float.Array.make capacity 0.0;
    nhost = 0;
    nsim = 0;
    span_host = Array.make Recorder.n_spans 0.0;
    attempted = 0;
    errors = 0;
    first_error = None;
    setup_s = 0.0;
    measured_s = 0.0;
    measured_sim_s = 0.0;
    alloc_words = 0.0;
    deltas = [];
    busy = [||];
    phases = [];
    bigdir = (0, 0);
  }

let fail c what =
  c.errors <- c.errors + 1;
  if c.first_error = None then c.first_error <- Some what

let expect_ok c what = function
  | Ok _ -> ()
  | Error e -> fail c (what ^ ": " ^ Errno.to_string e)

(* The per-call CPU charge every library workload makes before a call. *)
let op c =
  Blockdev.advance c.dev c.inst.Setup.env.Env.cpu_per_op;
  Cffs_obs.Sampler.poll_current ~now:(Blockdev.now c.dev)

(* One timed call of the measured part.  The recorder is settled outside
   the span, so its bookkeeping never counts as the call's host time. *)
let timed c span ~cpu f =
  (match c.recorder with Some r -> r.Recorder.span <- span | None -> ());
  c.attempted <- c.attempted + 1;
  let s0 = Blockdev.now c.dev in
  let h0 = Hclock.now () in
  if cpu then op c;
  let v = f () in
  let dt = Hclock.now () -. h0 in
  let i = Recorder.span_index span in
  c.span_host.(i) <- c.span_host.(i) +. dt;
  if span = Recorder.Call then begin
    Float.Array.set c.host c.nhost dt;
    c.nhost <- c.nhost + 1
  end;
  Float.Array.set c.sim c.nsim (Blockdev.now c.dev -. s0);
  c.nsim <- c.nsim + 1;
  (match c.recorder with Some r -> Recorder.settle r | None -> ());
  v

let call c f = timed c Recorder.Call ~cpu:true f
let sync c ~cpu = timed c Recorder.Flush ~cpu (fun () -> Cffs.sync c.fs)

let remount c =
  timed c Recorder.Flush ~cpu:false (fun () -> Cffs.remount c.fs);
  Option.iter Recorder.drop_device_cache c.recorder

(* Unmeasured work: format, skeleton, populate.  Calls are still checked. *)
let setup c f =
  let h0 = Hclock.now () in
  f ();
  c.setup_s <- c.setup_s +. (Hclock.now () -. h0)

let untimed c what r =
  c.attempted <- c.attempted + 1;
  expect_ok c what r

let spindle_busy dev =
  Array.of_list (List.map (fun s -> s.Volume.s_busy_s) (Volume.spindles dev))

let measured c f =
  Option.iter (fun r -> Recorder.attach r c.cache) c.recorder;
  let busy0 = spindle_busy c.dev in
  let before = R.snapshot () in
  let s0 = Blockdev.now c.dev in
  let replay0 = match c.recorder with Some r -> r.Recorder.replay_s | None -> 0.0 in
  let w0 = Gc.minor_words () in
  let h0 = Hclock.now () in
  f ();
  let h1 = Hclock.now () in
  let w1 = Gc.minor_words () in
  (* shadow replays run between calls; they are tracing cost, not work *)
  let replayed = match c.recorder with Some r -> r.Recorder.replay_s -. replay0 | None -> 0.0 in
  c.measured_s <- c.measured_s +. (h1 -. h0 -. replayed);
  c.alloc_words <- c.alloc_words +. (w1 -. w0);
  c.measured_sim_s <- c.measured_sim_s +. (Blockdev.now c.dev -. s0);
  c.deltas <- R.diff (R.snapshot ()) before :: c.deltas;
  let busy1 = spindle_busy c.dev in
  if c.busy = [||] then c.busy <- Array.make (Array.length busy1) 0.0;
  Array.iteri (fun i b1 -> c.busy.(i) <- c.busy.(i) +. b1 -. busy0.(i)) busy1;
  Option.iter (fun r -> Recorder.detach r c.cache) c.recorder

(* A paper-table phase: simulated time and requests exactly as
   [Env.measured] reports them for the library workloads. *)
let phase c name ~nops f =
  let m = Env.measured c.inst.Setup.env f in
  c.phases <-
    { name; nops; sim_s = m.Env.seconds; requests = m.Env.requests } :: c.phases

(* Distinct contents per file, so a read that returns another file's
   bytes is caught; the simulator never looks at contents. *)
let stamp base i =
  let b = Bytes.copy base in
  Bytes.set_int64_le b 0 (Int64.of_int i);
  b

(* --- smallfile: the LFS small-file benchmark (Smallfile.run) ----------- *)

let smallfile_path ~files_per_dir i =
  Printf.sprintf "/smallfile/d%03d/f%05d" (i / files_per_dir) i

let smallfile ~nfiles c ~seed =
  let files_per_dir = 100 and file_bytes = 1024 in
  let fs = c.fs in
  let payload = ref [||] in
  setup c (fun () ->
      let base = Prng.bytes (Prng.create seed) file_bytes in
      payload := Array.init nfiles (stamp base);
      untimed c "mkdir" (Cffs.mkdir fs "/smallfile");
      for d = 0 to ((nfiles + files_per_dir - 1) / files_per_dir) - 1 do
        untimed c "mkdir" (Cffs.mkdir fs (Printf.sprintf "/smallfile/d%03d" d))
      done;
      Cffs.sync fs);
  let payload = !payload in
  let path = smallfile_path ~files_per_dir in
  let pass name f =
    phase c name ~nops:nfiles (fun () ->
        for i = 0 to nfiles - 1 do
          f i
        done;
        sync c ~cpu:true)
  in
  measured c (fun () ->
      pass "create" (fun i ->
          expect_ok c "create" (call c (fun () -> Cffs.write_file fs (path i) payload.(i))));
      remount c;
      pass "read" (fun i ->
          match call c (fun () -> Cffs.read_file fs (path i)) with
          | Ok b -> if not (Bytes.equal b payload.(i)) then fail c "read: wrong bytes"
          | Error e -> fail c ("read: " ^ Errno.to_string e));
      pass "overwrite" (fun i ->
          expect_ok c "overwrite"
            (call c (fun () -> Cffs.write fs (path i) ~off:0 payload.(i))));
      pass "delete" (fun i ->
          expect_ok c "delete" (call c (fun () -> Cffs.unlink fs (path i)))))

(* --- namespace: Statbench.run's metadata traffic ----------------------- *)

type ns = { dirs : int; per_dir : int; repeats : int; entries : int; depth : int }

let check_stat c what ~size = function
  | Ok st ->
      if st.Fs_intf.st_kind <> Inode.Regular || st.Fs_intf.st_size <> size then
        fail c (what ^ ": wrong kind or size")
  | Error e -> fail c (what ^ ": " ^ Errno.to_string e)

let namespace p c ~seed =
  let fs = c.fs in
  let file_bytes = 1024 in
  let nfiles = p.dirs * p.per_dir in
  let prng = Prng.create seed in
  let payload = Prng.bytes prng file_bytes in
  let order = Array.init nfiles (fun i -> i) in
  for i = nfiles - 1 downto 1 do
    let j = Prng.int prng (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  let dir_path d = Printf.sprintf "/statbench/d%03d" d in
  let file_path i =
    Printf.sprintf "/statbench/d%03d/f%05d" (i / p.per_dir) i
  in
  let expected =
    Array.init p.dirs (fun d ->
        List.init p.per_dir (fun k -> Printf.sprintf "f%05d" ((d * p.per_dir) + k)))
  in
  setup c (fun () ->
      untimed c "mkdir" (Cffs.mkdir fs "/statbench");
      for d = 0 to p.dirs - 1 do
        untimed c "mkdir" (Cffs.mkdir fs (dir_path d))
      done;
      for i = 0 to nfiles - 1 do
        untimed c "populate" (Cffs.write_file fs (file_path i) payload)
      done;
      Cffs.sync fs);
  let ls () =
    for d = 0 to p.dirs - 1 do
      match call c (fun () -> Cffs.list_dir_plus fs (dir_path d)) with
      | Ok entries ->
          if List.map fst entries <> expected.(d) then fail c "ls: wrong names";
          List.iter
            (fun (_, st) -> check_stat c "ls" ~size:file_bytes (Ok st))
            entries
      | Error e -> fail c ("ls: " ^ Errno.to_string e)
    done
  in
  let stat_sweep () =
    Array.iter
      (fun i ->
        check_stat c "stat" ~size:file_bytes
          (call c (fun () -> Cffs.stat fs (file_path i))))
      order
  in
  measured c (fun () ->
      remount c;
      phase c "walk" ~nops:nfiles ls;
      phase c "ls_warm" ~nops:nfiles ls;
      remount c;
      phase c "stat_cold" ~nops:nfiles stat_sweep;
      phase c "stat_warm" ~nops:(p.repeats * nfiles) (fun () ->
          for _ = 1 to p.repeats do
            stat_sweep ()
          done));
  let big_name i = Printf.sprintf "/statbench/big/e%06d" i in
  let probe = ref [||] in
  setup c (fun () ->
      untimed c "mkdir big" (Cffs.mkdir fs "/statbench/big");
      for i = 0 to p.entries - 1 do
        untimed c "populate big" (Cffs.create fs (big_name i))
      done;
      Cffs.sync fs;
      let nprobe = min p.entries 200 in
      let stride = p.entries / nprobe in
      let a = Array.init nprobe (fun k -> k * stride) in
      for i = nprobe - 1 downto 1 do
        let j = Prng.int prng (i + 1) in
        let tmp = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- tmp
      done;
      probe := a);
  let probe = !probe in
  measured c (fun () ->
      remount c;
      let replayed () =
        match c.recorder with Some r -> Recorder.moved_counter r "blockdev.reads" | None -> 0
      in
      let before = R.snapshot () and replayed0 = replayed () in
      phase c "bigdir_cold" ~nops:(Array.length probe) (fun () ->
          Array.iter
            (fun i ->
              check_stat c "bigdir stat" ~size:0
                (call c (fun () -> Cffs.stat fs (big_name i))))
            probe);
      let d = R.diff (R.snapshot ()) before in
      c.bigdir <-
        ( R.get_counter d "blockdev.reads" - (replayed () - replayed0),
          R.get_counter d "dirindex.indexed_lookups" ));
  let path =
    let b = Buffer.create 64 in
    Buffer.add_string b "/statbench/deep";
    for level = 0 to p.depth - 1 do
      Buffer.add_string b (Printf.sprintf "/p%02d" level)
    done;
    Buffer.add_string b "/leaf";
    Buffer.contents b
  in
  setup c (fun () ->
      untimed c "mkdir deep" (Cffs.mkdir fs "/statbench/deep");
      let dir = ref "/statbench/deep" in
      for level = 0 to p.depth - 1 do
        dir := Printf.sprintf "%s/p%02d" !dir level;
        untimed c "mkdir deep" (Cffs.mkdir fs !dir)
      done;
      untimed c "populate deep" (Cffs.write_file fs path payload);
      Cffs.sync fs;
      c.attempted <- c.attempted + 1;
      check_stat c "warm deep" ~size:file_bytes (Cffs.stat fs path));
  let nops = max 100 (p.repeats * 100) in
  measured c (fun () ->
      phase c "deep_warm" ~nops (fun () ->
          for _ = 1 to nops do
            check_stat c "deep stat" ~size:file_bytes
              (call c (fun () -> Cffs.stat fs path))
          done))

(* --- mclient_striped: the A9 point (Experiments.volume_point) ---------- *)

(* Mclient's round-robin merge, the arrival order of concurrent clients. *)
let interleave lists =
  let rec go acc = function
    | [] -> List.rev acc
    | lists ->
        let heads, tails =
          List.fold_left
            (fun (hs, ts) l ->
              match l with [] -> (hs, ts) | x :: r -> (x :: hs, r :: ts))
            ([], []) lists
        in
        go (List.rev_append heads acc) (List.rev tails)
  in
  go [] lists

type mc = { streams : int; per_stream : int; file_bytes : int; batch : int; qdepth : int }

let mclient p c ~seed =
  let fs = c.fs in
  let stream_dir s = Printf.sprintf "/mc/s%02d" s in
  let file_path s i = Printf.sprintf "/mc/s%02d/f%05d" s i in
  let base = Prng.bytes (Prng.create seed) p.file_bytes in
  let streams = List.init p.streams (fun s -> s) in
  setup c (fun () ->
      untimed c "mkdir" (Cffs.mkdir_p fs "/mc");
      List.iter
        (fun s ->
          untimed c "mkdir" (Cffs.mkdir fs (stream_dir s));
          for i = 0 to p.per_stream - 1 do
            untimed c "create"
              (Cffs.write_file fs (file_path s i) (stamp base ((s * p.per_stream) + i)))
          done)
        streams;
      Cffs.sync fs);
  (* one reusable expected buffer: restamped per read, compared by memcmp *)
  let expect = Bytes.copy base in
  let blocks = (p.file_bytes + Blockdev.block_size c.dev - 1) / Blockdev.block_size c.dev in
  let rounds = (p.per_stream + p.batch - 1) / p.batch in
  measured c (fun () ->
      remount c;
      Blockdev.set_queue c.dev ~depth:p.qdepth ~policy:Cffs_disk.Scheduler.Clook
        ~coalesce:true ();
      Option.iter Recorder.mark c.recorder;
      phase c "read" ~nops:(p.streams * p.per_stream) (fun () ->
          for r = 0 to rounds - 1 do
            let lo = r * p.batch in
            let hi = min p.per_stream (lo + p.batch) - 1 in
            let per_stream =
              List.map
                (fun s ->
                  let runs = ref [] in
                  for i = lo to hi do
                    match call c (fun () -> Cffs.file_runs fs (file_path s i)) with
                    | Ok rs ->
                        if List.fold_left (fun a (_, n) -> a + n) 0 rs <> blocks then
                          fail c "file_runs: wrong extent";
                        runs := !runs @ rs
                    | Error e -> fail c ("file_runs: " ^ Errno.to_string e)
                  done;
                  !runs)
                streams
            in
            let runs = interleave ([] :: per_stream) in
            timed c Recorder.Prefetch ~cpu:false (fun () ->
                match c.recorder with
                | None -> Cache.prefetch c.cache runs
                | Some rc ->
                    Recorder.prefetch_batch rc (Recorder.prefetch_reqs c.cache runs);
                    rc.Recorder.in_prefetch <- true;
                    Cache.prefetch c.cache runs;
                    rc.Recorder.in_prefetch <- false);
            List.iter
              (fun s ->
                for i = lo to hi do
                  match call c (fun () -> Cffs.read_file fs (file_path s i)) with
                  | Ok b ->
                      Bytes.set_int64_le expect 0 (Int64.of_int ((s * p.per_stream) + i));
                      if not (Bytes.equal b expect) then fail c "read: wrong bytes"
                  | Error e -> fail c ("read: " ^ Errno.to_string e)
                done)
              streams
          done;
          sync c ~cpu:false))

(* --- library references for the mirror-fidelity check ----------------- *)

let of_env_measure name nops (m : Env.measure) =
  { name; nops; sim_s = m.Env.seconds; requests = m.Env.requests }

let smallfile_reference ~nfiles inst ~seed =
  List.map
    (fun (r : Cffs_workload.Smallfile.result) ->
      of_env_measure
        (Cffs_workload.Smallfile.phase_name r.phase)
        r.nfiles r.measure)
    (Cffs_workload.Smallfile.run ~nfiles ~prng_seed:seed inst.Setup.env)

let namespace_reference p inst ~seed =
  List.map
    (fun (r : Cffs_workload.Statbench.result) ->
      of_env_measure (Cffs_workload.Statbench.phase_name r.phase) r.nops r.measure)
    (Cffs_workload.Statbench.run ~dirs:p.dirs ~files_per_dir:p.per_dir
       ~repeats:p.repeats ~entries:p.entries ~depth:p.depth ~prng_seed:seed
       inst.Setup.env)

let mclient_reference p ~seed =
  let module E = Cffs_harness.Experiments in
  let scale =
    {
      E.full with
      E.mclient =
        {
          E.full.E.mclient with
          Cffs_workload.Mclient.nstreams = p.streams;
          files_per_stream = p.per_stream;
          batch = p.batch;
          prng_seed = seed;
        };
    }
  in
  let vp = E.volume_point ~qdepth:p.qdepth scale ~drives:4 ~layout:Volume.Striped in
  [ of_env_measure "read" (p.streams * p.per_stream) vp.E.vp_result.Cffs_workload.Mclient.measure ]
