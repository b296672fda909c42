(* Multi-client workload: N small-file streams and one large sequential
   stream interleaved over the shared tagged device queue.

   Each small stream owns a directory of small files; the large stream owns
   one big sequential file.  The measured read phase proceeds in rounds:
   every stream maps its next batch of files to physical block runs
   (F.file_runs), the runs of all streams are interleaved round-robin —
   the arrival order a real multi-client system would present — and
   submitted together through one {!Cache.prefetch}, so the queue's
   scheduler and coalescer see the whole round at once.  The FS-level
   reads that follow are then (mostly) cache hits.

   Per-stream and aggregate throughput come from the stream byte counts
   over the measured seconds; queue-depth and service-time statistics come
   from the [ioqueue.*] registry metrics the pipeline maintains. *)

module Fs_intf = Cffs_vfs.Fs_intf
module Blockdev = Cffs_blockdev.Blockdev
module Cache = Cffs_cache.Cache
module Scheduler = Cffs_disk.Scheduler
module Errno = Cffs_vfs.Errno
module R = Cffs_obs.Registry
module Json = Cffs_obs.Json

type params = {
  nstreams : int;  (** small-file client streams *)
  files_per_stream : int;
  file_bytes : int;
  large_mb : int;  (** large sequential stream; 0 disables it *)
  batch : int;  (** files prefetched per stream per round *)
  qdepth : int;
  sched : Scheduler.policy;
  coalesce : bool;
  prng_seed : int;
}

let default_params =
  {
    nstreams = 4;
    files_per_stream = 100;
    file_bytes = 4096;
    large_mb = 4;
    batch = 8;
    qdepth = 8;
    sched = Scheduler.Clook;
    coalesce = true;
    prng_seed = 11;
  }

type stream_result = {
  stream : string;
  ops : int;
  bytes : int;
  kb_per_sec : float;
}

type result = {
  label : string;
  params : params;
  streams : stream_result list;
  small_kb_per_sec : float;  (** aggregate over the small-file streams *)
  large_kb_per_sec : float;
  total_kb_per_sec : float;
  small_files_per_sec : float;
  measure : Env.measure;
  qdepth_mean : float option;  (** queued requests seen at each dispatch *)
  qdepth_max : float option;
  wait_mean_ms : float option;  (** submit-to-service latency *)
  wait_p95_ms : float option;
  dispatches : int;
  coalesced : int;
}

let stream_dir s = Printf.sprintf "/mc/s%02d" s
let file_path s i = Printf.sprintf "/mc/s%02d/f%05d" s i
let large_path = "/mc/large"

(* Round-robin merge: one element from each list in turn — the arrival
   order of concurrent clients. *)
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

(* Recompress a slice of per-logical-block physical addresses back into
   contiguous (start, nblocks) runs. *)
let runs_of_blocks blocks =
  Array.fold_left
    (fun acc p ->
      match acc with
      | (start, n) :: rest when start + n = p -> (start, n + 1) :: rest
      | _ -> (p, 1) :: acc)
    [] blocks
  |> List.rev

let validate p =
  let too_small (what, least, v) =
    if v < least then Some (Printf.sprintf "%s must be at least %d, got %d" what least v)
    else None
  in
  match
    List.find_map too_small
      [
        ("streams", 1, p.nstreams);
        ("files per stream", 1, p.files_per_stream);
        ("file bytes", 0, p.file_bytes);
        ("large stream MB", 0, p.large_mb);
        ("batch", 1, p.batch);
        ("queue depth", 1, p.qdepth);
      ]
  with
  | Some msg -> Error msg
  | None -> Ok ()

let run ?(params = default_params) ~cache (env : Env.t) =
  let p = params in
  (match validate p with Error m -> invalid_arg ("Mclient.run: " ^ m) | Ok () -> ());
  let (Fs_intf.Packed ((module F), fs)) = env.Env.fs in
  let dev = env.Env.dev in
  let fail what e =
    failwith
      (Printf.sprintf "mclient %s on %s: %s" what (F.label fs)
         (Errno.to_string e))
  in
  let check what = function Ok _ -> () | Error e -> fail what e in
  let op () =
    Blockdev.advance dev env.Env.cpu_per_op;
    Cffs_obs.Sampler.poll_current ~now:(Blockdev.now dev)
  in
  let prng = Cffs_util.Prng.create p.prng_seed in
  let payload = Cffs_util.Prng.bytes prng p.file_bytes in
  let bsz = Blockdev.block_size dev in
  let large_bytes = p.large_mb * 1024 * 1024 in
  let streams = List.init p.nstreams (fun s -> s) in
  (* --- setup (unmeasured): populate every stream's working set ------- *)
  check "mkdir" (F.mkdir_p fs "/mc");
  List.iter
    (fun s ->
      check "mkdir" (F.mkdir fs (stream_dir s));
      for i = 0 to p.files_per_stream - 1 do
        check "create" (F.write_file fs (file_path s i) payload)
      done)
    streams;
  if large_bytes > 0 then begin
    check "create" (F.create fs large_path);
    let chunk = Bytes.create (64 * bsz) in
    let off = ref 0 in
    while !off < large_bytes do
      let len = min (Bytes.length chunk) (large_bytes - !off) in
      check "write" (F.write fs large_path ~off:!off (Bytes.sub chunk 0 len));
      off := !off + len
    done
  end;
  F.sync fs;
  F.remount fs;
  (* cold cache, as the paper's read phases require *)
  (* --- measured phase: interleaved reads over the shared queue ------- *)
  Blockdev.set_queue dev ~depth:p.qdepth ~policy:p.sched ~coalesce:p.coalesce ();
  let rounds = (p.files_per_stream + p.batch - 1) / p.batch in
  let large_blocks =
    if large_bytes = 0 then [||]
    else
      match F.file_runs fs large_path with
      | Error e -> fail "file_runs" e
      | Ok runs ->
          Array.concat
            (List.map
               (fun (start, n) -> Array.init n (fun i -> start + i))
               runs)
  in
  let large_per_round =
    if Array.length large_blocks = 0 then 0
    else (Array.length large_blocks + rounds - 1) / rounds
  in
  let stream_bytes = Array.make p.nstreams 0 in
  let stream_ops = Array.make p.nstreams 0 in
  let large_read = ref 0 in
  let large_ops = ref 0 in
  let before = R.snapshot () in
  let m =
    Env.measured env (fun () ->
        for r = 0 to rounds - 1 do
          let lo = r * p.batch in
          let hi = min p.files_per_stream (lo + p.batch) - 1 in
          (* map this round's files to physical runs, one list per client *)
          let per_stream =
            List.map
              (fun s ->
                let runs = ref [] in
                for i = lo to hi do
                  op ();
                  match F.file_runs fs (file_path s i) with
                  | Ok rs -> runs := !runs @ rs
                  | Error e -> fail "file_runs" e
                done;
                !runs)
              streams
          in
          let large_slice =
            if large_per_round = 0 then []
            else begin
              let from = r * large_per_round in
              let upto =
                min (Array.length large_blocks) (from + large_per_round)
              in
              if from >= upto then []
              else runs_of_blocks (Array.sub large_blocks from (upto - from))
            end
          in
          (* one batched submission for the whole round: every client's
             requests meet in the queue *)
          Cache.prefetch cache (interleave (large_slice :: per_stream));
          (* the FS-level reads land on the freshly cached blocks *)
          List.iter
            (fun s ->
              for i = lo to hi do
                op ();
                match F.read_file fs (file_path s i) with
                | Ok data ->
                    stream_bytes.(s) <- stream_bytes.(s) + Bytes.length data;
                    stream_ops.(s) <- stream_ops.(s) + 1
                | Error e -> fail "read" e
              done)
            streams;
          if large_slice <> [] then begin
            op ();
            let off = !large_read in
            let len =
              min (large_per_round * bsz) (large_bytes - off)
            in
            if len > 0 then begin
              match F.read fs large_path ~off ~len with
              | Ok data ->
                  large_read := off + Bytes.length data;
                  incr large_ops
              | Error e -> fail "read" e
            end
          end
        done;
        F.sync fs)
  in
  let d = R.diff (R.snapshot ()) before in
  let seconds = m.Env.seconds in
  let kb_s bytes =
    if seconds <= 0.0 then 0.0 else float_of_int bytes /. 1024.0 /. seconds
  in
  let small_bytes = Array.fold_left ( + ) 0 stream_bytes in
  let small_ops = Array.fold_left ( + ) 0 stream_ops in
  let stream_results =
    List.map
      (fun s ->
        {
          stream = Printf.sprintf "s%02d" s;
          ops = stream_ops.(s);
          bytes = stream_bytes.(s);
          kb_per_sec = kb_s stream_bytes.(s);
        })
      streams
    @
    if large_bytes > 0 then
      [
        {
          stream = "large";
          ops = !large_ops;
          bytes = !large_read;
          kb_per_sec = kb_s !large_read;
        };
      ]
    else []
  in
  let hist name =
    match R.get_histogram d name with
    | Some h when h.R.count > 0 -> Some h
    | _ -> None
  in
  let depth_h = hist "ioqueue.depth" in
  let wait_h = hist "ioqueue.wait_s" in
  {
    label = F.label fs;
    params = p;
    streams = stream_results;
    small_kb_per_sec = kb_s small_bytes;
    large_kb_per_sec = kb_s !large_read;
    total_kb_per_sec = kb_s (small_bytes + !large_read);
    small_files_per_sec =
      (if seconds <= 0.0 then 0.0 else float_of_int small_ops /. seconds);
    measure = m;
    (* [None] means the histogram recorded no samples in the measured
       window — "not observed", which is not the same claim as a latency
       of 0.0. *)
    qdepth_mean = Option.map R.hist_mean depth_h;
    qdepth_max = Option.map (fun h -> h.R.max) depth_h;
    wait_mean_ms = Option.map (fun h -> 1e3 *. R.hist_mean h) wait_h;
    wait_p95_ms = Option.map (fun h -> 1e3 *. R.hist_percentile h 95.0) wait_h;
    dispatches = R.get_counter d "ioqueue.dispatched";
    coalesced = R.get_counter d "ioqueue.coalesced";
  }

let sched_name = function
  | Scheduler.Fcfs -> "fcfs"
  | Scheduler.Clook -> "clook"
  | Scheduler.Sstf -> "sstf"

let opt_float = function None -> Json.Null | Some x -> Json.Float x

let to_json r =
  let stream_json s =
    Json.Obj
      [
        ("stream", Json.String s.stream);
        ("ops", Json.Int s.ops);
        ("bytes", Json.Int s.bytes);
        ("kb_per_sec", Json.Float s.kb_per_sec);
      ]
  in
  Json.Obj
    [
      ("label", Json.String r.label);
      ("nstreams", Json.Int r.params.nstreams);
      ("files_per_stream", Json.Int r.params.files_per_stream);
      ("file_bytes", Json.Int r.params.file_bytes);
      ("large_mb", Json.Int r.params.large_mb);
      ("qdepth", Json.Int r.params.qdepth);
      ("sched", Json.String (sched_name r.params.sched));
      ("coalesce", Json.Bool r.params.coalesce);
      ("seconds", Json.Float r.measure.Env.seconds);
      ("requests", Json.Int r.measure.Env.requests);
      ("small_kb_per_sec", Json.Float r.small_kb_per_sec);
      ("large_kb_per_sec", Json.Float r.large_kb_per_sec);
      ("total_kb_per_sec", Json.Float r.total_kb_per_sec);
      ("small_files_per_sec", Json.Float r.small_files_per_sec);
      ("qdepth_mean", opt_float r.qdepth_mean);
      ("qdepth_max", opt_float r.qdepth_max);
      ("wait_mean_ms", opt_float r.wait_mean_ms);
      ("wait_p95_ms", opt_float r.wait_p95_ms);
      ("dispatches", Json.Int r.dispatches);
      ("coalesced", Json.Int r.coalesced);
      ("streams", Json.List (List.map stream_json r.streams));
    ]
