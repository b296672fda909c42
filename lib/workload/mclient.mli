(** Multi-client workload: N small-file streams plus one large sequential
    stream interleaved over the shared tagged device queue.

    Exercises the asynchronous I/O pipeline end to end: each round, every
    stream maps its next batch of files to physical runs and all streams'
    runs are submitted together (round-robin interleaved, the arrival
    order of concurrent clients) through one {!Cffs_cache.Cache.prefetch},
    so the queue's scheduler and coalescer work across clients.  Reports
    per-stream and aggregate throughput plus queue-depth and
    submit-to-service latency statistics from the [ioqueue.*] metrics. *)

type params = {
  nstreams : int;  (** small-file client streams *)
  files_per_stream : int;
  file_bytes : int;
  large_mb : int;  (** large sequential stream; 0 disables it *)
  batch : int;  (** files prefetched per stream per round *)
  qdepth : int;  (** tagged-queue window *)
  sched : Cffs_disk.Scheduler.policy;
  coalesce : bool;
  prng_seed : int;
}

val default_params : params
(** 4 streams × 100 files of 4 KB, a 4 MB large stream, batch 8,
    qdepth 8, C-LOOK, coalescing on. *)

type stream_result = {
  stream : string;  (** ["s00"].. or ["large"] *)
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
  qdepth_mean : float option;
      (** queued requests seen at each dispatch; [None] when the depth
          histogram recorded no samples in the measured window (as opposed
          to an observed mean of 0.0) *)
  qdepth_max : float option;
  wait_mean_ms : float option;
      (** submit-to-service latency; [None] when unobserved *)
  wait_p95_ms : float option;
  dispatches : int;
  coalesced : int;
}

val validate : params -> (unit, string) Stdlib.result
(** [Error msg] names the first parameter out of range, in one line:
    fewer than one stream, file per stream, batch or queue slot, or a
    negative file size or large-stream size. *)

val run : ?params:params -> cache:Cffs_cache.Cache.t -> Env.t -> result
(** Populate the streams (unmeasured), remount for a cold cache,
    configure the device queue to [params], then run the interleaved read
    phase under measurement.  The queue configuration is left in place
    afterwards.  Raises [Invalid_argument] when {!validate} refuses
    [params]. *)

val sched_name : Cffs_disk.Scheduler.policy -> string
val to_json : result -> Cffs_obs.Json.t
