(** Observability wrapper for a {!Fs_intf.LOW} implementation.

    [Make] produces a LOW module whose hot operations — lookup, create
    (mknod), remove, read, write — run inside obs spans and feed per-op
    latency histograms named [<prefix>.op.<op>_s], plus per-op-class
    component attribution fcounters [<prefix>.lat.<op>.<component>_s]
    (seek / rotation / transfer / overhead / cachehit / host).  The
    simulation is single-threaded, so the delta of each global component
    fcounter across an op is exactly the time that op spent in that
    stage, and the components sum to the op's clock delta — the invariant
    the attribution property test asserts.  [queue_wait] is also recorded
    but overlaps device service (a queued request waits while earlier
    members of its batch are served), so it is reported alongside, not as
    part of, the sum.  When tracing is enabled, each span additionally
    carries the device-counter deltas it caused, which is exactly the
    accounting the paper's per-operation tables are built from.

    Both file systems pass through here ([Cffs_namei.Stack.Make] applies
    it), so every file system this repo grows is measured the same way. *)

module Blockdev = Cffs_blockdev.Blockdev
module Registry = Cffs_obs.Registry
module Trace = Cffs_obs.Trace
module Rstats = Cffs_disk.Request.Stats

(* Component order is shared by [component_names] and [global_sources];
   the first [n_summed] components sum to the op's clock delta, the
   remainder (queue_wait) overlap it. *)
let component_names =
  [| "seek"; "rotation"; "transfer"; "overhead"; "cachehit"; "host"; "queue_wait" |]

let n_summed = 6

let global_sources =
  Array.map
    (fun name -> Registry.fcell (Registry.fcounter name))
    [|
      "drive.seek_s";
      "drive.rotation_s";
      "drive.transfer_s";
      "drive.overhead_s";
      "drive.cachehit_s";
      "blockdev.host_s";
      "ioqueue.wait_total_s";
    |]

let op_sample = { Registry.v = 0.0 }

(* The clock and every global source as each open op started, [stride]
   floats per op: an op pushes its start values and pops them when it
   ends, so a measured op builds no closure and boxes nothing but the
   two clock reads.  Ops do not nest (a file system's operations call
   its own internals, never this wrapper), but the stack allows it. *)
let stride = 1 + Array.length global_sources
let starts = ref (Float.Array.make (4 * stride) 0.0)
let depth = ref 0

let enter dev =
  let o = !depth * stride in
  if o + stride > Float.Array.length !starts then begin
    let a = Float.Array.make (2 * Float.Array.length !starts) 0.0 in
    Float.Array.blit !starts 0 a 0 o;
    starts := a
  end;
  let a = !starts in
  Float.Array.set a o (Blockdev.now dev);
  for i = 0 to stride - 2 do
    Float.Array.set a (o + 1 + i) global_sources.(i).v
  done;
  incr depth

(* An op that raised: its start values are dropped unrecorded. *)
let abandon () = decr depth

(* End the innermost op: its clock delta goes to [hist] and each
   component's delta to its [lat] sink. *)
let leave dev hist (lat : Registry.cell array) =
  decr depth;
  let a = !starts and o = !depth * stride in
  op_sample.v <- Blockdev.now dev -. Float.Array.get a o;
  Registry.observe_cell hist op_sample;
  for i = 0 to stride - 2 do
    let sink = lat.(i) in
    sink.v <- sink.v +. (global_sources.(i).v -. Float.Array.get a (o + 1 + i))
  done

module type SOURCE = sig
  include Fs_intf.LOW

  val device : t -> Blockdev.t
  (** The timed device whose clock spans are measured against. *)

  val prefix : string
  (** Metric-name prefix, e.g. ["cffs"] → [cffs.op.lookup_s]. *)
end

module Make (F : SOURCE) : Fs_intf.LOW with type t = F.t = struct
  type t = F.t

  let m_eio = Registry.counter (F.prefix ^ ".eio")

  (* Unrecoverable device faults (the cache has already retried transients,
     the integrity layer has already remapped what it could) surface to
     every VFS caller through the one shared mapping in
     {!Errno.of_io_error} — never as a crashed process. *)
  let eio e =
    Registry.incr m_eio;
    Error (Errno.of_io_error e)

  let guard f = match f () with r -> r | exception Cffs_util.Io_error.E e -> eio e

  let h_lookup = Registry.histogram (F.prefix ^ ".op.lookup_s")
  let h_create = Registry.histogram (F.prefix ^ ".op.create_s")
  let h_unlink = Registry.histogram (F.prefix ^ ".op.unlink_s")
  let h_read = Registry.histogram (F.prefix ^ ".op.read_s")
  let h_write = Registry.histogram (F.prefix ^ ".op.write_s")

  let lat_sinks op =
    Array.map
      (fun comp ->
        Registry.fcell (Registry.fcounter (F.prefix ^ ".lat." ^ op ^ "." ^ comp ^ "_s")))
      component_names

  let l_lookup = lat_sinks "lookup"
  let l_create = lat_sinks "create"
  let l_unlink = lat_sinks "unlink"
  let l_read = lat_sinks "read"
  let l_write = lat_sinks "write"

  (* Run [f fs a b c] as one op: [enter], the call under [guard]'s
     handler, [leave].  [f] is a functor-level function and its
     arguments are passed apart, so an untraced op builds no closure. *)
  let run dev hist lat f fs a b c =
    enter dev;
    match f fs a b c with
    | r ->
        leave dev hist lat;
        r
    | exception Cffs_util.Io_error.E e ->
        leave dev hist lat;
        eio e
    | exception e ->
        abandon ();
        raise e

  (* A traced op runs as a span carrying the device-counter deltas it
     caused; tracing may allocate. *)
  let measured fs name hist lat ~target f a b c =
    let dev = F.device fs in
    if not (Trace.is_enabled ()) then run dev hist lat f fs a b c
    else begin
      let before = Rstats.copy (Blockdev.stats dev) and host0 = global_sources.(5).v in
      Trace.with_span ~target
        ~attrs:(fun () ->
          let d = Rstats.diff (Blockdev.stats dev) before in
          [
            ("reads", string_of_int d.Rstats.reads);
            ("writes", string_of_int d.Rstats.writes);
            ("sectors", string_of_int (Rstats.sectors d));
            ("seek_s", Printf.sprintf "%.6f" d.Rstats.seek_time);
            ("rotation_s", Printf.sprintf "%.6f" d.Rstats.rotation_time);
            ("transfer_s", Printf.sprintf "%.6f" d.Rstats.transfer_time);
            ("overhead_s", Printf.sprintf "%.6f" d.Rstats.overhead_time);
            ("cachehit_s", Printf.sprintf "%.6f" d.Rstats.cachehit_time);
            ("host_s", Printf.sprintf "%.6f" (global_sources.(5).v -. host0));
          ])
        ~clock:(fun () -> Blockdev.now dev)
        (F.prefix ^ "." ^ name)
        (fun () -> run dev hist lat f fs a b c)
    end

  let label = F.label
  let root = F.root
  let lookup_op fs dir name () = F.lookup fs ~dir name
  let mknod_op fs dir name kind = F.mknod fs ~dir name kind
  let remove_op fs dir name rmdir = F.remove fs ~dir name ~rmdir
  let read_op fs ino off len = F.read_ino fs ~ino ~off ~len
  let write_op fs ino off data = F.write_ino fs ~ino ~off data

  let lookup fs ~dir name =
    measured fs "lookup" h_lookup l_lookup ~target:name lookup_op dir name ()

  let mknod fs ~dir name kind =
    measured fs "create" h_create l_create ~target:name mknod_op dir name kind

  let remove fs ~dir name ~rmdir =
    measured fs "unlink" h_unlink l_unlink ~target:name remove_op dir name rmdir

  let hardlink fs ~dir name ~ino = guard (fun () -> F.hardlink fs ~dir name ~ino)

  let rename fs ~sdir ~sname ~ddir ~dname =
    guard (fun () -> F.rename fs ~sdir ~sname ~ddir ~dname)

  let readdir fs ~dir = guard (fun () -> F.readdir fs ~dir)
  let readdir_plus fs ~dir = guard (fun () -> F.readdir_plus fs ~dir)

  let stat_ino fs ino =
    match F.stat_ino fs ino with r -> r | exception Cffs_util.Io_error.E e -> eio e

  (* Only a traced span reads its target; untraced calls build none. *)
  let ino_target ino = if Trace.is_enabled () then "ino:" ^ string_of_int ino else ""

  let read_ino fs ~ino ~off ~len =
    measured fs "read" h_read l_read ~target:(ino_target ino) read_op ino off len

  let write_ino fs ~ino ~off data =
    measured fs "write" h_write l_write ~target:(ino_target ino) write_op ino off data

  let truncate_ino fs ~ino ~size =
    match F.truncate_ino fs ~ino ~size with
    | r -> r
    | exception Cffs_util.Io_error.E e -> eio e

  let data_runs fs ~ino = guard (fun () -> F.data_runs fs ~ino)

  let sync fs =
    (* [sync] has no error channel; the cache pins buffers it cannot write,
       so a device fault here loses nothing and must not crash the caller. *)
    try F.sync fs with Cffs_util.Io_error.E _ -> Registry.incr m_eio
  let remount = F.remount
  let usage = F.usage
end
