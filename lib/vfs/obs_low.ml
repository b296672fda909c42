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
  Array.map Registry.fcounter
    [|
      "drive.seek_s";
      "drive.rotation_s";
      "drive.transfer_s";
      "drive.overhead_s";
      "drive.cachehit_s";
      "blockdev.host_s";
      "ioqueue.wait_total_s";
    |]

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
  let guard f =
    try f ()
    with Cffs_util.Io_error.E e ->
      Registry.incr m_eio;
      Error (Errno.of_io_error e)

  let h_lookup = Registry.histogram (F.prefix ^ ".op.lookup_s")
  let h_create = Registry.histogram (F.prefix ^ ".op.create_s")
  let h_unlink = Registry.histogram (F.prefix ^ ".op.unlink_s")
  let h_read = Registry.histogram (F.prefix ^ ".op.read_s")
  let h_write = Registry.histogram (F.prefix ^ ".op.write_s")

  let lat_sinks op =
    Array.map
      (fun comp -> Registry.fcounter (F.prefix ^ ".lat." ^ op ^ "." ^ comp ^ "_s"))
      component_names

  let l_lookup = lat_sinks "lookup"
  let l_create = lat_sinks "create"
  let l_unlink = lat_sinks "unlink"
  let l_read = lat_sinks "read"
  let l_write = lat_sinks "write"

  let span fs name hist lat ~target f =
    let dev = F.device fs in
    let t0 = Blockdev.now dev in
    let comp0 = Array.map Registry.fcounter_value global_sources in
    let record () =
      Registry.observe hist (Blockdev.now dev -. t0);
      Array.iteri
        (fun i g -> Registry.fadd lat.(i) (Registry.fcounter_value g -. comp0.(i)))
        global_sources
    in
    if not (Trace.is_enabled ()) then begin
      let r = f () in
      record ();
      r
    end
    else begin
      let before = Rstats.copy (Blockdev.stats dev) in
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
            ( "host_s",
              Printf.sprintf "%.6f"
                (Registry.fcounter_value global_sources.(5) -. comp0.(5)) );
          ])
        ~clock:(fun () -> Blockdev.now dev)
        (F.prefix ^ "." ^ name)
        (fun () ->
          let r = f () in
          record ();
          r)
    end

  let label = F.label
  let root = F.root

  let lookup fs ~dir name =
    span fs "lookup" h_lookup l_lookup ~target:name (fun () ->
        guard (fun () -> F.lookup fs ~dir name))

  let mknod fs ~dir name kind =
    span fs "create" h_create l_create ~target:name (fun () ->
        guard (fun () -> F.mknod fs ~dir name kind))

  let remove fs ~dir name ~rmdir =
    span fs "unlink" h_unlink l_unlink ~target:name (fun () ->
        guard (fun () -> F.remove fs ~dir name ~rmdir))

  let hardlink fs ~dir name ~ino = guard (fun () -> F.hardlink fs ~dir name ~ino)

  let rename fs ~sdir ~sname ~ddir ~dname =
    guard (fun () -> F.rename fs ~sdir ~sname ~ddir ~dname)

  let readdir fs ~dir = guard (fun () -> F.readdir fs ~dir)
  let readdir_plus fs ~dir = guard (fun () -> F.readdir_plus fs ~dir)
  let stat_ino fs ino = guard (fun () -> F.stat_ino fs ino)

  let read_ino fs ~ino ~off ~len =
    span fs "read" h_read l_read
      ~target:("ino:" ^ string_of_int ino)
      (fun () -> guard (fun () -> F.read_ino fs ~ino ~off ~len))

  let write_ino fs ~ino ~off data =
    span fs "write" h_write l_write
      ~target:("ino:" ^ string_of_int ino)
      (fun () -> guard (fun () -> F.write_ino fs ~ino ~off data))

  let truncate_ino fs ~ino ~size = guard (fun () -> F.truncate_ino fs ~ino ~size)
  let data_runs fs ~ino = guard (fun () -> F.data_runs fs ~ino)

  let sync fs =
    (* [sync] has no error channel; the cache pins buffers it cannot write,
       so a device fault here loses nothing and must not crash the caller. *)
    try F.sync fs with Cffs_util.Io_error.E _ -> Registry.incr m_eio
  let remount = F.remount
  let usage = F.usage
end
