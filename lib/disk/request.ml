type kind = Read | Write

type t = { mutable lba : int; mutable sectors : int; mutable kind : kind }

let read ~lba ~sectors =
  assert (sectors > 0);
  { lba; sectors; kind = Read }

let write ~lba ~sectors =
  assert (sectors > 0);
  { lba; sectors; kind = Write }

let last_lba t = t.lba + t.sectors - 1

let overlaps a b = a.lba <= last_lba b && b.lba <= last_lba a

let pp ppf t =
  Format.fprintf ppf "%s[%d..%d]"
    (match t.kind with Read -> "R" | Write -> "W")
    t.lba (last_lba t)

module Stats = struct
  type s = {
    mutable reads : int;
    mutable writes : int;
    mutable read_sectors : int;
    mutable write_sectors : int;
    mutable cache_hits : int;
    mutable busy_time : float;
    mutable seek_time : float;
    mutable rotation_time : float;
    mutable transfer_time : float;
    mutable overhead_time : float;
    mutable cachehit_time : float;
  }

  let create () =
    {
      reads = 0;
      writes = 0;
      read_sectors = 0;
      write_sectors = 0;
      cache_hits = 0;
      busy_time = 0.0;
      seek_time = 0.0;
      rotation_time = 0.0;
      transfer_time = 0.0;
      overhead_time = 0.0;
      cachehit_time = 0.0;
    }

  let copy s = { s with reads = s.reads }

  let diff now before =
    {
      reads = now.reads - before.reads;
      writes = now.writes - before.writes;
      read_sectors = now.read_sectors - before.read_sectors;
      write_sectors = now.write_sectors - before.write_sectors;
      cache_hits = now.cache_hits - before.cache_hits;
      busy_time = now.busy_time -. before.busy_time;
      seek_time = now.seek_time -. before.seek_time;
      rotation_time = now.rotation_time -. before.rotation_time;
      transfer_time = now.transfer_time -. before.transfer_time;
      overhead_time = now.overhead_time -. before.overhead_time;
      cachehit_time = now.cachehit_time -. before.cachehit_time;
    }

  let requests s = s.reads + s.writes
  let sectors s = s.read_sectors + s.write_sectors
  let bytes s = sectors s * Cffs_util.Units.sector_size

  let pp ppf s =
    Format.fprintf ppf
      "%d reads (%d hits), %d writes, %s moved, busy %.3f s (seek %.3f, rot %.3f, \
       xfer %.3f, ovhd %.3f, hit %.3f)"
      s.reads s.cache_hits s.writes
      (Cffs_util.Tablefmt.fmt_bytes (bytes s))
      s.busy_time s.seek_time s.rotation_time s.transfer_time s.overhead_time
      s.cachehit_time
end
