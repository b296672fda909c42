module Blockdev = Cffs_blockdev.Blockdev
module Drive = Cffs_disk.Drive
module Profile = Cffs_disk.Profile
module Scheduler = Cffs_disk.Scheduler
module Stats = Cffs_disk.Request.Stats

type layout = Single | Striped | Meta_split

let layout_name = function
  | Single -> "single"
  | Striped -> "striped"
  | Meta_split -> "meta-split"

let layout_of_name = function
  | "single" -> Some Single
  | "striped" -> Some Striped
  | "meta-split" | "meta_split" | "metasplit" -> Some Meta_split
  | _ -> None

type t = {
  dev : Blockdev.t;
  subs : Blockdev.t array;
  drives : int;
  layout : layout;
  stripe_unit : int;
  meta_per_chunk : int;
}

(* Chunk [g] of the shared file-system geometry spans [stripe_unit] blocks
   starting at logical block [1 + g * stripe_unit]; block 0 is the
   superblock, which lives at physical block 0 of spindle 0 under both
   layouts.  Chunks are assigned round-robin until some spindle cannot take
   its next share, so the logical space is always a whole number of
   chunks. *)
let plan layout ~drives ~stripe_unit ~meta_per_chunk ~caps =
  let u = stripe_unit in
  if Array.length caps <> drives then invalid_arg "Volume.plan: caps/drives";
  if drives < 2 then invalid_arg "Volume.plan: a multi-volume needs >= 2 drives";
  if u <= 0 then invalid_arg "Volume.plan: stripe unit";
  match layout with
  | Single -> invalid_arg "Volume.plan: single layout has no extent table"
  | Striped ->
      let cur = Array.make drives 0 in
      cur.(0) <- 1;
      let exts = ref [ (0, 1, 0, 0) ] in
      let g = ref 0 in
      let fits () =
        let s = !g mod drives in
        cur.(s) + u <= caps.(s)
      in
      while fits () do
        let s = !g mod drives in
        exts := (1 + (!g * u), u, s, cur.(s)) :: !exts;
        cur.(s) <- cur.(s) + u;
        incr g
      done;
      if !g = 0 then invalid_arg "Volume.plan: spindles too small for one chunk";
      List.rev !exts
  | Meta_split ->
      let m = meta_per_chunk in
      if m <= 0 || m >= u then invalid_arg "Volume.plan: meta blocks per chunk";
      let data_drives = drives - 1 in
      let mcur = ref 1 in
      let dcur = Array.make drives 0 in
      let exts = ref [ (0, 1, 0, 0) ] in
      let g = ref 0 in
      let fits () =
        let d = 1 + (!g mod data_drives) in
        !mcur + m <= caps.(0) && dcur.(d) + (u - m) <= caps.(d)
      in
      while fits () do
        let d = 1 + (!g mod data_drives) in
        let l = 1 + (!g * u) in
        exts := (l + m, u - m, d, dcur.(d)) :: (l, m, 0, !mcur) :: !exts;
        mcur := !mcur + m;
        dcur.(d) <- dcur.(d) + (u - m);
        incr g
      done;
      if !g = 0 then invalid_arg "Volume.plan: spindles too small for one chunk";
      List.rev !exts

let single dev = { dev; subs = [||]; drives = 1; layout = Single; stripe_unit = 0; meta_per_chunk = 0 }

let create ?(profile = Profile.seagate_st31200) ?(scheduler = Scheduler.Clook)
    ?(host_overhead = 0.5e-3) ?(block_size = 4096) ?(stripe_unit = 2048)
    ?(meta_per_chunk = 1) ~drives ~layout () =
  if drives <= 0 then invalid_arg "Volume.create: drives";
  let mk () =
    Blockdev.of_drive ~policy:scheduler ~host_overhead (Drive.create profile)
      ~block_size
  in
  if drives = 1 || layout = Single then single (mk ())
  else begin
    let subs = Array.init drives (fun _ -> mk ()) in
    let caps = Array.map Blockdev.nblocks subs in
    let extents = plan layout ~drives ~stripe_unit ~meta_per_chunk ~caps in
    let dev = Blockdev.multi ~subs ~extents in
    { dev; subs; drives; layout; stripe_unit; meta_per_chunk }
  end

let create_memory ?(stripe_unit = 2048) ?(meta_per_chunk = 1) ~block_size
    ~nblocks ~drives ~layout () =
  if drives <= 0 || nblocks <= 0 then invalid_arg "Volume.create_memory";
  if drives = 1 || layout = Single then
    single (Blockdev.memory ~block_size ~nblocks)
  else begin
    let u = stripe_unit in
    let chunks = (nblocks - 1 + u - 1) / u in
    let chunks = max chunks drives in
    (* size each spindle for exactly its share of [chunks] chunks *)
    let caps = Array.make drives 0 in
    (match layout with
    | Single -> assert false
    | Striped ->
        for g = 0 to chunks - 1 do
          let s = g mod drives in
          caps.(s) <- caps.(s) + u
        done;
        caps.(0) <- caps.(0) + 1
    | Meta_split ->
        if drives < 2 then invalid_arg "Volume.create_memory: drives";
        let m = meta_per_chunk in
        caps.(0) <- 1 + (m * chunks);
        for g = 0 to chunks - 1 do
          let d = 1 + (g mod (drives - 1)) in
          caps.(d) <- caps.(d) + (u - m)
        done);
    let subs =
      Array.map (fun n -> Blockdev.memory ~block_size ~nblocks:(max n 1)) caps
    in
    let extents =
      plan layout ~drives ~stripe_unit ~meta_per_chunk
        ~caps:(Array.map Blockdev.nblocks subs)
    in
    let dev = Blockdev.multi ~subs ~extents in
    { dev; subs; drives; layout; stripe_unit; meta_per_chunk }
  end

type spindle = {
  spindle : int;
  s_reads : int;
  s_writes : int;
  s_read_sectors : int;
  s_write_sectors : int;
  s_busy_s : float;
  s_seek_s : float;
  s_rotation_s : float;
  s_transfer_s : float;
  s_pending : int;
}

let spindles dev =
  Blockdev.subdevices dev
  |> Array.to_list
  |> List.mapi (fun i sub ->
         let s = Blockdev.stats sub in
         {
           spindle = i;
           s_reads = s.Stats.reads;
           s_writes = s.Stats.writes;
           s_read_sectors = s.Stats.read_sectors;
           s_write_sectors = s.Stats.write_sectors;
           s_busy_s = s.Stats.busy_time;
           s_seek_s = s.Stats.seek_time;
           s_rotation_s = s.Stats.rotation_time;
           s_transfer_s = s.Stats.transfer_time;
           s_pending = Blockdev.pending sub;
         })
