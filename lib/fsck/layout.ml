module Cache = Cffs_cache.Cache
module Bitview = Cffs_util.Bitview
module Inode = Cffs_vfs.Inode
module Fs_intf = Cffs_vfs.Fs_intf
module Json = Cffs_obs.Json
module Csb = Cffs.Csb

(* The layout introspector: walk a mounted image's namespace and
   allocation bitmaps and report where blocks actually live — the paper's
   claims made inspectable.  Group residency uses the file system's own
   grouping notion ({!Cffs.frame_of_block}): a configuration without
   explicit grouping reports zero residency rather than the accidental
   contiguity a purely geometric frame overlay would credit it with. *)

type extent_stats = {
  free_blocks : int;
  extents : int;  (** maximal runs of free blocks within the data areas *)
  largest : int;
  mean_len : float;
}

type report = {
  label : string;
  total_blocks : int;
  used_blocks : int;
  files : int;
  dirs : int;
  small_files : int;
      (** regular files with 1..group_file_blocks data blocks *)
  small_fully_grouped : int;
      (** small files whose data blocks all lie in one group frame *)
  group_residency : float;  (** small_fully_grouped / small_files *)
  embedded_inodes : int;
  external_inodes : int;
  group_blocks : int;  (** frame size; 0 when the FS has no grouping *)
  total_frames : int;
  frames_active : int;  (** frames holding at least one allocated block *)
  frames_free : int;
  frame_fill : int array;
      (** [frame_fill.(k)] = frames with exactly [k+1] allocated blocks *)
  grouped_fraction : float;
      (** {!Cffs.grouped_fraction} same-directory co-location; 0 for FFS *)
  indexed_dirs : int;  (** directories promoted to the hashed index *)
  index_blocks : int;  (** root + table + leaf blocks of those indexes *)
  index_leaf_fill : float;  (** live entries / leaf entry capacity *)
  free_ext : extent_stats;
}

(* Everything the generic builder needs from a file system, as closures so
   FFS and every C-FFS configuration go through the same analysis. *)
type source = {
  src_label : string;
  src_root : int;
  src_total : int;  (** device blocks covered by the layout (incl. block 0) *)
  src_readdir : int -> (string * int) list;
  src_stat : int -> Fs_intf.stat option;
  src_runs : int -> (int * int) list;
  src_data_block : int -> bool;
  src_block_used : int -> bool;
  src_frame_of : int -> int option;
  src_group_blocks : int;
  src_small_blocks : int;
  src_embedded : int -> bool;
  src_grouped_fraction : float;
  src_index_stats : Cffs.index_stats;
  src_usage : Fs_intf.fs_usage;
}

let build (src : source) =
  (* Namespace walk: counts, inode placement, per-small-file residency. *)
  let visited = Hashtbl.create 256 in
  let files = ref 0 and dirs = ref 1 (* root *) in
  let small = ref 0 and small_grouped = ref 0 in
  let embedded = ref 0 and external_ = ref 0 in
  let rec walk dir =
    List.iter
      (fun (name, ino) ->
        if name <> "." && name <> ".." && not (Hashtbl.mem visited ino)
        then begin
          Hashtbl.replace visited ino ();
          if src.src_embedded ino then incr embedded else incr external_;
          match src.src_stat ino with
          | None -> ()
          | Some st -> (
              match st.Fs_intf.st_kind with
              | Inode.Directory ->
                  incr dirs;
                  walk ino
              | Inode.Regular ->
                  incr files;
                  let runs = src.src_runs ino in
                  let nblocks =
                    List.fold_left (fun acc (_, n) -> acc + n) 0 runs
                  in
                  if nblocks > 0 && nblocks <= src.src_small_blocks then begin
                    incr small;
                    let frames =
                      List.concat_map
                        (fun (start, n) ->
                          List.init n (fun i -> src.src_frame_of (start + i)))
                        runs
                    in
                    match frames with
                    | Some f :: rest
                      when List.for_all (fun g -> g = Some f) rest ->
                        incr small_grouped
                    | _ -> ()
                  end
              | Inode.Free -> ())
        end)
      (src.src_readdir dir)
  in
  (* The root inode lives at a fixed location in both file systems, so it
     is excluded from the embedded/external tally. *)
  Hashtbl.replace visited src.src_root ();
  walk src.src_root;
  (* Physical sweep: frame occupancy and free-extent fragmentation over
     the data areas. *)
  let frame_used : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let frames : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let free_blocks = ref 0 and extents = ref 0 and largest = ref 0 in
  let run = ref 0 in
  let close_run () =
    if !run > 0 then begin
      incr extents;
      if !run > !largest then largest := !run;
      run := 0
    end
  in
  for blk = 0 to src.src_total - 1 do
    if not (src.src_data_block blk) then close_run ()
    else begin
      (match src.src_frame_of blk with
      | None -> ()
      | Some f ->
          Hashtbl.replace frames f ();
          if src.src_block_used blk then
            Hashtbl.replace frame_used f
              (1 + Option.value ~default:0 (Hashtbl.find_opt frame_used f)));
      if src.src_block_used blk then close_run ()
      else begin
        incr free_blocks;
        incr run
      end
    end
  done;
  close_run ();
  let gb = src.src_group_blocks in
  let frame_fill = Array.make (max 1 gb) 0 in
  Hashtbl.iter
    (fun _ n ->
      let k = min (max 1 gb) n in
      frame_fill.(k - 1) <- frame_fill.(k - 1) + 1)
    frame_used;
  let total_frames = Hashtbl.length frames in
  let frames_active = Hashtbl.length frame_used in
  let u = src.src_usage in
  {
    label = src.src_label;
    total_blocks = u.Fs_intf.total_blocks;
    used_blocks = u.Fs_intf.total_blocks - u.Fs_intf.free_blocks;
    files = !files;
    dirs = !dirs;
    small_files = !small;
    small_fully_grouped = !small_grouped;
    group_residency =
      (if !small = 0 then 0.0
       else float_of_int !small_grouped /. float_of_int !small);
    embedded_inodes = !embedded;
    external_inodes = !external_;
    group_blocks = gb;
    total_frames;
    frames_active;
    frames_free = total_frames - frames_active;
    frame_fill;
    grouped_fraction = src.src_grouped_fraction;
    indexed_dirs = src.src_index_stats.Cffs.idx_dirs;
    index_blocks = src.src_index_stats.Cffs.idx_blocks;
    index_leaf_fill = src.src_index_stats.Cffs.idx_leaf_fill;
    free_ext =
      {
        free_blocks = !free_blocks;
        extents = !extents;
        largest = !largest;
        mean_len =
          (if !extents = 0 then 0.0
           else float_of_int !free_blocks /. float_of_int !extents);
      };
  }

(* --- sources -------------------------------------------------------------- *)

let ok_or_default d = function Ok v -> v | Error _ -> d

let cffs_source (fs : Cffs.t) =
  let sb = Cffs.superblock fs in
  let total = 1 + Csb.total_blocks sb in
  let data_block blk =
    blk >= 1 && blk < total && blk - Csb.cg_start sb (Csb.cg_of_block sb blk) > 0
  in
  {
    src_label = Cffs.label fs;
    src_root = Csb.root_ino;
    src_total = total;
    src_readdir = (fun dir -> ok_or_default [] (Cffs.readdir fs ~dir));
    src_stat = (fun ino -> Result.to_option (Cffs.stat_ino fs ino));
    src_runs = (fun ino -> ok_or_default [] (Cffs.data_runs fs ~ino));
    src_data_block = data_block;
    src_block_used = Cffs.block_in_use fs;
    src_frame_of = Cffs.frame_of_block fs;
    src_group_blocks = (if (Cffs.config fs).Cffs.grouping then sb.Csb.group_blocks else 0);
    src_small_blocks = sb.Csb.group_file_blocks;
    src_embedded = Cffs.is_embedded_ino;
    src_grouped_fraction = Cffs.grouped_fraction fs;
    src_index_stats = Cffs.index_stats fs;
    src_usage = Cffs.usage fs;
  }

let ffs_source (fs : Ffs.t) =
  let module L = Ffs.Layout in
  let sb = Ffs.superblock fs in
  let cache = Ffs.cache fs in
  let total = 1 + (sb.L.cg_count * sb.L.cg_size) in
  (* One header read per group; bit indices are cg-relative. *)
  let hdrs =
    Array.init sb.L.cg_count (fun cg -> Cache.read cache (L.cg_start sb cg))
  in
  let data_block blk =
    blk >= 1 && blk < total
    &&
    let cg = L.cg_of_block sb blk in
    blk - L.cg_start sb cg > sb.L.itable_blocks
  in
  let block_used blk =
    let cg = L.cg_of_block sb blk in
    Bitview.get hdrs.(cg) (L.hdr_block_bitmap_off sb) (blk - L.cg_start sb cg)
  in
  {
    src_label = Ffs.label fs;
    src_root = sb.L.root_ino;
    src_total = total;
    src_readdir = (fun dir -> ok_or_default [] (Ffs.readdir fs ~dir));
    src_stat = (fun ino -> Result.to_option (Ffs.stat_ino fs ino));
    src_runs = (fun ino -> ok_or_default [] (Ffs.data_runs fs ~ino));
    src_data_block = data_block;
    src_block_used = block_used;
    src_frame_of = (fun _ -> None);  (* FFS has no grouping *)
    src_group_blocks = 0;
    src_small_blocks = Cffs.config_default.Cffs.group_file_blocks;
    src_embedded = (fun _ -> false);
    src_grouped_fraction = 0.0;
    src_index_stats =
      { Cffs.idx_dirs = 0; idx_blocks = 0; idx_leaves = 0; idx_leaf_fill = 0.0 };
    src_usage = Ffs.usage fs;
  }

let cffs_report fs = build (cffs_source fs)
let ffs_report fs = build (ffs_source fs)

(* --- exporters ------------------------------------------------------------ *)

let to_json r =
  Json.Obj
    [
      ("label", Json.String r.label);
      ("total_blocks", Json.Int r.total_blocks);
      ("used_blocks", Json.Int r.used_blocks);
      ("files", Json.Int r.files);
      ("dirs", Json.Int r.dirs);
      ("small_files", Json.Int r.small_files);
      ("small_fully_grouped", Json.Int r.small_fully_grouped);
      ("group_residency", Json.Float r.group_residency);
      ("embedded_inodes", Json.Int r.embedded_inodes);
      ("external_inodes", Json.Int r.external_inodes);
      ( "embedded_ratio",
        Json.Float
          (let n = r.embedded_inodes + r.external_inodes in
           if n = 0 then 0.0 else float_of_int r.embedded_inodes /. float_of_int n)
      );
      ("group_blocks", Json.Int r.group_blocks);
      ("total_frames", Json.Int r.total_frames);
      ("frames_active", Json.Int r.frames_active);
      ("frames_free", Json.Int r.frames_free);
      ( "frame_fill",
        Json.List (Array.to_list (Array.map (fun n -> Json.Int n) r.frame_fill))
      );
      ("grouped_fraction", Json.Float r.grouped_fraction);
      ("indexed_dirs", Json.Int r.indexed_dirs);
      ("index_blocks", Json.Int r.index_blocks);
      ("index_leaf_fill", Json.Float r.index_leaf_fill);
      ( "free_extents",
        Json.Obj
          [
            ("free_blocks", Json.Int r.free_ext.free_blocks);
            ("extents", Json.Int r.free_ext.extents);
            ("largest", Json.Int r.free_ext.largest);
            ("mean_len", Json.Float r.free_ext.mean_len);
          ] );
    ]

let pp ppf r =
  let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b in
  Format.fprintf ppf "%s@." r.label;
  Format.fprintf ppf "  blocks        %d used / %d total (%.1f%%)@."
    r.used_blocks r.total_blocks (pct r.used_blocks r.total_blocks);
  Format.fprintf ppf "  namespace     %d files, %d dirs@." r.files r.dirs;
  Format.fprintf ppf "  inodes        %d embedded, %d external (%.1f%% embedded)@."
    r.embedded_inodes r.external_inodes
    (pct r.embedded_inodes (r.embedded_inodes + r.external_inodes));
  Format.fprintf ppf
    "  small files   %d of %d fully group-resident (residency %.2f)@."
    r.small_fully_grouped r.small_files r.group_residency;
  Format.fprintf ppf "  grouped frac  %.2f (same-directory co-location)@."
    r.grouped_fraction;
  if r.indexed_dirs > 0 then
    Format.fprintf ppf
      "  dir index     %d indexed dirs over %d blocks (leaf fill %.2f)@."
      r.indexed_dirs r.index_blocks r.index_leaf_fill;
  if r.group_blocks > 0 then begin
    Format.fprintf ppf "  frames        %d-block frames: %d active, %d free of %d@."
      r.group_blocks r.frames_active r.frames_free r.total_frames;
    Format.fprintf ppf "  frame fill    ";
    Array.iteri
      (fun i n -> if n > 0 then Format.fprintf ppf "%d:%d " (i + 1) n)
      r.frame_fill;
    Format.fprintf ppf "(occupancy:frames)@."
  end
  else Format.fprintf ppf "  frames        (no explicit grouping)@.";
  Format.fprintf ppf
    "  free extents  %d extents over %d blocks (largest %d, mean %.1f)@."
    r.free_ext.extents r.free_ext.free_blocks r.free_ext.largest
    r.free_ext.mean_len
