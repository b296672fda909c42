module Cache = Cffs_cache.Cache
module Blockdev = Cffs_blockdev.Blockdev
module Fs_intf = Cffs_vfs.Fs_intf
module Inode = Cffs_vfs.Inode
module Errno = Cffs_vfs.Errno
module Obs = Cffs_obs.Registry
module Json = Cffs_obs.Json
module Sampler = Cffs_obs.Sampler

let m_passes = Obs.counter "regroup.passes"
let m_scanned = Obs.counter "regroup.files_scanned"
let m_moved = Obs.counter "regroup.files_moved"
let m_blocks = Obs.counter "regroup.blocks_copied"
let m_skipped_io = Obs.counter "regroup.files_skipped_io"
let m_enospc = Obs.counter "regroup.enospc_aborts"
let m_resumes = Obs.counter "regroup.resumes"
let m_cursor_writes = Obs.counter "regroup.cursor_writes"

type spec = { max_moves : int option; measure : bool }

let default_spec = { max_moves = None; measure = true }

(* Files per barrier group, and source-read runs submitted per ioqueue
   drain. *)
let batch = 8
let io_share = 4

let cursor_path = "/.regroup"

type status = Completed | Move_budget | No_space

let status_name = function
  | Completed -> "completed"
  | Move_budget -> "move_budget"
  | No_space -> "no_space"

type outcome = {
  status : status;
  resumed : bool;
  dirs_walked : int;
  scanned : int;
  broken : int;
  moved : int;
  blocks_copied : int;
  skipped_io : int;
  no_room : int;
  ineligible : int;
  residency_before : float;
  residency_after : float;
}

(* Every directory path, sorted, so the cursor's "resume after this
   directory" is a plain string comparison against a deterministic
   order. *)
let collect_dirs fs =
  let rec go acc path =
    match Cffs.list_dir fs path with
    | Error _ -> acc
    | Ok names ->
        List.fold_left
          (fun acc name ->
            let child = if path = "/" then "/" ^ name else path ^ "/" ^ name in
            match Cffs.stat fs child with
            | Ok st when st.Fs_intf.st_kind = Inode.Directory -> go (child :: acc) child
            | Ok _ | Error _ -> acc)
          acc (List.sort compare names)
  in
  List.sort compare (go [ "/" ] "/")

(* Mutable pass state, shared by the per-directory workers. *)
type state = {
  fs : Cffs.t;
  spec : spec;
  mutable scanned : int;
  mutable broken : int;
  mutable moved : int;
  mutable blocks_copied : int;
  mutable skipped_io : int;
  mutable ineligible : int;
  mutable no_room : int;
}

let poll st =
  Sampler.poll_current ~now:(Blockdev.now (Cache.device (Cffs.cache st.fs)))

let budget_left st =
  match st.spec.max_moves with None -> true | Some m -> st.moved < m

(* Bounded-share prefetch: submit the batch's source runs through the
   async ioqueue a few runs per drain, so a foreground stream's requests
   interleave with the regrouper's at the queue rather than waiting out
   one giant drain. *)
let prefetch_sources st paths =
  try
    let runs =
      List.concat_map
        (fun p -> match Cffs.file_runs st.fs p with Ok rs -> rs | Error _ -> [])
        paths
    in
    let rec chunks = function
      | [] -> ()
      | rs ->
          let rec take n = function
            | x :: rest when n > 0 ->
                let got, rest = take (n - 1) rest in
                (x :: got, rest)
            | rest -> ([], rest)
          in
          let now, later = take io_share rs in
          Cache.prefetch (Cffs.cache st.fs) now;
          chunks later
    in
    chunks runs
    (* Prefetch is advisory: a bad sector under a source run must surface
       through the copy path (which skips just that file), not here. *)
  with Cffs_util.Io_error.E _ -> ()

(* The directory's frame census: how many of its small files' data blocks
   each frame currently holds.  The dir inode only remembers its last few
   frames; the census widens the destination candidates and weights them,
   so siblings pack back into each other's frames instead of each
   marooning itself in a fresh one. *)
let dir_census st paths =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun p ->
      match Cffs.file_runs st.fs p with
      | Error _ -> ()
      | Ok runs ->
          List.iter
            (fun (start, n) ->
              for i = 0 to n - 1 do
                match Cffs.frame_of_block st.fs (start + i) with
                | Some f ->
                    Hashtbl.replace tbl f
                      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl f))
                | None -> ()
              done)
            runs)
    paths;
  Hashtbl.fold (fun f n acc -> (f, n) :: acc) tbl []

(* One barrier group: prepare every file, then order the pointer switches
   and frees per the write policy (see the .mli).  A file no frame can
   host is counted ([no_room]) and skipped — other files may still fit in
   their own or their directory's frames; only a pass in which {e nothing}
   fit reports [No_space]. *)
let run_batch st ~dir_ino ~dir_census paths =
  prefetch_sources st paths;
  let plans = ref [] in
  List.iter
    (fun path ->
      if budget_left st then begin
        match Cffs.resolve st.fs path with
        | Error _ -> ()
        | Ok ino -> begin
            st.scanned <- st.scanned + 1;
            Obs.incr m_scanned;
            match Cffs.regroup_prepare ~dir_census st.fs ~dir:dir_ino ~ino with
            | Ok `Resident -> ()
            | Ok `Ineligible -> st.ineligible <- st.ineligible + 1
            | Ok (`Plan plan) ->
                st.broken <- st.broken + 1;
                plans := plan :: !plans;
                (* The budget counts prepared moves so a capped pass
                   claims no more than it will commit. *)
                st.moved <- st.moved + 1
            | Error Errno.Eio ->
                st.broken <- st.broken + 1;
                st.skipped_io <- st.skipped_io + 1;
                Obs.incr m_skipped_io
            | Error Errno.Enospc ->
                st.broken <- st.broken + 1;
                st.no_room <- st.no_room + 1;
                Obs.incr m_enospc
            | Error _ -> st.ineligible <- st.ineligible + 1
          end
      end)
    paths;
  let plans = List.rev !plans in
  if plans <> [] then begin
    let journaled = Cache.policy (Cffs.cache st.fs) = Cache.Journaled in
    (* Barrier 1: copied data and destination claims durable before any
       pointer names them.  Under [Journaled] the sync moves to the end of
       the batch: one transaction covers claim + switch + free, and the
       journal home-writes the copied data before the commit record. *)
    if not journaled then Cffs.sync st.fs;
    let committed =
      List.filter
        (fun plan ->
          match Cffs.regroup_commit st.fs plan with
          | Ok () ->
              Obs.incr m_moved;
              st.blocks_copied <- st.blocks_copied + Cffs.move_plan_blocks plan;
              Obs.add m_blocks (Cffs.move_plan_blocks plan);
              true
          | Error _ ->
              Cffs.regroup_abandon st.fs plan;
              st.moved <- st.moved - 1;
              false
          | exception Cffs_util.Io_error.E _ ->
              Cffs.regroup_abandon st.fs plan;
              st.moved <- st.moved - 1;
              st.skipped_io <- st.skipped_io + 1;
              Obs.incr m_skipped_io;
              false)
        plans
    in
    (* Barrier 2: the switches durable before the sources are freed for
       reuse. *)
    if not journaled then Cffs.sync st.fs;
    List.iter (fun plan -> Cffs.regroup_finish st.fs plan) committed;
    if journaled then Cffs.sync st.fs
  end;
  poll st

let rec batches n = function
  | [] -> []
  | l ->
      let rec take k = function
        | x :: rest when k > 0 ->
            let got, rest = take (k - 1) rest in
            (x :: got, rest)
        | rest -> ([], rest)
      in
      let b, rest = take n l in
      b :: batches n rest

(* All move candidates directly inside [dir]: small regular files, by
   size.  Eligibility proper (holes, pointer shape) is re-judged by
   [regroup_prepare]. *)
let candidates fs dir =
  let sb = Cffs.superblock fs in
  let bsz = sb.Cffs.Csb.block_size in
  let max_bytes = sb.Cffs.Csb.group_file_blocks * bsz in
  match Cffs.list_dir fs dir with
  | Error _ -> []
  | Ok names ->
      List.filter_map
        (fun name ->
          let path = if dir = "/" then "/" ^ name else dir ^ "/" ^ name in
          if path = cursor_path then None
          else begin
            match Cffs.stat fs path with
            | Ok st
              when st.Fs_intf.st_kind = Inode.Regular
                   && st.Fs_intf.st_size > 0
                   && st.Fs_intf.st_size <= max_bytes ->
                Some path
            | Ok _ | Error _ -> None
          end)
        (List.sort compare names)

let process_dir st dir =
  match Cffs.resolve st.fs dir with
  | Error _ -> ()
  | Ok dir_ino ->
      let paths = candidates st.fs dir in
      (* Place the biggest files first (first-fit decreasing): they need
         the scarce large free runs, and the small files then fill the
         gaps they leave — the standard bin-packing order. *)
      let nblocks p =
        match Cffs.file_runs st.fs p with
        | Ok runs -> List.fold_left (fun acc (_, n) -> acc + n) 0 runs
        | Error _ -> 0
      in
      let paths =
        List.stable_sort
          (fun a b -> compare (nblocks b) (nblocks a))
          paths
      in
      (* Refresh the census per batch: earlier batches' moves change which
         frames hold the directory's data, and the weights steer every
         later placement. *)
      List.iter
        (fun group ->
          if budget_left st then
            run_batch st ~dir_ino ~dir_census:(dir_census st paths) group)
        (batches batch paths)

let write_cursor st dir =
  match Cffs.write_file st.fs cursor_path (Bytes.of_string dir) with
  | Ok () ->
      Obs.incr m_cursor_writes;
      Cffs.sync st.fs
  | Error _ -> ()

let read_cursor fs =
  match Cffs.read_file fs cursor_path with
  | Ok b -> Some (Bytes.to_string b)
  | Error _ -> None

let residency fs = (Layout.cffs_report fs).Layout.group_residency

let run ?(spec = default_spec) fs =
  Obs.incr m_passes;
  let before = if spec.measure then residency fs else 0.0 in
  let cursor = read_cursor fs in
  let resumed = cursor <> None in
  if resumed then Obs.incr m_resumes;
  let st =
    {
      fs;
      spec;
      scanned = 0;
      broken = 0;
      moved = 0;
      blocks_copied = 0;
      skipped_io = 0;
      ineligible = 0;
      no_room = 0;
    }
  in
  let dirs =
    let all = collect_dirs fs in
    match cursor with
    | None -> all
    | Some last -> List.filter (fun d -> String.compare d last > 0) all
  in
  let walked = ref 0 in
  let last_done = ref cursor in
  let rec walk = function
    | [] -> Completed
    | dir :: rest ->
        if not (budget_left st) then Move_budget
        else begin
          (* A persistent fault while walking the directory itself skips
             that directory; the pass carries on. *)
          (try process_dir st dir
           with Cffs_util.Io_error.E _ ->
             st.skipped_io <- st.skipped_io + 1;
             Obs.incr m_skipped_io);
          incr walked;
          last_done := Some dir;
          (* Checkpoint: a crash or abort from here on resumes after
             [dir] instead of rescanning it. *)
          if rest <> [] then write_cursor st dir;
          walk rest
        end
  in
  let status =
    match walk dirs with
    | Completed when st.no_room > 0 && st.moved = 0 ->
        (* Broken files everywhere and not one of them placeable: the
           volume is out of frame space.  (A partial fit still completes —
           the counted [no_room] files simply wait for a later pass.) *)
        No_space
    | s -> s
  in
  (match status with
  | Completed ->
      if Cffs.exists fs cursor_path then
        ignore (Cffs.unlink fs cursor_path)
  | Move_budget | No_space -> (
      match !last_done with Some d -> write_cursor st d | None -> ()));
  Cffs.sync fs;
  let after = if spec.measure then residency fs else 0.0 in
  {
    status;
    resumed;
    dirs_walked = !walked;
    scanned = st.scanned;
    broken = st.broken;
    moved = st.moved;
    blocks_copied = st.blocks_copied;
    skipped_io = st.skipped_io;
    no_room = st.no_room;
    ineligible = st.ineligible;
    residency_before = before;
    residency_after = after;
  }

let to_json o =
  Json.Obj
    [
      ("status", Json.String (status_name o.status));
      ("resumed", Json.Bool o.resumed);
      ("dirs_walked", Json.Int o.dirs_walked);
      ("scanned", Json.Int o.scanned);
      ("broken", Json.Int o.broken);
      ("moved", Json.Int o.moved);
      ("blocks_copied", Json.Int o.blocks_copied);
      ("skipped_io", Json.Int o.skipped_io);
      ("no_room", Json.Int o.no_room);
      ("ineligible", Json.Int o.ineligible);
      ("residency_before", Json.Float o.residency_before);
      ("residency_after", Json.Float o.residency_after);
    ]

let pp ppf o =
  Format.fprintf ppf
    "regroup: %s%s; %d dir(s), %d candidate(s), %d broken, %d moved (%d \
     block(s) copied), %d skipped on IO fault, %d without room, %d ineligible"
    (status_name o.status)
    (if o.resumed then " (resumed)" else "")
    o.dirs_walked o.scanned o.broken o.moved o.blocks_copied o.skipped_io
    o.no_room o.ineligible;
  if o.residency_before <> 0.0 || o.residency_after <> 0.0 then
    Format.fprintf ppf "; residency %.3f -> %.3f" o.residency_before
      o.residency_after

let to_string o = Format.asprintf "%a" pp o
