(* The command-line front end: create, inspect, exercise and repair C-FFS /
   FFS images (raw files), and run the paper's experiments.

   Images carry no timing: file-system commands run on an untimed memory
   device loaded from the image.  The experiment commands build their own
   simulated drives. *)

module Blockdev = Cffs_blockdev.Blockdev
module Errno = Cffs_vfs.Errno
module Fs_intf = Cffs_vfs.Fs_intf
module Report = Cffs_fsck.Report
module Experiments = Cffs_harness.Experiments
module Setup = Cffs_harness.Setup
module Volume = Cffs_volume.Volume
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Image plumbing *)

type mounted =
  | M_cffs of Cffs.t
  | M_ffs of Ffs.t

let packed_of = function
  | M_cffs fs -> Fs_intf.Packed ((module Cffs), fs)
  | M_ffs fs -> Fs_intf.Packed ((module Ffs), fs)

let mount_dev ?policy path dev =
  match Cffs.mount ?policy dev with
  | Some fs -> Ok (M_cffs fs, dev)
  | None -> begin
      match Ffs.mount ?policy dev with
      | Some fs -> Ok (M_ffs fs, dev)
      | None -> Error (`Msg (path ^ ": no C-FFS or FFS superblock found"))
    end

let mount_image ?policy path = mount_dev ?policy path (Blockdev.load_file path)

(* --drives/--vol-layout on image commands re-host the flat image's blocks
   onto a fresh N-spindle memory volume, so the command runs through the
   composite device (per-spindle fault isolation included).  The image file
   stays an ordinary flat image: [Blockdev.save_file] on a composite walks
   the extent table back into logical order. *)
let mount_volume ?policy ~drives ~vol_layout path =
  let flat = Blockdev.load_file path in
  match mount_dev ?policy path flat with
  | Error _ as e -> e
  | Ok (m, dev) ->
      if drives = 1 then Ok (m, dev, None)
      else begin
        let meta_per_chunk =
          Setup.meta_per_chunk
            (match m with
            | M_ffs _ -> Setup.Ffs_baseline
            | M_cffs _ -> Setup.Cffs_fs Cffs.config_default)
        in
        let v =
          Volume.create_memory ~stripe_unit:Setup.stripe_unit ~meta_per_chunk
            ~block_size:(Blockdev.block_size flat)
            ~nblocks:(Blockdev.nblocks flat) ~drives ~layout:vol_layout ()
        in
        Blockdev.restore v.Volume.dev (Blockdev.snapshot flat);
        match mount_dev ?policy path v.Volume.dev with
        | Error _ as e -> e
        | Ok (m, dev) -> Ok (m, dev, Some v)
      end

let with_image ?policy path f =
  match mount_image ?policy path with
  | Error (`Msg m) ->
      prerr_endline m;
      1
  | Ok (m, dev) -> begin
      match f (packed_of m) m with
      | Ok dirty ->
          if dirty then begin
            let (Fs_intf.Packed ((module F), fs)) = packed_of m in
            F.sync fs;
            Blockdev.save_file dev path
          end;
          0
      | Error e ->
          prerr_endline ("error: " ^ Errno.to_string e);
          1
    end

(* One spelling per policy, everywhere: the converter goes through
   [Cache.policy_of_name] (canonical snake_case names plus the documented
   variants) and prints back via [Cache.policy_name]. *)
let policy_conv =
  let parse s =
    match Cffs_cache.Cache.policy_of_name s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown policy %S; one of: %s" s
                (String.concat ", "
                   (List.map Cffs_cache.Cache.policy_name
                      Cffs_cache.Cache.all_policies))))
  in
  let print ppf p =
    Format.pp_print_string ppf (Cffs_cache.Cache.policy_name p)
  in
  Arg.conv (parse, print)

let policy_doc =
  "Cache write policy: write_through, sync_metadata, delayed, soft_updates \
   or journaled."

let policy_arg default =
  Arg.(value & opt policy_conv default
       & info [ "policy" ] ~docv:"POLICY" ~doc:policy_doc)

let policy_opt_arg =
  Arg.(value & opt (some policy_conv) None
       & info [ "policy" ] ~docv:"POLICY" ~doc:policy_doc)

(* The multi-volume options, one term on every command that takes them
   (mkfs, stats, mcbench, statbench, layout, scrub): the spindle count, at
   least 1, and the layout used when it exceeds 1. *)
let volume_arg =
  let layout_conv =
    let parse s =
      match Volume.layout_of_name s with
      | Some l -> Ok l
      | None ->
          Error
            (`Msg
               (Printf.sprintf
                  "unknown volume layout %S; one of: striped, meta-split" s))
    in
    let print ppf l = Format.pp_print_string ppf (Volume.layout_name l) in
    Arg.conv (parse, print)
  in
  let drives =
    Arg.(value & opt int 1
         & info [ "drives" ] ~docv:"N"
             ~doc:
               "Simulated spindles in the volume (1 = one plain drive, no \
                volume layer).")
  in
  let layout =
    Arg.(value & opt layout_conv Volume.Striped
         & info [ "vol-layout" ] ~docv:"LAYOUT"
             ~doc:
               "Multi-drive layout: striped (group-aligned striping: each \
                cylinder group's frames stay on one spindle) or meta-split \
                (spindle 0 dedicated to metadata, CFS-style).  Ignored \
                unless --drives exceeds 1.")
  in
  let check drives layout =
    if drives < 1 then
      Error (Printf.sprintf "--drives must be at least 1, got %d" drives)
    else Ok (drives, layout)
  in
  Term.(term_result' (const check $ drives $ layout))

(* ------------------------------------------------------------------ *)
(* mkfs *)

let mkfs_cmd =
  let run image size_mb fs_kind no_embed no_grouping group_kb integrity spares
      policy (drives, vol_layout) =
    let fs_name =
      match fs_kind with "ffs" -> Some "FFS" | "cffs" -> Some "C-FFS" | _ -> None
    in
    match fs_name with
    | None ->
        Printf.eprintf "mkfs: unknown file system %S; one of: cffs, ffs\n" fs_kind;
        1
    | Some _ when size_mb < 1 ->
        Printf.eprintf "mkfs: --size-mb must be at least 1, got %d\n" size_mb;
        1
    | Some fs_name -> (
        (* Formatting through the composite exercises the volume mapping;
           the saved image is flat either way. *)
        let dev =
          (Volume.create_memory ~stripe_unit:Setup.stripe_unit
             ~meta_per_chunk:
               (Setup.meta_per_chunk
                  (if fs_kind = "ffs" then Setup.Ffs_baseline
                   else Setup.Cffs_fs Cffs.config_default))
             ~block_size:4096 ~nblocks:(size_mb * 256) ~drives
             ~layout:vol_layout ())
            .Volume.dev
        in
        try
          (if fs_kind = "ffs" then
             ignore (Ffs.format ?policy ~integrity ~spare_blocks:spares dev)
           else
             let config =
               {
                 Cffs.config_default with
                 Cffs.embed_inodes = not no_embed;
                 grouping = not no_grouping;
                 group_blocks = max 2 (group_kb / 4);
               }
             in
             ignore
               (Cffs.format ?policy ~config ~integrity ~spare_blocks:spares dev));
          Blockdev.save_file dev image;
          Printf.printf "created %s: %d MB %s%s%s\n" image size_mb fs_name
            (if integrity then
               Printf.sprintf " (integrity: checksums + %d spare blocks)" spares
             else "")
            (if drives > 1 then
               Printf.sprintf " on %d spindles (%s)" drives
                 (Volume.layout_name vol_layout)
             else "");
          0
        with Cffs_vfs.Fs_intf.Too_small { need_blocks; have_blocks } ->
          Printf.eprintf
            "mkfs: image too small: %s needs at least %d blocks (%d MB) for its \
             file system, got %d\n"
            fs_name need_blocks ((need_blocks + 255) / 256) have_blocks;
          1)
  in
  let image = Arg.(required & pos 0 (some string) None & info [] ~docv:"IMAGE") in
  let size = Arg.(value & opt int 64 & info [ "size-mb" ] ~doc:"Image size in MB.") in
  let kind =
    Arg.(value & opt string "cffs" & info [ "fs" ] ~doc:"File system: cffs or ffs.")
  in
  let no_embed =
    Arg.(value & flag & info [ "no-embed" ] ~doc:"Disable embedded inodes.")
  in
  let no_grouping =
    Arg.(value & flag & info [ "no-grouping" ] ~doc:"Disable explicit grouping.")
  in
  let group_kb =
    Arg.(value & opt int 64 & info [ "group-kb" ] ~doc:"Group frame size in KB.")
  in
  let integrity =
    Arg.(value & flag
         & info [ "integrity" ]
             ~doc:
               "Add the self-healing layer: per-block checksums, a spare-block \
                pool for bad-sector remapping, and (C-FFS only) replicated \
                superblock and group descriptors.")
  in
  let spares =
    Arg.(value & opt int 64
         & info [ "spares" ] ~docv:"N"
             ~doc:"Spare blocks for the remap pool (with --integrity).")
  in
  Cmd.v
    (Cmd.info "mkfs" ~doc:"Create a fresh file-system image.")
    Term.(
      const run $ image $ size $ kind $ no_embed $ no_grouping $ group_kb
      $ integrity $ spares $ policy_opt_arg $ volume_arg)

(* ------------------------------------------------------------------ *)
(* fsck *)

let fsck_cmd =
  let run image repair =
    match mount_image image with
    | Error (`Msg m) ->
        prerr_endline m;
        1
    | Ok (m, dev) ->
        let report =
          match (m, repair) with
          | M_cffs fs, false -> Cffs_fsck.Fsck_cffs.check fs
          | M_cffs fs, true -> Cffs_fsck.Fsck_cffs.repair fs
          | M_ffs fs, false -> Cffs_fsck.Fsck_ffs.check fs
          | M_ffs fs, true -> Cffs_fsck.Fsck_ffs.repair fs
        in
        Format.printf "%a@." Report.pp report;
        if repair then begin
          (let (Fs_intf.Packed ((module F), fs)) = packed_of m in
           F.sync fs);
          Blockdev.save_file dev image
        end;
        if Report.clean report then 0 else 1
  in
  let image = Arg.(required & pos 0 (some string) None & info [] ~docv:"IMAGE") in
  let repair = Arg.(value & flag & info [ "repair" ] ~doc:"Fix what can be fixed.") in
  Cmd.v
    (Cmd.info "fsck" ~doc:"Check (and optionally repair) an image.")
    Term.(const run $ image $ repair)

(* ------------------------------------------------------------------ *)
(* scrub *)

let scrub_cmd =
  let run image json (drives, vol_layout) =
    match mount_volume ~drives ~vol_layout image with
    | Error (`Msg m) ->
        prerr_endline m;
        1
    | Ok (M_ffs _, _, _) ->
        prerr_endline
          (image
         ^ ": FFS images have no metadata replicas to scrub; run fsck instead");
        1
    | Ok (M_cffs fs, dev, _) -> (
        match Cffs_fsck.Scrub.run_to_completion fs with
        | None ->
            prerr_endline
              (image
             ^ ": no integrity layer (create the image with mkfs --integrity)");
            1
        | Some r ->
            if json then
              print_endline
                (Cffs_obs.Json.to_string_pretty (Cffs_fsck.Scrub.to_json r))
            else Format.printf "%a@." Cffs_fsck.Scrub.pp r;
            (* repairs (and the refreshed checksum region) must persist *)
            Blockdev.save_file dev image;
            if r.Cffs_fsck.Scrub.lost > 0 then 1 else 0)
  in
  let image = Arg.(required & pos 0 (some string) None & info [] ~docv:"IMAGE") in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "Verify every allocated block of an integrity-formatted C-FFS image \
          against its checksum, restore damaged metadata from replicas, \
          refresh damaged replicas from primaries, remap sticky bad sectors, \
          and repair the remap table's on-disk copies.  Exits non-zero if any \
          block was unrecoverable.  --drives re-hosts the image on an \
          N-spindle volume and scrubs through the composite device; the \
          saved image stays an ordinary flat file.")
    Term.(const run $ image $ json $ volume_arg)

(* ------------------------------------------------------------------ *)
(* Namespace commands *)

let image_pos = Arg.(required & pos 0 (some string) None & info [] ~docv:"IMAGE")
let path_pos n docv = Arg.(required & pos n (some string) None & info [] ~docv)

let ls_cmd =
  let run image path =
    with_image image (fun (Fs_intf.Packed ((module F), fs)) _ ->
        match F.list_dir fs path with
        | Error _ as e -> Result.map (fun _ -> false) e
        | Ok names ->
            List.iter
              (fun n ->
                let p = Cffs_vfs.Path.join path n in
                match F.stat fs p with
                | Ok st ->
                    Printf.printf "%s %8d  %s\n"
                      (match st.Fs_intf.st_kind with
                      | Cffs_vfs.Inode.Directory -> "d"
                      | _ -> "-")
                      st.Fs_intf.st_size n
                | Error _ -> Printf.printf "?          ?  %s\n" n)
              names;
            Ok false)
  in
  Cmd.v
    (Cmd.info "ls" ~doc:"List a directory.")
    Term.(const run $ image_pos $ path_pos 1 "PATH")

let tree_cmd =
  let run image =
    with_image image (fun (Fs_intf.Packed ((module F), fs)) _ ->
        let rec walk indent path =
          match F.list_dir fs path with
          | Error _ -> ()
          | Ok names ->
              List.iter
                (fun n ->
                  let p = Cffs_vfs.Path.join path n in
                  let is_dir =
                    match F.stat fs p with
                    | Ok st -> st.Fs_intf.st_kind = Cffs_vfs.Inode.Directory
                    | Error _ -> false
                  in
                  Printf.printf "%s%s%s\n" indent n (if is_dir then "/" else "");
                  if is_dir then walk (indent ^ "  ") p)
                names
        in
        print_endline "/";
        walk "  " "/";
        Ok false)
  in
  Cmd.v (Cmd.info "tree" ~doc:"Print the whole namespace.") Term.(const run $ image_pos)

let cat_cmd =
  let run image path =
    with_image image (fun (Fs_intf.Packed ((module F), fs)) _ ->
        match F.read_file fs path with
        | Error _ as e -> Result.map (fun _ -> false) e
        | Ok data ->
            print_bytes data;
            Ok false)
  in
  Cmd.v
    (Cmd.info "cat" ~doc:"Print a file's contents.")
    Term.(const run $ image_pos $ path_pos 1 "PATH")

let put_cmd =
  let run image path host =
    with_image image (fun (Fs_intf.Packed ((module F), fs)) _ ->
        let ic = open_in_bin host in
        let n = in_channel_length ic in
        let data = Bytes.create n in
        really_input ic data 0 n;
        close_in ic;
        Result.map (fun () -> true) (F.write_file fs path data))
  in
  let host = Arg.(required & pos 2 (some file) None & info [] ~docv:"HOST_FILE") in
  Cmd.v
    (Cmd.info "put" ~doc:"Copy a host file into the image.")
    Term.(const run $ image_pos $ path_pos 1 "PATH" $ host)

let get_cmd =
  let run image path host =
    with_image image (fun (Fs_intf.Packed ((module F), fs)) _ ->
        match F.read_file fs path with
        | Error _ as e -> Result.map (fun _ -> false) e
        | Ok data ->
            let oc = open_out_bin host in
            output_bytes oc data;
            close_out oc;
            Ok false)
  in
  let host = Arg.(required & pos 2 (some string) None & info [] ~docv:"HOST_FILE") in
  Cmd.v
    (Cmd.info "get" ~doc:"Copy a file out of the image.")
    Term.(const run $ image_pos $ path_pos 1 "PATH" $ host)

let mkdir_cmd =
  let run image path =
    with_image image (fun (Fs_intf.Packed ((module F), fs)) _ ->
        Result.map (fun () -> true) (F.mkdir_p fs path))
  in
  Cmd.v
    (Cmd.info "mkdir" ~doc:"Create a directory (and parents).")
    Term.(const run $ image_pos $ path_pos 1 "PATH")

let rm_cmd =
  let run image path recursive =
    with_image image (fun (Fs_intf.Packed ((module F), fs)) _ ->
        let open Errno in
        let rec remove p =
          match F.unlink fs p with
          | Ok () -> Ok ()
          | Error Eisdir when recursive ->
              let* names = F.list_dir fs p in
              let* () =
                List.fold_left
                  (fun acc n ->
                    let* () = acc in
                    remove (Cffs_vfs.Path.join p n))
                  (Ok ()) names
              in
              F.rmdir fs p
          | Error Eisdir -> F.rmdir fs p
          | Error _ as e -> e
        in
        Result.map (fun () -> true) (remove path))
  in
  let recursive = Arg.(value & flag & info [ "r" ] ~doc:"Remove recursively.") in
  Cmd.v
    (Cmd.info "rm" ~doc:"Remove a file or (empty, or -r) directory.")
    Term.(const run $ image_pos $ path_pos 1 "PATH" $ recursive)

let mv_cmd =
  let run image src dst =
    with_image image (fun (Fs_intf.Packed ((module F), fs)) _ ->
        Result.map (fun () -> true) (F.rename_path fs ~src ~dst))
  in
  Cmd.v
    (Cmd.info "mv" ~doc:"Rename/move within the image.")
    Term.(const run $ image_pos $ path_pos 1 "SRC" $ path_pos 2 "DST")

let df_cmd =
  let run image =
    with_image image (fun (Fs_intf.Packed ((module F), fs)) m ->
        let u = F.usage fs in
        let used = u.Fs_intf.total_blocks - u.Fs_intf.free_blocks in
        Printf.printf "%s\n" (F.label fs);
        Printf.printf "blocks: %d total, %d used, %d free (%.1f%%)\n"
          u.Fs_intf.total_blocks used u.Fs_intf.free_blocks
          (100.0 *. float_of_int used /. float_of_int u.Fs_intf.total_blocks);
        (match m with
        | M_cffs fs ->
            Printf.printf "grouping quality: %.2f\n" (Cffs.grouped_fraction fs)
        | M_ffs _ ->
            Printf.printf "inodes: %d total, %d free\n" u.Fs_intf.total_inodes
              u.Fs_intf.free_inodes);
        Ok false)
  in
  Cmd.v (Cmd.info "df" ~doc:"Show usage.") Term.(const run $ image_pos)

(* ------------------------------------------------------------------ *)
(* Traces *)

module Trace = Cffs_workload.Trace

let synth_trace_cmd =
  let run out ops seed =
    Trace.save (Trace.synthesize ~ops ~seed ()) out;
    Printf.printf "wrote %s (%d operations)\n" out ops;
    0
  in
  let out = Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE_FILE") in
  let ops = Arg.(value & opt int 2000 & info [ "ops" ] ~doc:"Operations to generate.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  Cmd.v
    (Cmd.info "synth-trace" ~doc:"Generate a synthetic operation trace.")
    Term.(const run $ out $ ops $ seed)

let replay_cmd =
  let run image trace_file trace_cap policy =
    with_image ?policy image (fun packed _ ->
        let module Otrace = Cffs_obs.Trace in
        let trace = Trace.load trace_file in
        let (Fs_intf.Packed ((module F), fs)) = packed in
        if trace_cap > 0 then begin
          Otrace.set_capacity trace_cap;
          Otrace.set_enabled true
        end;
        let failed = ref 0 in
        let count = function Ok _ -> () | Error _ -> incr failed in
        List.iter
          (fun op ->
            match op with
            | Trace.T_mkdir p -> count (F.mkdir fs p)
            | Trace.T_create p -> count (F.create fs p)
            | Trace.T_write_file (p, n) -> count (F.write_file fs p (Bytes.make n 't'))
            | Trace.T_write (p, off, n) -> count (F.write fs p ~off (Bytes.make n 't'))
            | Trace.T_read_file p -> count (F.read_file fs p)
            | Trace.T_read (p, off, n) -> count (F.read fs p ~off ~len:n)
            | Trace.T_unlink p -> count (F.unlink fs p)
            | Trace.T_rmdir p -> count (F.rmdir fs p)
            | Trace.T_rename (a, b) -> count (F.rename_path fs ~src:a ~dst:b)
            | Trace.T_link (a, b) -> count (F.link fs ~existing:a ~target:b)
            | Trace.T_truncate (p, n) -> count (F.truncate fs p n)
            | Trace.T_sync -> F.sync fs)
          trace;
        if trace_cap > 0 then begin
          Otrace.set_enabled false;
          let events = Otrace.events () in
          List.iter (fun e -> Format.printf "%a@." Otrace.pp_event e) events;
          Printf.printf "ring holds %d/%d spans\n" (List.length events) trace_cap
        end;
        Printf.printf "replayed %d operations (%d failed)\n" (List.length trace) !failed;
        Ok true)
  in
  let trace = Arg.(required & pos 1 (some file) None & info [] ~docv:"TRACE_FILE") in
  let trace_cap =
    Arg.(value & opt int 0
         & info [ "trace-cap" ] ~docv:"N"
             ~doc:
               "Capture span traces during the replay in a ring of N events \
                and print them afterwards (0 disables tracing).")
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay a trace into an image.")
    Term.(const run $ image_pos $ trace $ trace_cap $ policy_opt_arg)

let trace_bench_cmd =
  let run trace_file policy =
    let trace = Trace.load trace_file in
    Printf.printf "%-16s %10s %10s %8s\n" "Configuration" "seconds" "requests" "failed";
    List.iter
      (fun kind ->
        let inst =
          Cffs_harness.Setup.instantiate
            (Cffs_harness.Setup.standard ~policy kind)
        in
        let o = Trace.replay inst.Cffs_harness.Setup.env trace in
        Printf.printf "%-16s %10.2f %10d %8d\n"
          (Cffs_harness.Setup.fs_kind_label kind)
          o.Trace.measure.Cffs_workload.Env.seconds
          o.Trace.measure.Cffs_workload.Env.requests o.Trace.failed)
      Cffs_harness.Setup.five_configs;
    0
  in
  let trace = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE_FILE") in
  Cmd.v
    (Cmd.info "trace-bench"
       ~doc:"Replay a trace on the simulated testbed under every configuration.")
    Term.(const run $ trace $ policy_arg Cffs_cache.Cache.Soft_updates)

(* ------------------------------------------------------------------ *)
(* dump: on-disk structure inspection *)

let dump_cmd =
  let run image =
    with_image image (fun _ m ->
        (match m with
        | M_cffs fs ->
            let sb = Cffs.superblock fs in
            let module Csb = Cffs.Csb in
            Printf.printf "C-FFS superblock:\n";
            Printf.printf "  block size        %d\n" sb.Csb.block_size;
            Printf.printf "  cylinder groups   %d x %d blocks\n" sb.Csb.cg_count
              sb.Csb.cg_size;
            Printf.printf "  embedded inodes   %b\n" sb.Csb.embed_inodes;
            Printf.printf "  explicit grouping %b (frames of %d blocks)\n"
              sb.Csb.grouping sb.Csb.group_blocks;
            Printf.printf "  small-file limit  %d blocks\n" sb.Csb.group_file_blocks;
            Printf.printf "  read-ahead        %d blocks\n" sb.Csb.readahead_blocks;
            Printf.printf "  external inodes   %d slots allocated\n" sb.Csb.ext_high;
            Printf.printf "\nper-group free blocks:\n";
            let cache = Cffs.cache fs in
            for cg = 0 to min 15 (sb.Csb.cg_count - 1) do
              let hdr = Cffs_cache.Cache.read cache (Csb.cg_start sb cg) in
              let free = Cffs_util.Codec.get_u32 hdr Csb.hdr_free_blocks_off in
              let used = sb.Csb.cg_size - free in
              let bar = String.make (min 50 (used * 50 / sb.Csb.cg_size)) '#' in
              Printf.printf "  cg %3d  %5d used  %s\n" cg used bar
            done;
            if sb.Csb.cg_count > 16 then
              Printf.printf "  ... (%d more groups)\n" (sb.Csb.cg_count - 16)
        | M_ffs fs ->
            let sb = Ffs.superblock fs in
            let module L = Ffs.Layout in
            Printf.printf "FFS superblock:\n";
            Printf.printf "  block size        %d\n" sb.L.block_size;
            Printf.printf "  cylinder groups   %d x %d blocks\n" sb.L.cg_count
              sb.L.cg_size;
            Printf.printf "  inodes per group  %d (table: %d blocks)\n"
              sb.L.inodes_per_cg sb.L.itable_blocks;
            let u = Ffs.usage fs in
            Printf.printf "  inodes free       %d / %d\n" u.Fs_intf.free_inodes
              u.Fs_intf.total_inodes);
        Ok false)
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Inspect an image's on-disk structures.")
    Term.(const run $ image_pos)

(* ------------------------------------------------------------------ *)
(* layout: the grouping introspector on a mounted image *)

let layout_cmd =
  (* With --drives the introspection runs through the composite device and
     the report gains the volume map: which spindle owns each chunk, and
     the per-spindle block totals. *)
  let vol_map v =
    let caps =
      Array.map Blockdev.nblocks (Blockdev.subdevices v.Volume.dev)
    in
    let extents =
      Volume.plan v.Volume.layout ~drives:v.Volume.drives
        ~stripe_unit:v.Volume.stripe_unit
        ~meta_per_chunk:v.Volume.meta_per_chunk ~caps
    in
    let blocks = Array.make v.Volume.drives 0 in
    let exts = Array.make v.Volume.drives 0 in
    List.iter
      (fun (_, len, sub, _) ->
        blocks.(sub) <- blocks.(sub) + len;
        exts.(sub) <- exts.(sub) + 1)
      extents;
    (blocks, exts)
  in
  let vol_map_json v =
    let blocks, exts = vol_map v in
    Cffs_obs.Json.Obj
      [
        ("drives", Cffs_obs.Json.Int v.Volume.drives);
        ("layout", Cffs_obs.Json.String (Volume.layout_name v.Volume.layout));
        ("stripe_unit", Cffs_obs.Json.Int v.Volume.stripe_unit);
        ("meta_per_chunk", Cffs_obs.Json.Int v.Volume.meta_per_chunk);
        ( "spindles",
          Cffs_obs.Json.List
            (List.init v.Volume.drives (fun i ->
                 Cffs_obs.Json.Obj
                   [
                     ("spindle", Cffs_obs.Json.Int i);
                     ("extents", Cffs_obs.Json.Int exts.(i));
                     ("blocks", Cffs_obs.Json.Int blocks.(i));
                   ])) );
      ]
  in
  let run image json (drives, vol_layout) =
    match mount_volume ~drives ~vol_layout image with
    | Error (`Msg m) ->
        prerr_endline m;
        1
    | Ok (m, _dev, vol) ->
        let report =
          match m with
          | M_cffs fs -> Cffs_fsck.Layout.cffs_report fs
          | M_ffs fs -> Cffs_fsck.Layout.ffs_report fs
        in
        let rjson = Cffs_fsck.Layout.to_json report in
        (if json then
           print_endline
             (Cffs_obs.Json.to_string_pretty
                (match vol with
                | None -> rjson
                | Some v ->
                    Cffs_obs.Json.Obj
                      [ ("layout", rjson); ("volume", vol_map_json v) ]))
         else begin
           Format.printf "%a@." Cffs_fsck.Layout.pp report;
           match vol with
           | None -> ()
           | Some v ->
               let blocks, exts = vol_map v in
               Printf.printf
                 "\nvolume: %d spindles, %s layout, %d-block stripe unit\n"
                 v.Volume.drives
                 (Volume.layout_name v.Volume.layout)
                 v.Volume.stripe_unit;
               Array.iteri
                 (fun i b ->
                   Printf.printf "  spindle %d: %4d extents, %8d blocks%s\n" i
                     exts.(i) b
                     (if v.Volume.layout = Volume.Meta_split && i = 0 then
                        "  (metadata)"
                      else ""))
                 blocks
         end);
        0
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  Cmd.v
    (Cmd.info "layout"
       ~doc:
         "Analyse an image's allocation layout: small-file group residency, \
          frame occupancy, embedded-vs-external inode split, and free-space \
          fragmentation.  --drives re-hosts the image on an N-spindle volume \
          and adds the per-spindle chunk map.")
    Term.(const run $ image_pos $ json $ volume_arg)

(* ------------------------------------------------------------------ *)
(* regroup: the crash-safe online regrouper on a mounted image *)

let regroup_cmd =
  let module Regroup = Cffs_fsck.Regroup in
  let run image max_moves json =
    with_image image (fun _ m ->
        match m with
        | M_ffs _ ->
            prerr_endline
              (image ^ ": not a C-FFS image (FFS has no group frames)");
            Error Errno.Einval
        | M_cffs fs ->
            let spec = { Regroup.default_spec with Regroup.max_moves } in
            let o = Regroup.run ~spec fs in
            if json then
              print_endline
                (Cffs_obs.Json.to_string_pretty (Regroup.to_json o))
            else print_endline (Regroup.to_string o);
            Ok true)
  in
  let max_moves =
    Arg.(value & opt (some int) None
         & info [ "max-moves" ] ~docv:"N"
             ~doc:
               "Stop after migrating $(docv) files; the pass checkpoints its \
                cursor and a later run resumes where it stopped.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the outcome as JSON.")
  in
  Cmd.v
    (Cmd.info "regroup"
       ~doc:
         "Run one crash-safe online regrouping pass over a C-FFS image: walk \
          the namespace, find small files whose blocks have strayed out of \
          their directory's group frames, and migrate them back with the \
          copy-forward-then-switch move protocol (new blocks written and \
          synced before the inode pointers switch, sources freed only after \
          the switch is durable).  Survives bad sectors (skips the file), \
          aborts cleanly on ENOSPC, and resumes from its cursor file.")
    Term.(const run $ image_pos $ max_moves $ json)

(* ------------------------------------------------------------------ *)
(* Experiments *)

let experiment_cmd =
  let run name quick seed =
    let scale = if quick then Experiments.quick else Experiments.full in
    let scale =
      match seed with
      | Some s -> { scale with Experiments.aging_seed = s }
      | None -> scale
    in
    (match List.assoc_opt name Experiments.experiments with
    | Some tables -> Experiments.print_tables (tables scale)
    | None -> Experiments.run_all scale);
    0
  in
  let which =
    let names = List.map fst Experiments.experiments @ [ "all" ] in
    let choices = List.map (fun n -> (n, n)) names in
    Arg.(value & pos 0 (enum choices) "all" & info [] ~docv:"EXPERIMENT"
           ~doc:("Which table/figure to regenerate: " ^ doc_alts_enum choices ^ "."))
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Small, fast variant.") in
  let seed =
    Arg.(value & opt (some int) None
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Override the aging-churn PRNG seed (fig8, fig8decay, regroup).")
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate the paper's tables and figures on the simulated disk.")
    Term.(const run $ which $ quick $ seed)

let disks_cmd =
  let run () =
    Cffs_util.Tablefmt.print (Experiments.table1_drives ());
    print_newline ();
    Cffs_util.Tablefmt.print (Experiments.table2_setup_drive ());
    0
  in
  Cmd.v
    (Cmd.info "disks" ~doc:"Show the built-in drive profiles.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* Observability *)

let stats_cmd =
  let run json nfiles policy (drives, vol_layout) =
    (* --drives N widens (or narrows) the document's A9 volume sweep to the
       powers of two up to N; --vol-layout picks the layout the sweep
       points use (the contrast point then shows the other layout). *)
    let vol_drives =
      let rec up acc d = if d > drives then List.rev acc else up (d :: acc) (2 * d) in
      match up [] 1 with [ _ ] -> None | ds -> Some ds
    in
    if json then
      print_endline
        (Cffs_obs.Json.to_string_pretty
           (Cffs_harness.Telemetry.document ~nfiles ~policy ?vol_drives
              ~vol_layout ()))
    else begin
      Cffs_harness.Telemetry.print_human ~nfiles ~policy ();
      if drives > 1 then begin
        Cffs_util.Tablefmt.print (Experiments.ablation_volume Experiments.quick);
        print_newline ()
      end
    end;
    0
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the JSON telemetry document.")
  in
  let nfiles =
    Arg.(value & opt int 400 & info [ "files" ] ~docv:"N"
           ~doc:"Small-file benchmark size.")
  in
  let policy = policy_arg Cffs_cache.Cache.Sync_metadata in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run the small-file benchmark on conventional vs full C-FFS and \
          report the observability metrics (per-op latency percentiles, disk \
          access counts, seek/rotation/transfer split, C-FFS counters).  \
          --drives widens the A9 multi-spindle sweep in the volume section.")
    Term.(const run $ json $ nfiles $ policy $ volume_arg)

(* [--config none|full] on trace and mcbench: the C-FFS configuration
   without either technique or with both (EI+EG). *)
let config_arg default =
  let configs = [ ("none", Cffs.config_ffs_like); ("full", Cffs.config_default) ] in
  Arg.(value & opt (enum configs) (List.assoc default configs)
       & info [ "config" ] ~docv:"CONFIG"
           ~doc:("File-system configuration: " ^ doc_alts_enum configs
                 ^ " (none: no techniques; full: EI+EG)."))

(* ------------------------------------------------------------------ *)
(* trace: span capture on the simulated testbed *)

let trace_cmd =
  let module Otrace = Cffs_obs.Trace in
  let run json cap ops seed config =
    let trace = Trace.synthesize ~ops ~seed () in
    let inst =
      Cffs_harness.Setup.instantiate
        (Cffs_harness.Setup.standard (Cffs_harness.Setup.Cffs_fs config))
    in
    Otrace.set_capacity cap;
    Otrace.set_enabled true;
    let o = Trace.replay inst.Cffs_harness.Setup.env trace in
    Otrace.set_enabled false;
    let events = Otrace.events () in
    if json then print_string (Otrace.to_json_lines ())
    else begin
      Printf.printf
        "replayed %d operations in %.3f s simulated; ring holds %d/%d \
         spans\n\n"
        (List.length trace) o.Trace.measure.Cffs_workload.Env.seconds
        (List.length events) (Otrace.capacity ());
      List.iter (fun e -> Format.printf "%a@." Otrace.pp_event e) events
    end;
    0
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the spans as JSON lines, oldest first.")
  in
  let cap =
    Arg.(value & opt int 256
         & info [ "trace-cap" ] ~docv:"N"
             ~doc:"Ring capacity: only the last N spans are kept.")
  in
  let ops =
    Arg.(value & opt int 200
         & info [ "ops" ] ~docv:"N" ~doc:"Synthetic operations to run.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a synthetic workload on the simulated testbed with span tracing \
          enabled and dump the trace ring: every VFS operation and drive \
          request with simulated start/end times and per-span device-counter \
          deltas (seek/rotation/transfer/overhead/cache-hit).")
    Term.(const run $ json $ cap $ ops $ seed $ config_arg "full")

(* ------------------------------------------------------------------ *)
(* benchdiff: the exact gate over two telemetry documents *)

let benchdiff_cmd =
  let module Benchdiff = Cffs_harness.Benchdiff in
  let run a b =
    let read path =
      match
        Cffs_obs.Json.parse (In_channel.with_open_bin path In_channel.input_all)
      with
      | Ok doc -> Ok doc
      | Error e -> Error (path ^ ": " ^ e)
    in
    match (read a, read b) with
    | Error e, _ | _, Error e ->
        prerr_endline e;
        2
    | Ok da, Ok db -> (
        match Benchdiff.diff da db with
        | r ->
            Format.printf "%a" Benchdiff.pp r;
            if Benchdiff.clean r then 0 else 1
        | exception Benchdiff.Duplicate_path p ->
            prerr_endline ("benchdiff: duplicate path " ^ p);
            2)
  in
  let a = Arg.(required & pos 0 (some file) None & info [] ~docv:"BASELINE.json") in
  let b = Arg.(required & pos 1 (some file) None & info [] ~docv:"CANDIDATE.json") in
  Cmd.v
    (Cmd.info "benchdiff"
       ~doc:
         "Compare two telemetry JSON documents (e.g. the committed \
          bench/baseline.json and a fresh 'bench/main.exe --json' run) leaf \
          for leaf and fail when any leaf differs or exists on one side \
          only.  Lists the leaves that changed by top-level section, busiest \
          first.")
    Term.(const run $ a $ b)

(* ------------------------------------------------------------------ *)
(* Stat-heavy benchmark (the namei caches' workload) *)

let statbench_cmd =
  let module Statbench = Cffs_workload.Statbench in
  let module Namei = Cffs_namei.Namei in
  let run json dirs files_per_dir repeats cache_blocks no_namei capacity policy
      entries depth (drives, vol_layout) =
    let scale =
      {
        Experiments.quick with
        Experiments.stat_dirs = dirs;
        stat_files_per_dir = files_per_dir;
        stat_repeats = repeats;
        stat_cache_blocks = cache_blocks;
      }
    in
    if json then begin
      print_endline
        (Cffs_obs.Json.to_string_pretty
           (Cffs_harness.Telemetry.statbench_document ~scale ~entries ~depth
              ~drives ~vol_layout ()));
      0
    end
    else begin
      let namei =
        if no_namei then Namei.config_disabled
        else
          { Namei.config_default with Namei.capacity; attr_capacity = capacity }
      in
      List.iter
        (fun fs ->
          let results, delta =
            Experiments.run_statbench ?policy ~entries ~depth ~drives
              ~vol_layout scale ~fs ~namei
          in
          let t =
            Cffs_util.Tablefmt.create
              ~title:
                (Printf.sprintf
                   "%s — statbench, %d dirs x %d files, namei %s, %d-block \
                    cache"
                   (Cffs_harness.Setup.fs_kind_label fs)
                   dirs files_per_dir
                   (if no_namei then "off" else "on")
                   cache_blocks)
              [
                ("phase", Cffs_util.Tablefmt.Left);
                ("ops", Cffs_util.Tablefmt.Right);
                ("seconds", Cffs_util.Tablefmt.Right);
                ("ops/s", Cffs_util.Tablefmt.Right);
                ("reads", Cffs_util.Tablefmt.Right);
                ("writes", Cffs_util.Tablefmt.Right);
              ]
          in
          List.iter
            (fun (r : Statbench.result) ->
              Cffs_util.Tablefmt.add_row t
                [
                  Statbench.phase_name r.Statbench.phase;
                  string_of_int r.Statbench.nops;
                  Cffs_util.Tablefmt.fmt_float ~decimals:3
                    r.Statbench.measure.Cffs_workload.Env.seconds;
                  Cffs_util.Tablefmt.fmt_float ~decimals:0
                    r.Statbench.ops_per_sec;
                  string_of_int r.Statbench.measure.Cffs_workload.Env.reads;
                  string_of_int r.Statbench.measure.Cffs_workload.Env.writes;
                ])
            results;
          Cffs_util.Tablefmt.print t;
          print_newline ();
          List.iter
            (fun name ->
              Printf.printf "  %-26s %d\n" name
                (Cffs_obs.Registry.get_counter delta name))
            Cffs_harness.Telemetry.namei_counter_names;
          print_newline ())
        [
          Cffs_harness.Setup.Ffs_baseline;
          Cffs_harness.Setup.Cffs_fs Cffs.config_default;
        ];
      0
    end
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the JSON telemetry document.")
  in
  let dirs =
    Arg.(value & opt int 64 & info [ "dirs" ] ~docv:"N" ~doc:"Directories.")
  in
  let files_per_dir =
    Arg.(value & opt int 16
         & info [ "files-per-dir" ] ~docv:"N" ~doc:"Files per directory.")
  in
  let repeats =
    Arg.(value & opt int 3
         & info [ "repeats" ] ~docv:"N" ~doc:"Warm stat sweeps.")
  in
  let cache_blocks =
    Arg.(value & opt int 48
         & info [ "cache-blocks" ] ~docv:"N"
             ~doc:
               "Buffer-cache size in blocks (kept below the metadata working \
                set so uncached warm resolution pays disk time).")
  in
  let no_namei =
    Arg.(value & flag
         & info [ "no-namei" ]
             ~doc:"Disable the dentry/attribute cache (table mode only).")
  in
  let capacity =
    Arg.(value & opt int 4096
         & info [ "namei-capacity" ] ~docv:"N"
             ~doc:"Dentry and attribute cache capacity (table mode only).")
  in
  let entries =
    Arg.(value & opt int 0
         & info [ "entries" ] ~docv:"N"
             ~doc:
               "Add the bigdir_cold phase: one flat directory of $(docv) \
                names, cold-stat of a 200-name sample after a remount (the \
                hashed directory index's O(1)-blocks-per-lookup claim).  0 \
                skips the phase.")
  in
  let depth =
    Arg.(value & opt int 0
         & info [ "depth" ] ~docv:"D"
             ~doc:
               "Add the deep_warm phase: repeated warm stat of one file \
                $(docv) directories down (the full-path shortcut's \
                skip-the-walk claim).  0 skips the phase.")
  in
  Cmd.v
    (Cmd.info "statbench"
       ~doc:
         "Stat-heavy benchmark: cold and warm directory listings \
          (readdir_plus) and repeated per-file stats on FFS and C-FFS, \
          exercising the dentry/attribute caches.  --json runs both file \
          systems with the caches off and on and emits the cffs-telemetry-v2 \
          document with the derived warm-stat speedup.  --drives puts every \
          instance on an N-spindle volume.")
    Term.(
      const run $ json $ dirs $ files_per_dir $ repeats $ cache_blocks
      $ no_namei $ capacity $ policy_opt_arg $ entries $ depth $ volume_arg)

(* ------------------------------------------------------------------ *)
(* Multi-client benchmark *)

let mcbench_cmd =
  let module Mclient = Cffs_workload.Mclient in
  let module Scheduler = Cffs_disk.Scheduler in
  let run json qdepth sched_str streams files file_bytes large_mb no_coalesce
      config policy seed (drives, vol_layout) =
    let sched = Scheduler.policy_of_string sched_str in
    match sched with
    | None ->
        Printf.eprintf "unknown scheduler %S; one of: fcfs, clook, sstf\n"
          sched_str;
        1
    | Some sched ->
        let params =
          {
            Mclient.default_params with
            Mclient.nstreams = streams;
            files_per_stream = files;
            file_bytes;
            large_mb;
            qdepth;
            sched;
            coalesce = not no_coalesce;
            prng_seed = seed;
          }
        in
        let inst =
          Cffs_harness.Setup.instantiate
            (Cffs_harness.Setup.standard ?policy ~drives ~vol_layout
               (Cffs_harness.Setup.Cffs_fs config))
        in
        let r =
          Mclient.run ~params
            ~cache:(Cffs_harness.Setup.cache_of inst)
            inst.Cffs_harness.Setup.env
        in
        let spindles =
          Volume.spindles inst.Cffs_harness.Setup.env.Cffs_workload.Env.dev
        in
        if json then
          print_endline
            (Cffs_obs.Json.to_string_pretty
               (if drives = 1 then Mclient.to_json r
                else
                  (* wrap only in multi-spindle mode so the single-drive
                     shape stays what scripts already parse *)
                  Cffs_obs.Json.Obj
                    [
                      ("drives", Cffs_obs.Json.Int drives);
                      ( "vol_layout",
                        Cffs_obs.Json.String (Volume.layout_name vol_layout) );
                      ("result", Mclient.to_json r);
                      ( "spindles",
                        Cffs_obs.Json.List
                          (List.map Cffs_harness.Telemetry.spindle_json
                             spindles) );
                    ]))
        else begin
          Printf.printf
            "%s — %d small-file streams (%d x %d B) + %d MB sequential, \
             qdepth %d, %s%s%s\n\n"
            r.Mclient.label streams files file_bytes large_mb qdepth
            (Mclient.sched_name sched)
            (if not no_coalesce then " + coalescing" else "")
            (if drives > 1 then
               Printf.sprintf ", %d spindles (%s)" drives
                 (Volume.layout_name vol_layout)
             else "");
          List.iter
            (fun (s : Mclient.stream_result) ->
              Printf.printf "  %-6s %6d ops %10d bytes %10.1f KB/s\n"
                s.Mclient.stream s.Mclient.ops s.Mclient.bytes
                s.Mclient.kb_per_sec)
            r.Mclient.streams;
          Printf.printf
            "\n  aggregate: small %.1f KB/s (%.1f files/s), large %.1f KB/s, \
             total %.1f KB/s in %.3f s\n"
            r.Mclient.small_kb_per_sec r.Mclient.small_files_per_sec
            r.Mclient.large_kb_per_sec r.Mclient.total_kb_per_sec
            r.Mclient.measure.Cffs_workload.Env.seconds;
          let f2 = function Some v -> Printf.sprintf "%.2f" v | None -> "n/a" in
          let f0 = function Some v -> Printf.sprintf "%.0f" v | None -> "n/a" in
          Printf.printf
            "  queue: mean depth %s (max %s), wait mean %s ms p95 %s ms, %d \
             dispatches (%d coalesced)\n"
            (f2 r.Mclient.qdepth_mean) (f0 r.Mclient.qdepth_max)
            (f2 r.Mclient.wait_mean_ms) (f2 r.Mclient.wait_p95_ms)
            r.Mclient.dispatches r.Mclient.coalesced;
          if spindles <> [] then begin
            print_newline ();
            List.iter
              (fun (s : Volume.spindle) ->
                Printf.printf
                  "  spindle %d: %6d reads %6d writes, busy %8.3f s (seek \
                   %.3f, rotation %.3f, transfer %.3f)\n"
                  s.Volume.spindle s.Volume.s_reads s.Volume.s_writes
                  s.Volume.s_busy_s s.Volume.s_seek_s s.Volume.s_rotation_s
                  s.Volume.s_transfer_s)
              spindles
          end
        end;
        0
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the result as JSON.")
  in
  let qdepth =
    Arg.(value & opt int 8
         & info [ "qdepth" ] ~docv:"N" ~doc:"Tagged-queue window (depth).")
  in
  let sched =
    Arg.(value & opt string "clook"
         & info [ "sched" ] ~docv:"POLICY"
             ~doc:"Queue scheduling policy: fcfs, clook or sstf.")
  in
  let streams =
    Arg.(value & opt int 4
         & info [ "streams" ] ~docv:"N" ~doc:"Small-file client streams.")
  in
  let files =
    Arg.(value & opt int 100
         & info [ "files" ] ~docv:"N" ~doc:"Files per stream.")
  in
  let file_bytes =
    Arg.(value & opt int 4096
         & info [ "file-bytes" ] ~docv:"B" ~doc:"Small-file size in bytes.")
  in
  let large_mb =
    Arg.(value & opt int 4
         & info [ "large-mb" ] ~docv:"MB"
             ~doc:"Large sequential stream size (0 disables it).")
  in
  let no_coalesce =
    Arg.(value & flag
         & info [ "no-coalesce" ]
             ~doc:"Disable coalescing of adjacent queued requests.")
  in
  let seed =
    Arg.(value & opt int Mclient.default_params.Mclient.prng_seed
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"PRNG seed for the stream interleaving (reproducible runs).")
  in
  Cmd.v
    (Cmd.info "mcbench"
       ~doc:
         "Multi-client benchmark on the simulated testbed: N small-file \
          streams and one large sequential stream interleaved over the \
          shared tagged device queue, reporting per-stream and aggregate \
          throughput plus queue-depth and service-time statistics.  \
          --drives N spreads the instance over N spindles (per-spindle \
          tagged queues; the A9 scaling experiment).")
    Term.(
      const run $ json $ qdepth $ sched $ streams $ files $ file_bytes
      $ large_mb $ no_coalesce $ config_arg "none" $ policy_opt_arg $ seed $ volume_arg)

(* ------------------------------------------------------------------ *)
(* Crash consistency *)

let crashtest_cmd =
  let run json seed points policy =
    let matrix =
      Option.map
        (fun p ->
          [ (Cffs_harness.Crashmc.Ffs_sel, p); (Cffs_harness.Crashmc.Cffs_sel, p) ])
        policy
    in
    if json then begin
      print_endline
        (Cffs_obs.Json.to_string_pretty
           (Cffs_harness.Crashmc.document ~seed ~points ?matrix ()));
      0
    end
    else begin
      Cffs_harness.Crashmc.print_human ~seed ~points ?matrix ();
      0
    end
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the JSON telemetry document.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Crash-point sampling seed.") in
  let points =
    Arg.(value & opt int 200 & info [ "points" ] ~docv:"K"
           ~doc:"Crash points to explore per configuration.")
  in
  Cmd.v
    (Cmd.info "crashtest"
       ~doc:
         "Crash-consistency model check: run a small-file workload on FFS and \
          C-FFS under every cache policy, sample power-cut and torn-write \
          crash points from the device journal, remount and fsck every \
          crashed image, and verify the embedded-inode integrity claim \
          (no dangling embedded entries, fsck convergence, durability of \
          synced data).  --policy restricts the matrix to one policy on \
          both file systems.")
    Term.(const run $ json $ seed $ points $ policy_opt_arg)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "C-FFS: embedded inodes and explicit grouping (USENIX '97), reproduced" in
  let info = Cmd.info "cffs" ~version:"1.0" ~doc in
  let group =
    Cmd.group info
      [
        mkfs_cmd; fsck_cmd; scrub_cmd; ls_cmd; tree_cmd; cat_cmd; put_cmd; get_cmd; mkdir_cmd;
        rm_cmd; mv_cmd; df_cmd; dump_cmd; layout_cmd; regroup_cmd; synth_trace_cmd; replay_cmd;
        trace_bench_cmd; experiment_cmd; disks_cmd; stats_cmd; trace_cmd;
        benchdiff_cmd; statbench_cmd; mcbench_cmd; crashtest_cmd;
      ]
  in
  exit (Cmd.eval' group)
