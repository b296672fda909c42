(* Crash model checker.

   Runs a deterministic create/write/delete small-file workload on a
   memory-backed device with a Faultdev journal attached, then replays
   sampled crash prefixes (plus torn-write variants of the boundary
   request) into fresh images.  Each image is remounted, fsck'd, repaired
   and re-checked (and scrubbed, when it carries an integrity layer), and
   the invariants of DESIGN.md are asserted:

   - embedded-inode directories never exhibit a dangling entry, at any
     crash point (the paper's §3.1 sector-atomicity claim);
   - fsck repair converges: the post-repair check is clean and a second
     repair fixes nothing;
   - no crashed image is unmountable;
   - every file synced before the crash point reads back intact, and a
     scrub of an integrity-formatted image loses no block.

   FFS under [Delayed] is expected to show dangling entries (that is the
   baseline the paper argues against); those are counted, not treated as
   violations — but fsck must still repair them. *)

module Blockdev = Cffs_blockdev.Blockdev
module Faultdev = Cffs_blockdev.Faultdev
module Cache = Cffs_cache.Cache
module Prng = Cffs_util.Prng
module Registry = Cffs_obs.Registry
module Json = Cffs_obs.Json
module Fs_intf = Cffs_vfs.Fs_intf
module Errno = Cffs_vfs.Errno
module Report = Cffs_fsck.Report
module Fsck_ffs = Cffs_fsck.Fsck_ffs
module Fsck_cffs = Cffs_fsck.Fsck_cffs
module Integrity = Cffs_blockdev.Integrity
module Scrub = Cffs_fsck.Scrub
module Layout = Cffs_fsck.Layout
module Regroup = Cffs_fsck.Regroup
module Env = Cffs_workload.Env
module Aging = Cffs_workload.Aging

type fs_sel = Ffs_sel | Cffs_sel

let fs_label = function Ffs_sel -> "ffs" | Cffs_sel -> "cffs"

let policy_label = Cache.policy_name
let all_policies = Cache.all_policies

type outcome = {
  fs : fs_sel;
  policy : Cache.policy;
  points : int;  (** crash images explored, torn variants included *)
  torn_points : int;
  journal_entries : int;
  dangling_states : int;  (** images whose first check found a dangling entry *)
  embedded_dangles : int;  (** of those, entries naming an embedded inode *)
  dup_states : int;
  unmountable : int;
  unconverged : int;
  unclean_states : int;
      (** images whose {e pre-repair} check was not perfectly clean —
          counted as violations only under [Journaled], whose replay must
          recover every crash prefix to a consistent state with no fsck
          help at all *)
  durability_failures : int;
  dir_errors : int;
      (** duplicate or dangling names seen by the pre-repair directory
          enumeration of the watched directory (dirindex phase only;
          always a violation) *)
  repairs : int;  (** problems repaired, summed over images *)
  durable_reads : int;  (** synced files verified, summed over images *)
  violations : string list;  (** capped at {!max_violation_notes} *)
}

let max_violation_notes = 20

(* ------------------------------------------------------------------ *)
(* Recorded workload run: the fault journal plus enough model state to
   decide, for any crash point, which files must be durable there. *)

type recorded = {
  fd : Faultdev.t;
  touches : (string * int) list;
      (* (path, journal length when the op that touched it started);
         newest first.  Recording the length *before* the op matters:
         under delayed policies the op's writes reach the journal only at
         the next sync, so the pre-op length is the earliest index any of
         its writes can occupy. *)
  syncs : (int * (string * bytes) list) list;
      (* (journal length right after a sync, files durable at it);
         newest first *)
}

let geometry = (4096, 2048) (* block size, blocks: ~8 MB, 4 groups below *)
let cg_size = 512

let exec_workload (type a) (module F : Fs_intf.S with type t = a) (fs : a) dev =
  F.sync fs;
  (* Attach after format + sync: the journal base is a clean empty fs, so
     even the zero-length crash prefix is mountable. *)
  let fd = Faultdev.attach dev in
  let prng = Prng.create 0xc0ffee in
  let model : (string, bytes) Hashtbl.t = Hashtbl.create 64 in
  let touches = ref [] and syncs = ref [] in
  let touch p = touches := (p, Faultdev.journal_length fd) :: !touches in
  let ok what = function
    | Ok v -> v
    | Error e -> failwith (Printf.sprintf "crashmc workload: %s: %s" what (Errno.to_string e))
  in
  let file d prefix i = Printf.sprintf "%s/%c%02d" d prefix i in
  let mkdir p =
    touch p;
    ok ("mkdir " ^ p) (F.mkdir fs p)
  in
  let wfile p =
    let data = Prng.bytes prng (Prng.int_in prng 200 4200) in
    touch p;
    ok ("write " ^ p) (F.write_file fs p data);
    Hashtbl.replace model p data
  in
  let del p =
    touch p;
    ok ("unlink " ^ p) (F.unlink fs p);
    Hashtbl.remove model p
  in
  let mv src dst =
    touch src;
    touch dst;
    ok ("rename " ^ src) (F.rename_path fs ~src ~dst);
    match Hashtbl.find_opt model src with
    | Some d ->
        Hashtbl.remove model src;
        Hashtbl.replace model dst d
    | None -> ()
  in
  let sync_now () =
    F.sync fs;
    let durable = Hashtbl.fold (fun p d acc -> (p, d) :: acc) model [] in
    syncs := (Faultdev.journal_length fd, durable) :: !syncs
  in
  mkdir "/d0";
  mkdir "/d1";
  sync_now ();
  for i = 0 to 17 do
    wfile (file "/d0" 'a' i)
  done;
  sync_now ();
  for i = 0 to 8 do
    del (file "/d0" 'a' i)
  done;
  for i = 0 to 11 do
    wfile (file "/d1" 'b' i)
  done;
  sync_now ();
  (* Delete-then-create epoch in one directory: /d0's dirent block goes
     dirty before the creates, which then walk into never-used inode-table
     slots.  Under FFS+Delayed the dirent block (older dirty seq) flushes
     before those table blocks — the dangling-entry window the embedded
     layout closes by construction. *)
  del (file "/d0" 'a' 9);
  for i = 0 to 13 do
    wfile (file "/d0" 'c' i)
  done;
  for i = 0 to 5 do
    if i mod 2 = 0 then del (file "/d1" 'b' i)
  done;
  mv (file "/d0" 'c' 1) (file "/d1" 'c' 1);
  sync_now ();
  Faultdev.detach fd;
  { fd; touches = !touches; syncs = !syncs }

let run_workload sel policy =
  let block_size, nblocks = geometry in
  let dev = Blockdev.memory ~block_size ~nblocks in
  match sel with
  | Ffs_sel -> exec_workload (module Ffs) (Ffs.format ~cg_size ~policy dev) dev
  | Cffs_sel -> exec_workload (module Cffs) (Cffs.format ~cg_size ~policy dev) dev

(* Files that must be readable after a crash at journal boundary [upto]:
   those captured by the newest sync at or before it, minus any path an
   op may have touched at an index the sync did not cover. *)
let durable_files rec_ ~upto =
  match List.find_opt (fun (j, _) -> j <= upto) rec_.syncs with
  | None -> []
  | Some (jsync, files) ->
      List.filter
        (fun (p, _) ->
          not (List.exists (fun (q, jb) -> String.equal q p && jb >= jsync) rec_.touches))
        files

(* ------------------------------------------------------------------ *)
(* Per-image verification. *)

type image_verdict = {
  iv_dangling : int;
  iv_embedded : int;
  iv_dups : int;
  iv_problems : int;  (** everything the pre-repair check reported *)
  iv_repaired : int;
  iv_converged : bool;
  iv_durable_checked : int;
  iv_durable_failed : string list;
  iv_scrub_lost : int option;
      (** blocks the scrub could not recover; [None] when the image
          attached no integrity layer *)
  iv_dir_errors : string list;
}

let count_dangling report =
  List.length
    (List.filter
       (function Report.Dangling_entry _ -> true | _ -> false)
       report.Report.problems)

let count_embedded_dangles sel report =
  match sel with
  | Ffs_sel -> 0
  | Cffs_sel ->
      List.length
        (List.filter
           (function
             | Report.Dangling_entry { ino; _ } -> Cffs.is_embedded_ino ino
             | _ -> false)
           report.Report.problems)

let count_dups report =
  List.length
    (List.filter
       (function Report.Block_multiply_used _ -> true | _ -> false)
       report.Report.problems)

let read_back (type a) (module F : Fs_intf.S with type t = a) (fs : a) durable =
  List.filter_map
    (fun (p, data) ->
      match F.read_file fs p with
      | Ok got when Bytes.equal got data -> None
      | Ok _ -> Some (p ^ ": content mismatch")
      | Error e -> Some (p ^ ": " ^ Errno.to_string e))
    durable

(* Pre-repair enumeration of one directory: every name must be unique and
   every named inode must answer a stat — the split protocol's promise
   that no crash prefix dangles or duplicates an entry. *)
let enumerate_dir t path =
  match Cffs.list_dir t path with
  | Error e -> [ Printf.sprintf "readdir %s: %s" path (Errno.to_string e) ]
  | Ok names ->
      let seen = Hashtbl.create 97 in
      let errs = ref [] in
      List.iter
        (fun n ->
          if Hashtbl.mem seen n then
            errs := Printf.sprintf "duplicate entry %s/%s" path n :: !errs
          else Hashtbl.add seen n ();
          match Cffs.stat t (path ^ "/" ^ n) with
          | Ok _ -> ()
          | Error e ->
              errs :=
                Printf.sprintf "entry %s/%s dangles: stat %s" path n
                  (Errno.to_string e)
                :: !errs)
        names;
      List.rev !errs

let verify_image ?dircheck sel rec_ ~upto ~tear =
  let dev =
    match tear with
    | None -> Faultdev.materialize rec_.fd ~upto
    | Some k -> Faultdev.materialize ~tear:k rec_.fd ~upto
  in
  let mounted =
    match sel with
    | Ffs_sel -> (
        match Ffs.mount dev with
        | None -> None
        | Some t ->
            Some
              ( (fun () -> Fsck_ffs.check t),
                (fun () -> Fsck_ffs.repair t),
                (fun () -> None),
                (fun durable -> read_back (module Ffs) t durable),
                fun () -> [] ))
    | Cffs_sel -> (
        match Cffs.mount dev with
        | None -> None
        | Some t ->
            Some
              ( (fun () -> Fsck_cffs.check t),
                (fun () -> Fsck_cffs.repair t),
                (* An image with an integrity layer is scrubbed; one
                   without answers [None], and the sweep decides whether
                   that is a violation. *)
                (fun () ->
                  Option.map (fun r -> r.Scrub.lost) (Scrub.run_to_completion t)),
                (fun durable -> read_back (module Cffs) t durable),
                fun () ->
                  match dircheck with
                  | None -> []
                  | Some path -> enumerate_dir t path ))
  in
  match mounted with
  | None -> Error `Unmountable
  | Some (check, repair, scrub, read_durable, dir_enumerate) ->
      let dir_errors = dir_enumerate () in
      let pre = check () in
      let scrub_lost = scrub () in
      let r1 = repair () in
      let post = check () in
      let r2 = repair () in
      let converged = Report.is_clean post && r2.Report.repaired = 0 in
      let durable = durable_files rec_ ~upto in
      let failed = read_durable durable in
      Ok
        {
          iv_dangling = count_dangling pre;
          iv_embedded = count_embedded_dangles sel pre;
          iv_dups = count_dups pre;
          iv_problems = List.length pre.Report.problems;
          iv_repaired = r1.Report.repaired;
          iv_converged = converged;
          iv_durable_checked = List.length durable;
          iv_durable_failed = failed;
          iv_scrub_lost = scrub_lost;
          iv_dir_errors = dir_errors;
        }

(* ------------------------------------------------------------------ *)
(* Crash-point sampling and the per-configuration run. *)

let point_name ~upto ~tear =
  match tear with
  | None -> Printf.sprintf "point %d" upto
  | Some k -> Printf.sprintf "point %d (torn, %d sectors kept)" upto k

(* Sample crash boundaries (plus torn variants) out of a recorded run and
   verify every sampled image.  Every phase goes through here. *)
let verify_sweep ?dircheck ~prng ~points sel policy rec_ =
  let total = Faultdev.journal_length rec_.fd in
  (* The base image decides whether the volume carries an integrity
     layer; if it does, every crash image must attach one too (a torn
     remap-table write must leave one map copy decodable). *)
  let integrity =
    sel = Cffs_sel
    && Option.is_some (Integrity.attach (Faultdev.materialize rec_.fd ~upto:0))
  in
  let entries = Array.of_list (Faultdev.journal rec_.fd) in
  let boundaries = Array.init (total + 1) Fun.id in
  Prng.shuffle prng boundaries;
  let budget = max 1 points in
  let chosen =
    Array.sub boundaries 0 (min budget (total + 1)) |> Array.to_list |> List.sort compare
  in
  (* Torn variants of multi-sector boundary requests, on top of the
     boundary samples but inside the same overall budget. *)
  let torn_budget = max 1 (budget / 4) in
  let torn =
    List.filter_map
      (fun upto ->
        if upto >= total then None
        else
          let sectors = Faultdev.entry_sectors rec_.fd entries.(upto) in
          if sectors <= 1 then None
          else Some (upto, 1 + Prng.int prng (sectors - 1)))
      chosen
  in
  let torn = List.filteri (fun i _ -> i < torn_budget) torn in
  let images =
    List.map (fun upto -> (upto, None)) chosen
    @ List.map (fun (upto, k) -> (upto, Some k)) torn
  in
  let dangling_states = ref 0
  and embedded = ref 0
  and dup_states = ref 0
  and unmountable = ref 0
  and unconverged = ref 0
  and unclean = ref 0
  and dur_failures = ref 0
  and dir_errors = ref 0
  and repairs = ref 0
  and durable_reads = ref 0
  and violations = ref [] in
  let violate msg =
    if List.length !violations < max_violation_notes then
      violations := msg :: !violations
  in
  List.iter
    (fun (upto, tear) ->
      let where = point_name ~upto ~tear in
      match verify_image ?dircheck sel rec_ ~upto ~tear with
      | exception e ->
          incr unconverged;
          violate (Printf.sprintf "%s: fsck raised %s" where (Printexc.to_string e))
      | Error `Unmountable ->
          incr unmountable;
          violate (where ^ ": crashed image failed to mount")
      | Ok v ->
          if v.iv_dangling > 0 then incr dangling_states;
          if v.iv_embedded > 0 then begin
            embedded := !embedded + v.iv_embedded;
            violate
              (Printf.sprintf "%s: %d dangling entr%s named an embedded inode" where
                 v.iv_embedded
                 (if v.iv_embedded = 1 then "y" else "ies"))
          end;
          if v.iv_dups > 0 then incr dup_states;
          (* The journal's contract is stronger than "fsck can repair it":
             replay alone must land every crash prefix on a consistent
             state, so under [Journaled] any pre-repair finding at all is a
             violation. *)
          if v.iv_problems > 0 then begin
            incr unclean;
            if policy = Cache.Journaled then
              violate
                (Printf.sprintf
                   "%s: replayed image not clean (%d problem(s) before repair)"
                   where v.iv_problems)
          end;
          repairs := !repairs + v.iv_repaired;
          if not v.iv_converged then begin
            incr unconverged;
            violate (where ^ ": fsck repair did not converge")
          end;
          durable_reads := !durable_reads + v.iv_durable_checked;
          List.iter
            (fun msg ->
              incr dur_failures;
              violate (Printf.sprintf "%s: synced file lost (%s)" where msg))
            v.iv_durable_failed;
          (match v.iv_scrub_lost with
          | Some lost when lost > 0 ->
              incr dur_failures;
              violate (Printf.sprintf "%s: scrub lost %d blocks" where lost)
          | None when integrity ->
              incr dur_failures;
              violate (where ^ ": no integrity layer after replay")
          | Some _ | None -> ());
          List.iter
            (fun msg ->
              incr dir_errors;
              violate (Printf.sprintf "%s: %s" where msg))
            v.iv_dir_errors)
    images;
  {
    fs = sel;
    policy;
    points = List.length images;
    torn_points = List.length torn;
    journal_entries = total;
    dangling_states = !dangling_states;
    embedded_dangles = !embedded;
    dup_states = !dup_states;
    unmountable = !unmountable;
    unconverged = !unconverged;
    unclean_states = !unclean;
    durability_failures = !dur_failures;
    dir_errors = !dir_errors;
    repairs = !repairs;
    durable_reads = !durable_reads;
    violations = List.rev !violations;
  }

let run_config ?(seed = 1) ?(points = 200) sel policy =
  let rec_ = run_workload sel policy in
  let prng = Prng.create (seed lxor Hashtbl.hash (fs_label sel, policy_label policy)) in
  verify_sweep ~prng ~points sel policy rec_

(* ------------------------------------------------------------------ *)
(* Regroup phase: crash at every sampled request boundary *while an
   online regroup pass compacts an aged image*.  Every file on the image
   was written and synced before the pass started, so at every crash
   prefix the durable set is the whole tree: the copy-forward-then-switch
   protocol must leave each file wholly old or wholly new, byte-identical
   either way.  The cursor file the pass maintains is not part of the
   contract and is excluded (it did not exist at snapshot time).  The
   [Journaled] volume carries an integrity layer, so each of its images
   is also replayed into the checksum region and scrubbed. *)

let snapshot_tree fs =
  let rec go acc path =
    match Cffs.list_dir fs path with
    | Error _ -> acc
    | Ok names ->
        List.fold_left
          (fun acc name ->
            let child = if path = "/" then "/" ^ name else path ^ "/" ^ name in
            match Cffs.stat fs child with
            | Ok st when st.Fs_intf.st_kind = Cffs_vfs.Inode.Directory ->
                go acc child
            | Ok _ -> (
                match Cffs.read_file fs child with
                | Ok data -> (child, data) :: acc
                | Error _ -> acc)
            | Error _ -> acc)
          acc (List.sort compare names)
  in
  go [] "/"

let run_regroup ?(seed = 1) ?(points = 200) policy =
  let block_size, nblocks = geometry in
  let dev = Blockdev.memory ~block_size ~nblocks in
  let integrity = policy = Cache.Journaled in
  let fs = Cffs.format ~cg_size ~integrity ~policy dev in
  let env = Env.make ~cpu_per_op:0.0 (Fs_intf.Packed ((module Cffs), fs)) dev in
  let spec =
    { (Aging.default_spec 0.8) with Aging.operations = 2500; Aging.dirs = 5 }
  in
  let (_ : Aging.outcome) = Aging.run env spec in
  Cffs.sync fs;
  let snapshot = snapshot_tree fs in
  let residency_before = (Layout.cffs_report fs).Layout.group_residency in
  (* Attach after the final sync: the journal base holds every file, so
     even the zero-length prefix must read the whole tree back. *)
  let fd = Faultdev.attach dev in
  let o =
    Regroup.run ~spec:{ Regroup.default_spec with Regroup.measure = false } fs
  in
  Faultdev.detach fd;
  (* Sanity of the scenario itself (deterministic given the aging spec):
     a pass that moved nothing would make the crash sweep vacuous, and a
     pass that moved files without raising residency is a regrouper bug. *)
  if o.Regroup.moved = 0 then
    failwith "crashmc regroup: the pass moved nothing - aging spec too tame";
  let residency_after = (Layout.cffs_report fs).Layout.group_residency in
  if residency_after <= residency_before then
    failwith
      (Printf.sprintf "crashmc regroup: residency did not improve (%.3f -> %.3f)"
         residency_before residency_after);
  let rec_ = { fd; touches = []; syncs = [ (0, snapshot) ] } in
  let prng = Prng.create (seed lxor Hashtbl.hash ("regroup", policy_label policy)) in
  verify_sweep ~prng ~points Cffs_sel policy rec_

(* ------------------------------------------------------------------ *)
(* Dirindex phase: crash at every sampled request boundary *while a
   create burst splits the leaves of an indexed directory*.  The split
   protocol (new leaf before table switch before old-leaf cleanup, the
   depth word sector-atomic in the root's last sector) promises that no
   crash prefix dangles, duplicates or loses an entry: every image must
   enumerate the directory duplicate-free with every listed name
   answering a stat, every pre-burst file must read back, the image must
   mount, and fsck must converge.  [Delayed] is excluded: it makes no
   intra-op ordering promise, so a table pointer may legitimately land
   before the leaf it names. *)

let dirindex_matrix = [ Cache.Sync_metadata; Cache.Soft_updates; Cache.Journaled ]

let run_dirindex ?(seed = 1) ?(points = 200) policy =
  let block_size, nblocks = geometry in
  let dev = Blockdev.memory ~block_size ~nblocks in
  (* A low promotion threshold (4 linear pages) keeps the directory small
     enough for a memory-backed sweep while still promoting and then
     splitting leaves during the burst. *)
  let config = { Cffs.config_default with Cffs.dirindex_threshold = 4 } in
  let fs = Cffs.format ~cg_size ~config ~policy dev in
  let ok what = function
    | Ok v -> v
    | Error e ->
        failwith
          (Printf.sprintf "crashmc dirindex: %s: %s" what (Errno.to_string e))
  in
  let name i = Printf.sprintf "/big/x%04d" i in
  let payload i = Bytes.make (40 + (i mod 160)) (Char.chr (97 + (i mod 26))) in
  let pre_burst = 150 and burst = 240 in
  ok "mkdir" (Cffs.mkdir fs "/big");
  let before = Registry.snapshot () in
  for i = 0 to pre_burst - 1 do
    ok (name i) (Cffs.write_file fs (name i) (payload i))
  done;
  Cffs.sync fs;
  let d = Registry.diff (Registry.snapshot ()) before in
  if Registry.get_counter d "dirindex.promotions" = 0 then
    failwith "crashmc dirindex: directory never promoted - threshold too high";
  let snapshot = List.init pre_burst (fun i -> (name i, payload i)) in
  (* Attach after the sync: the journal base holds the promoted directory
     with every pre-burst file durable, so even the zero-length prefix
     must read them all back. *)
  let fd = Faultdev.attach dev in
  let before = Registry.snapshot () in
  for i = pre_burst to pre_burst + burst - 1 do
    ok (name i) (Cffs.write_file fs (name i) (payload i))
  done;
  Cffs.sync fs;
  let d = Registry.diff (Registry.snapshot ()) before in
  if Registry.get_counter d "dirindex.leaf_splits" = 0 then
    failwith "crashmc dirindex: the burst forced no leaf splits - vacuous sweep";
  Faultdev.detach fd;
  let all =
    List.init (pre_burst + burst) (fun i -> (name i, payload i))
  in
  let rec_ =
    {
      fd;
      touches = [];
      syncs = [ (Faultdev.journal_length fd, all); (0, snapshot) ];
    }
  in
  let prng = Prng.create (seed lxor Hashtbl.hash ("dirindex", policy_label policy)) in
  verify_sweep ~dircheck:"/big" ~prng ~points Cffs_sel policy rec_

(* Switch phase: crash at every sampled request boundary of the one
   operation that promotes a linear directory to the index, or of the
   unlink that demotes it back.  Both rebuild the directory into fresh
   pages, switch the inode in one sector-atomic write and only then free
   the old blocks, so every prefix must enumerate the pre-operation name
   set or the post-operation one.  Which unlink demotes depends on the
   hash layout, so a dry run on a scratch device finds it first. *)

let run_dirindex_switch ?(seed = 1) ?(points = 200) switch policy =
  let block_size, nblocks = geometry in
  let config = { Cffs.config_default with Cffs.dirindex_threshold = 4 } in
  let ok what = function
    | Ok v -> v
    | Error e ->
        failwith
          (Printf.sprintf "crashmc dirindex switch: %s: %s" what (Errno.to_string e))
  in
  let name i = Printf.sprintf "/sw/y%03d" i in
  let payload i = Bytes.make (60 + (i mod 140)) (Char.chr (97 + (i mod 26))) in
  (* 64 entries fill the 4 linear pages; the 65th create promotes. *)
  let linear = 64 and total = 96 in
  let files l = List.map (fun i -> (name i, payload i)) l in
  let range a b = List.init (b - a) (fun i -> a + i) in
  let setup upto =
    let dev = Blockdev.memory ~block_size ~nblocks in
    let fs = Cffs.format ~cg_size ~config ~policy dev in
    ok "mkdir" (Cffs.mkdir fs "/sw");
    List.iter (fun i -> ok (name i) (Cffs.write_file fs (name i) (payload i))) (range 0 upto);
    Cffs.sync fs;
    (dev, fs)
  in
  let demotions () = Registry.get_counter (Registry.snapshot ()) "dirindex.demotions" in
  (* Run [op] with the journal attached after a sync; [counter] must move. *)
  let record dev fs counter op =
    let fd = Faultdev.attach dev in
    let before = Registry.snapshot () in
    op ();
    Cffs.sync fs;
    if Registry.get_counter (Registry.diff (Registry.snapshot ()) before) counter = 0
    then failwith ("crashmc dirindex switch: " ^ counter ^ " did not move - vacuous sweep");
    Faultdev.detach fd;
    fd
  in
  let rec_ =
    match switch with
    | `Promote ->
        let dev, fs = setup linear in
        let fd =
          record dev fs "dirindex.promotions" (fun () ->
              ok (name linear) (Cffs.write_file fs (name linear) (payload linear)))
        in
        {
          fd;
          touches = [ (name linear, 0) ];
          syncs =
            [
              (Faultdev.journal_length fd, files (range 0 (linear + 1)));
              (0, files (range 0 linear));
            ];
        }
    | `Demote ->
        let unlink fs i = ok ("unlink " ^ name i) (Cffs.unlink fs (name i)) in
        (* The dry run: the index of the first unlink that demotes. *)
        let _, fs = setup total in
        let rec first_demoting i =
          if i >= total then failwith "crashmc dirindex switch: no unlink demoted"
          else begin
            let d0 = demotions () in
            unlink fs i;
            if demotions () > d0 then i else first_demoting (i + 1)
          end
        in
        let k = first_demoting 0 in
        let dev, fs = setup total in
        List.iter (unlink fs) (range 0 k);
        Cffs.sync fs;
        let fd = record dev fs "dirindex.demotions" (fun () -> unlink fs k) in
        {
          fd;
          touches = [ (name k, 0) ];
          syncs =
            [
              (Faultdev.journal_length fd, files (range (k + 1) total));
              (0, files (range k total));
            ];
        }
  in
  let label = match switch with `Promote -> "promote" | `Demote -> "demote" in
  let prng = Prng.create (seed lxor Hashtbl.hash (label, policy_label policy)) in
  verify_sweep ~dircheck:"/sw" ~prng ~points Cffs_sel policy rec_

(* ------------------------------------------------------------------ *)
(* Checkpoint phase: crash at every sampled request boundary of a journal
   checkpoint and the transaction after it.  An integrity-formatted,
   journaled volume acknowledges a batch of files (every fifth unlinked
   again, so the transaction carries frees); the recording then covers
   the checkpoint (home writes of the committed images, the tag-region
   flush, the log reset) and a create-only second batch, whose sync is the
   journal append and its commit record.  Torn variants cut through the
   middle of both.  Every first-batch file must read back at every
   prefix, the second batch once its sync is on the media.  One fixed
   seed draws the file contents and then the 200 sampled crash points. *)

let run_checkpoint () =
  (* The 16 MB volume in default-sized groups that [Soak.run] formats. *)
  let dev = Blockdev.memory ~block_size:4096 ~nblocks:4096 in
  let policy = Cache.Journaled in
  let fs = Cffs.format ~integrity:true ~policy dev in
  let ok what = function
    | Ok v -> v
    | Error e ->
        failwith
          (Printf.sprintf "crashmc checkpoint: %s: %s" what (Errno.to_string e))
  in
  let prng = Prng.create 7 in
  let write_files prefix n =
    let files = ref [] in
    for i = 0 to n - 1 do
      let path = Printf.sprintf "/%s_f%03d" prefix i in
      let data = Prng.bytes prng 2048 in
      ok path (Cffs.write_file fs path data);
      files := (path, data) :: !files
    done;
    List.rev !files
  in
  let phase1 = write_files "p1" 24 in
  List.iteri
    (fun i (path, _) -> if i mod 5 = 4 then ok ("unlink " ^ path) (Cffs.unlink fs path))
    phase1;
  let phase1 = List.filteri (fun i _ -> i mod 5 <> 4) phase1 in
  Cffs.sync fs;
  (* Attach after the sync: the journal base holds every phase-1 file, so
     even the zero-length prefix must read them all back. *)
  let fd = Faultdev.attach dev in
  Cache.checkpoint (Cffs.cache fs);
  let phase2 = write_files "p2" 12 in
  Cffs.sync fs;
  Faultdev.detach fd;
  let rec_ =
    {
      fd;
      touches = [];
      syncs = [ (Faultdev.journal_length fd, phase1 @ phase2); (0, phase1) ];
    }
  in
  verify_sweep ~prng ~points:200 Cffs_sel policy rec_

let default_matrix =
  List.concat_map (fun sel -> List.map (fun p -> (sel, p)) all_policies)
    [ Ffs_sel; Cffs_sel ]

let run ?(seed = 1) ?(points = 200) ?(matrix = default_matrix) () =
  List.map (fun (sel, policy) -> run_config ~seed ~points sel policy) matrix

(* ------------------------------------------------------------------ *)
(* A short fault drill through the live error path, so the telemetry
   document also carries non-zero retry / io-error counters: a mounted fs
   reads through a Faultdev with a high transient rate, then trips over a
   sticky bad sector. *)

let fault_drill () =
  let block_size, nblocks = geometry in
  let dev = Blockdev.memory ~block_size ~nblocks in
  let t = Cffs.format ~cg_size dev in
  (match Cffs.write_file t "/drill" (Bytes.make 9000 'x') with
  | Ok () -> ()
  | Error e -> failwith ("crashmc drill: write: " ^ Errno.to_string e));
  Cffs.sync t;
  let fd = Faultdev.attach dev in
  Faultdev.set_transient_read_rate fd 0.35;
  (* Retry exhaustion (all attempts transiently failing) is possible and
     fine for the drill — counters still advance. *)
  (try
     match Cffs.mount dev with
     | None -> ()
     | Some t2 ->
         for _ = 1 to 10 do
           try
             Cffs.remount t2;
             (* drop the cache so reads really hit the device *)
             ignore (Cffs.read_file t2 "/drill")
           with Cffs_util.Io_error.E _ -> ()
         done
   with Cffs_util.Io_error.E _ -> ());
  Faultdev.set_transient_read_rate fd 0.0;
  Faultdev.mark_bad fd (Blockdev.nblocks dev - 1);
  (match Blockdev.read dev (Blockdev.nblocks dev - 1) 1 with
  | (_ : bytes) -> ()
  | exception Cffs_util.Io_error.E _ -> ());
  Faultdev.detach fd

(* ------------------------------------------------------------------ *)
(* Telemetry document. *)

let outcome_to_json o =
  Json.Obj
    [
      ("fs", Json.String (fs_label o.fs));
      ("policy", Json.String (policy_label o.policy));
      ("points", Json.Int o.points);
      ("torn_points", Json.Int o.torn_points);
      ("journal_entries", Json.Int o.journal_entries);
      ("dangling_states", Json.Int o.dangling_states);
      ("embedded_dangles", Json.Int o.embedded_dangles);
      ("dup_states", Json.Int o.dup_states);
      ("unmountable", Json.Int o.unmountable);
      ("unconverged", Json.Int o.unconverged);
      ("unclean_states", Json.Int o.unclean_states);
      ("durability_failures", Json.Int o.durability_failures);
      ("dir_errors", Json.Int o.dir_errors);
      ("repairs", Json.Int o.repairs);
      ("durable_reads", Json.Int o.durable_reads);
      ("violations", Json.List (List.map (fun s -> Json.String s) o.violations));
    ]

let outcome_violations o =
  o.embedded_dangles + o.unmountable + o.unconverged + o.durability_failures
  + o.dir_errors
  + (if o.policy = Cache.Journaled then o.unclean_states else 0)

let total_violations outcomes =
  List.fold_left (fun acc o -> acc + outcome_violations o) 0 outcomes

(* The policies whose regroup phase the document and the human report
   carry: the journaled transaction path and the strictest sync-ordered
   path.  (The others share the sync-ordered barrier discipline.) *)
let regroup_matrix = [ Cache.Journaled; Cache.Sync_metadata ]

(* Every phase the document and the human report carry, run in this
   order: (document key, row label, outcomes).  The matrix rows are
   labelled by their file system. *)
let run_phases ~seed ~points ?matrix () =
  let configs = run ~seed ~points ?matrix () in
  let regroup = List.map (fun p -> run_regroup ~seed ~points p) regroup_matrix in
  let dirindex = List.map (fun p -> run_dirindex ~seed ~points p) dirindex_matrix in
  [
    ("configs", None, configs);
    ("regroup", Some "regroup", regroup);
    ("dirindex", Some "dirindex", dirindex);
  ]

let phase_outcomes phases = List.concat_map (fun (_, _, os) -> os) phases

let document ?(seed = 1) ?(points = 200) ?matrix () =
  let before = Registry.snapshot () in
  let phases = run_phases ~seed ~points ?matrix () in
  fault_drill ();
  let delta = Registry.diff (Registry.snapshot ()) before in
  let _ops, counters = Telemetry.split_delta delta in
  Json.Obj
    ([
       ("schema", Json.String "cffs-telemetry-v2");
       ("benchmark", Json.String "crashtest");
       ("seed", Json.Int seed);
       ("points", Json.Int points);
     ]
    @ List.map
        (fun (key, _, os) -> (key, Json.List (List.map outcome_to_json os)))
        phases
    @ [
        ("total_violations", Json.Int (total_violations (phase_outcomes phases)));
        ("counters", Json.Obj counters);
      ])

let print_row label o =
  Printf.printf "%-8s %-14s %7d %5d %9d %9d %7d %7d %8d %5d\n"
    (match label with Some l -> l | None -> fs_label o.fs)
    (policy_label o.policy) o.points o.torn_points o.dangling_states
    o.embedded_dangles o.unconverged o.unclean_states o.durability_failures
    (outcome_violations o)

let print_human ?(seed = 1) ?(points = 200) ?matrix () =
  let phases = run_phases ~seed ~points ?matrix () in
  Printf.printf "crash-consistency check: seed %d, up to %d points per config\n\n"
    seed points;
  Printf.printf "%-8s %-14s %7s %5s %9s %9s %7s %7s %8s %5s\n" "fs" "policy"
    "points" "torn" "dangling" "embedded" "unconv" "unclean" "dur-fail" "viol";
  List.iter (fun (_, label, os) -> List.iter (print_row label) os) phases;
  let outcomes = phase_outcomes phases in
  let bad = total_violations outcomes in
  Printf.printf "\n%s\n"
    (if bad = 0 then "no invariant violations"
     else Printf.sprintf "%d invariant violation(s)" bad);
  List.iter
    (fun o ->
      List.iter
        (fun v ->
          Printf.printf "  [%s/%s] %s\n" (fs_label o.fs) (policy_label o.policy) v)
        o.violations)
    outcomes;
  if bad <> 0 then exit 1
