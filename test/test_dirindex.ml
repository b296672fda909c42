(* Hashed-directory-index suite: the @dirindex alias.

   The tentpole claims under test (DESIGN.md §17):

   - a leaf split preserves the exact entry set (QCheck, random name
     sets driven past promotion and many splits);
   - hash-collision buckets stay correct: names mined to share their
     low hash bits pile into one bucket, force overflow chains at
     promotion, and must all remain reachable;
   - promotion is reversible: grow past the threshold, unlink back to
     empty, rmdir — and fsck agrees at both ends;
   - readdir enumeration always equals an in-memory oracle set under
     random create/unlink interleave, before and after a remount;
   - fsck, layout, regroup and scrub all handle indexed images;
   - the Crashmc dirindex phases: a power cut at every sampled prefix of
     a leaf-splitting create burst, of the create that promotes a
     directory or of the unlink that demotes it may neither dangle nor
     duplicate an entry (Sync_metadata, Soft_updates, Journaled). *)

module Blockdev = Cffs_blockdev.Blockdev
module Cache = Cffs_cache.Cache
module Errno = Cffs_vfs.Errno
module Prng = Cffs_util.Prng
module Registry = Cffs_obs.Registry
module Crashmc = Cffs_harness.Crashmc
module Fsck = Cffs_fsck.Fsck_cffs
module Report = Cffs_fsck.Report
module Layout = Cffs_fsck.Layout
module Regroup = Cffs_fsck.Regroup
module Scrub = Cffs_fsck.Scrub

let check = Alcotest.check

let dev ?(nblocks = 6144) () = Blockdev.memory ~block_size:4096 ~nblocks

(* A low promotion threshold (4 linear pages = 64 entries at 4 KB) keeps
   every scenario cheap while still crossing promotion and splits. *)
let config = { Cffs.config_default with Cffs.dirindex_threshold = 4 }

let mkfs ?(policy = Cache.Sync_metadata) () =
  Cffs.format ~config ~policy (dev ())

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Errno.to_string e)

let sorted l = List.sort compare l

let listing fs path = sorted (ok ("list " ^ path) (Cffs.list_dir fs path))

let counter_delta before name =
  Registry.get_counter (Registry.diff (Registry.snapshot ()) before) name

module S = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* QCheck: splits preserve the exact entry set. *)

let distinct_names prng n =
  (* Random-looking but index-distinct names, so hashing is realistic
     and the set is exact by construction. *)
  List.init n (fun i -> Printf.sprintf "n%05d-%06x" i (Prng.int prng 0xffffff))

let prop_split_preserves_set seed =
  let prng = Prng.create (0x5117 + seed) in
  (* Floor comfortably past the 4-page promotion boundary. *)
  let n = 90 + (seed mod 150) in
  let names = distinct_names prng n in
  let fs = mkfs () in
  let before = Registry.snapshot () in
  ok "mkdir" (Cffs.mkdir fs "/d");
  List.iter (fun name -> ok name (Cffs.create fs ("/d/" ^ name))) names;
  if counter_delta before "dirindex.promotions" = 0 then
    QCheck.Test.fail_reportf "n=%d never promoted" n;
  let expect = sorted names in
  if listing fs "/d" <> expect then
    QCheck.Test.fail_reportf "n=%d: enumeration lost or duplicated entries" n;
  List.iter
    (fun name ->
      let (_ : Cffs_vfs.Fs_intf.stat) =
        ok ("lookup " ^ name) (Cffs.stat fs ("/d/" ^ name))
      in
      ())
    names;
  Cffs.sync fs;
  Cffs.remount fs;
  if listing fs "/d" <> expect then
    QCheck.Test.fail_reportf "n=%d: enumeration differs after remount" n;
  true

(* QCheck: readdir enumeration equals an oracle set under random
   create/unlink interleave across the promotion threshold. *)

let prop_oracle_set ops =
  let fs = mkfs () in
  ok "mkdir" (Cffs.mkdir fs "/d");
  let oracle = ref S.empty in
  List.iter
    (fun (tag, k) ->
      let name = Printf.sprintf "f%03d" (k mod 120) in
      let path = "/d/" ^ name in
      match tag mod 3 with
      | 0 | 1 ->
          (* create; EEXIST must agree with the oracle *)
          let r = Cffs.create fs path in
          if S.mem name !oracle then (
            if r = Ok () then
              QCheck.Test.fail_reportf "create %s: fs Ok, oracle EEXIST" name)
          else (
            ok ("create " ^ name) r;
            oracle := S.add name !oracle)
      | _ ->
          let r = Cffs.unlink fs path in
          if S.mem name !oracle then (
            ok ("unlink " ^ name) r;
            oracle := S.remove name !oracle)
          else if r = Ok () then
            QCheck.Test.fail_reportf "unlink %s: fs Ok, oracle ENOENT" name)
    ops;
  let expect = S.elements !oracle in
  if listing fs "/d" <> expect then
    QCheck.Test.fail_reportf "enumeration differs from oracle (%d live)"
      (List.length expect);
  Cffs.sync fs;
  Cffs.remount fs;
  if listing fs "/d" <> expect then
    QCheck.Test.fail_reportf "enumeration differs from oracle after remount";
  true

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:8 ~name:"dirindex: split preserves entry set"
         QCheck.small_nat prop_split_preserves_set);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:12 ~name:"dirindex: enumeration = oracle set"
         QCheck.(list_of_size (Gen.int_range 150 400) (pair small_nat small_nat))
         prop_oracle_set);
  ]

(* ------------------------------------------------------------------ *)
(* Collision buckets: mine names sharing their low hash bits.  At
   promotion they all land in one bucket, overflowing its leaf into a
   chain; every one must stay reachable, enumeration exact, fsck clean. *)

let mine_collisions ~share_bits ~want =
  let mask = (1 lsl share_bits) - 1 in
  let target = Cffs.dir_hash "collide-me" land mask in
  let rec go i acc =
    if List.length acc >= want then List.rev acc
    else
      let name = Printf.sprintf "c%07d" i in
      if Cffs.dir_hash name land mask = target then go (i + 1) (name :: acc)
      else go (i + 1) acc
  in
  go 0 []

let test_collision_chains () =
  (* 40 names sharing their low 8 bits: same bucket at any depth <= 8,
     far past a leaf's 15-entry capacity. *)
  let colliders = mine_collisions ~share_bits:8 ~want:40 in
  let fillers = List.init 40 (fun i -> Printf.sprintf "fill%04d" i) in
  let fs = mkfs () in
  let before = Registry.snapshot () in
  ok "mkdir" (Cffs.mkdir fs "/d");
  (* All colliders while still linear, then fillers to push the page
     count past the threshold: promotion must bucket 40 same-slot names
     into a chained leaf run. *)
  List.iter (fun n -> ok n (Cffs.create fs ("/d/" ^ n))) colliders;
  List.iter (fun n -> ok n (Cffs.create fs ("/d/" ^ n))) fillers;
  check Alcotest.bool "promoted" true
    (counter_delta before "dirindex.promotions" > 0);
  check Alcotest.bool "chained" true
    (counter_delta before "dirindex.overflow_chains" > 0);
  let lookup n =
    let (_ : Cffs_vfs.Fs_intf.stat) =
      ok ("lookup " ^ n) (Cffs.stat fs ("/d/" ^ n))
    in
    ()
  in
  List.iter lookup (colliders @ fillers);
  check (Alcotest.list Alcotest.string) "enumeration exact"
    (sorted (colliders @ fillers))
    (listing fs "/d");
  (* Keep pounding the same bucket: inserts into a chained bucket extend
     the chain and must stay correct. *)
  let more = mine_collisions ~share_bits:8 ~want:60 in
  let fresh = List.filter (fun n -> not (List.mem n colliders)) more in
  List.iter (fun n -> ok n (Cffs.create fs ("/d/" ^ n))) fresh;
  List.iter lookup fresh;
  check (Alcotest.list Alcotest.string) "enumeration exact after growth"
    (sorted (colliders @ fillers @ fresh))
    (listing fs "/d");
  Cffs.sync fs;
  let report = Fsck.check fs in
  check Alcotest.bool "fsck clean over chained image" true
    (Report.is_clean report);
  (* Unlink every collider: the chain drains without losing the rest. *)
  List.iter
    (fun n -> ok ("unlink " ^ n) (Cffs.unlink fs ("/d/" ^ n)))
    (colliders @ fresh);
  check (Alcotest.list Alcotest.string) "fillers survive chain drain"
    (sorted fillers) (listing fs "/d")

(* ------------------------------------------------------------------ *)
(* Promotion roundtrip: grow past the threshold, unlink back down to
   empty, rmdir.  fsck must be clean at the top and after the collapse,
   and the index census must agree. *)

let test_promotion_roundtrip () =
  let fs = mkfs () in
  let names = List.init 150 (fun i -> Printf.sprintf "r%04d" i) in
  let payload i = Bytes.make (64 + (29 * i mod 500)) (Char.chr (65 + (i mod 26))) in
  ok "mkdir" (Cffs.mkdir fs "/d");
  List.iteri
    (fun i n -> ok n (Cffs.write_file fs ("/d/" ^ n) (payload i)))
    names;
  Cffs.sync fs;
  let stats = Cffs.index_stats fs in
  check Alcotest.bool "one indexed dir" true (stats.Cffs.idx_dirs = 1);
  check Alcotest.bool "index occupies blocks" true (stats.Cffs.idx_blocks > 0);
  check Alcotest.bool "leaf fill sane" true
    (stats.Cffs.idx_leaf_fill > 0.0 && stats.Cffs.idx_leaf_fill <= 1.0);
  check Alcotest.bool "fsck clean at the top" true
    (Report.is_clean (Fsck.check fs));
  (* Contents survive the indexed format (spot-check through a remount). *)
  Cffs.remount fs;
  List.iteri
    (fun i n ->
      if i mod 17 = 0 then
        let got = ok ("read " ^ n) (Cffs.read_file fs ("/d/" ^ n)) in
        if not (Bytes.equal got (payload i)) then
          Alcotest.failf "%s: content changed under the index" n)
    names;
  List.iter (fun n -> ok ("unlink " ^ n) (Cffs.unlink fs ("/d/" ^ n))) names;
  check (Alcotest.list Alcotest.string) "empty after full unlink" []
    (listing fs "/d");
  ok "rmdir" (Cffs.rmdir fs "/d");
  Cffs.sync fs;
  check Alcotest.bool "no indexed dirs after rmdir" true
    ((Cffs.index_stats fs).Cffs.idx_dirs = 0);
  let report = Fsck.check fs in
  check Alcotest.bool "fsck clean after collapse" true (Report.is_clean report);
  let r = Fsck.repair fs in
  check Alcotest.int "nothing to repair" 0 r.Report.repaired

(* ------------------------------------------------------------------ *)
(* Lazy demotion: promote -> drain -> demote -> re-promote.  A directory
   emptied below half the promotion threshold by unlink churn folds back
   to linear pages on the unlink that empties a leaf, instead of keeping
   its index until rmdir; outgrowing the threshold again re-promotes.
   Entries, contents and fsck must agree at every stage. *)

let test_demotion_roundtrip () =
  let fs = mkfs () in
  let before = Registry.snapshot () in
  ok "mkdir" (Cffs.mkdir fs "/d");
  let payload i =
    Bytes.make (80 + (37 * i mod 700)) (Char.chr (97 + (i mod 26)))
  in
  let names = List.init 120 (fun i -> Printf.sprintf "d%04d" i) in
  List.iteri
    (fun i n -> ok n (Cffs.write_file fs ("/d/" ^ n) (payload i)))
    names;
  check Alcotest.int "promoted once" 1
    (counter_delta before "dirindex.promotions");
  check Alcotest.int "one indexed dir" 1 (Cffs.index_stats fs).Cffs.idx_dirs;
  (* Drain everything the promotion wrote before churning back down. *)
  Cffs.sync fs;
  check Alcotest.bool "fsck clean while indexed" true
    (Report.is_clean (Fsck.check fs));
  (* Unlink down to 8 survivors — far below the demotion watermark (half
     the threshold, in entry capacity), so an unlink that empties a leaf
     folds the index away without waiting for rmdir. *)
  let survivors = List.filteri (fun i _ -> i mod 15 = 0) names in
  let doomed = List.filter (fun n -> not (List.mem n survivors)) names in
  List.iter (fun n -> ok ("unlink " ^ n) (Cffs.unlink fs ("/d/" ^ n))) doomed;
  check Alcotest.bool "demoted" true
    (counter_delta before "dirindex.demotions" >= 1);
  check Alcotest.int "no indexed dirs after demotion" 0
    (Cffs.index_stats fs).Cffs.idx_dirs;
  check
    (Alcotest.list Alcotest.string)
    "survivors intact" (sorted survivors) (listing fs "/d");
  List.iter
    (fun n ->
      let i = int_of_string (String.sub n 1 4) in
      let got = ok ("read " ^ n) (Cffs.read_file fs ("/d/" ^ n)) in
      if not (Bytes.equal got (payload i)) then
        Alcotest.failf "%s: content changed across demotion" n)
    survivors;
  check Alcotest.bool "fsck clean after demotion" true
    (Report.is_clean (Fsck.check fs));
  (* The demoted directory is an ordinary linear directory again: it
     must survive a remount and re-promote when it outgrows the
     threshold a second time. *)
  Cffs.sync fs;
  Cffs.remount fs;
  check
    (Alcotest.list Alcotest.string)
    "survivors after remount" (sorted survivors) (listing fs "/d");
  let regrown = List.init 100 (fun i -> Printf.sprintf "g%04d" i) in
  List.iter (fun n -> ok n (Cffs.create fs ("/d/" ^ n))) regrown;
  check Alcotest.int "re-promoted" 2
    (counter_delta before "dirindex.promotions");
  check Alcotest.int "indexed again" 1 (Cffs.index_stats fs).Cffs.idx_dirs;
  check
    (Alcotest.list Alcotest.string)
    "full set after re-promotion"
    (sorted (survivors @ regrown))
    (listing fs "/d");
  check Alcotest.bool "fsck clean after re-promotion" true
    (Report.is_clean (Fsck.check fs))

(* ------------------------------------------------------------------ *)
(* Indexed images through every maintenance tool: fsck, layout census,
   online regroup, media scrub (integrity-formatted volume). *)

let build_indexed_tree fs =
  let all = ref [] in
  List.iter
    (fun d ->
      ok d (Cffs.mkdir fs d);
      for i = 0 to 99 do
        let p = Printf.sprintf "%s/t%04d" d i in
        ok p (Cffs.write_file fs p (Bytes.make (100 + (i mod 400)) 'q'));
        all := p :: !all
      done)
    [ "/a"; "/b" ];
  Cffs.sync fs;
  List.rev !all

let test_tools_on_indexed_images () =
  let fs = Cffs.format ~config ~integrity:true (dev ~nblocks:8192 ()) in
  let files = build_indexed_tree fs in
  let stats = Cffs.index_stats fs in
  check Alcotest.int "both dirs indexed" 2 stats.Cffs.idx_dirs;
  (* fsck *)
  check Alcotest.bool "fsck clean" true (Report.is_clean (Fsck.check fs));
  check Alcotest.int "fsck repairs nothing" 0 (Fsck.repair fs).Report.repaired;
  (* layout census *)
  let report = Layout.cffs_report fs in
  check Alcotest.int "layout sees indexed dirs" 2 report.Layout.indexed_dirs;
  check Alcotest.bool "layout counts index blocks" true
    (report.Layout.index_blocks >= stats.Cffs.idx_blocks);
  (* online regroup over an indexed namespace *)
  let (_ : Regroup.outcome) = Regroup.run fs in
  check Alcotest.bool "fsck clean after regroup" true
    (Report.is_clean (Fsck.check fs));
  List.iter
    (fun p ->
      match Cffs.stat fs p with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s lost after regroup: %s" p (Errno.to_string e))
    files;
  (* media scrub across the whole volume *)
  match Scrub.run_to_completion fs with
  | None -> Alcotest.fail "scrub unavailable on an integrity volume"
  | Some s ->
      check Alcotest.bool "scrub completed" true (Scrub.complete s);
      check Alcotest.int "no mismatches" 0 s.Scrub.mismatches;
      check Alcotest.int "nothing lost" 0 s.Scrub.lost

(* ------------------------------------------------------------------ *)
(* Crashmc: a power cut at every sampled prefix of a leaf-splitting
   create burst may neither dangle nor duplicate an entry, under every
   ordering-promising policy. *)

let test_crash_split policy () =
  let o = Crashmc.run_dirindex ~points:40 policy in
  if o.Crashmc.violations <> [] then
    Alcotest.failf "dirindex/%s: %s"
      (Crashmc.policy_label policy)
      (String.concat "; " o.Crashmc.violations);
  check Alcotest.int "dir enumeration errors" 0 o.Crashmc.dir_errors;
  check Alcotest.int "violations" 0 (Crashmc.total_violations [ o ]);
  check Alcotest.bool "swept real points" true (o.Crashmc.points > 10)

(* The same sweep over the promoting create and the demoting unlink:
   the rebuild-and-switch must leave the old or the new directory. *)
let test_crash_switch switch policy () =
  let label = match switch with `Promote -> "promote" | `Demote -> "demote" in
  let o = Crashmc.run_dirindex_switch ~points:40 switch policy in
  if o.Crashmc.violations <> [] then
    Alcotest.failf "dirindex %s/%s: %s" label
      (Crashmc.policy_label policy)
      (String.concat "; " o.Crashmc.violations);
  check Alcotest.int "dir enumeration errors" 0 o.Crashmc.dir_errors;
  check Alcotest.int "violations" 0 (Crashmc.total_violations [ o ]);
  check Alcotest.bool "swept real points" true (o.Crashmc.points > 2)

let crash_tests =
  List.map
    (fun policy ->
      Alcotest.test_case
        (Printf.sprintf "crash every split prefix (%s)"
           (Crashmc.policy_label policy))
        `Quick (test_crash_split policy))
    Crashmc.dirindex_matrix
  @ List.concat_map
      (fun switch ->
        List.map
          (fun policy ->
            Alcotest.test_case
              (Printf.sprintf "every %s prefix (%s)"
                 (match switch with `Promote -> "promote" | `Demote -> "demote")
                 (Crashmc.policy_label policy))
              `Quick (test_crash_switch switch policy))
          Crashmc.dirindex_matrix)
      [ `Promote; `Demote ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "dirindex"
    [
      ("qcheck", qcheck_tests);
      ( "collisions",
        [ Alcotest.test_case "chained buckets stay correct" `Quick test_collision_chains ] );
      ( "roundtrip",
        [
          Alcotest.test_case "promotion then unlink back down" `Quick test_promotion_roundtrip;
          Alcotest.test_case "promote, drain, demote, re-promote" `Quick test_demotion_roundtrip;
        ] );
      ( "tools",
        [ Alcotest.test_case "fsck/layout/regroup/scrub over indexed images" `Quick test_tools_on_indexed_images ] );
      ("crash", crash_tests);
    ]
