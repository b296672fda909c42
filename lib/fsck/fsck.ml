module Cache = Cffs_cache.Cache
module Alloc = Cffs_vfs.Alloc
module Bmap = Cffs_vfs.Bmap
module Errno = Cffs_vfs.Errno
module Inode = Cffs_vfs.Inode
module Io_error = Cffs_util.Io_error

module type FS = sig
  type t

  val cache : t -> Cache.t
  val superblock_ok : t -> bool
  val root : t -> int
  val read_inode : t -> int -> Inode.t Errno.result
  val write_inode : t -> int -> Inode.t -> unit
  val hidden_inodes : int list
  val indexed : t -> Inode.t -> bool

  val index_walk :
    t ->
    Inode.t ->
    entry:(pblock:int -> string -> int -> unit) ->
    meta:(int -> unit) ->
    bad:(int -> unit) ->
    unit

  val block_entries : t -> pblock:int -> bytes -> (string -> int -> unit) -> unit
  val remove_entry : t -> bytes -> string -> bool
  val nlink : ino:int -> Inode.t -> refs:int -> subdirs:int -> int
  val orphan_range : t -> int * int
  val clear_inode : t -> int -> unit
  val read_header : t -> int -> bytes
  val block_map : t -> Alloc.map
  val inode_map : t -> Alloc.map option
  val resolve : t -> string -> int Errno.result
  val mkdir : t -> string -> unit Errno.result
  val hardlink : t -> dir:int -> string -> ino:int -> unit Errno.result
  val sync : t -> unit
end

module Make (F : FS) = struct
  (* Everything one walk of the namespace learns; each problem list is
     newest first. *)
  type survey = {
    refs : (int, int) Hashtbl.t;
    inodes : (int, Inode.t) Hashtbl.t;
    subdirs : (int, int) Hashtbl.t; (* dir ino -> child-directory count *)
    used : (int, int) Hashtbl.t; (* block -> first owner *)
    mutable dangling : Report.problem list;
    mutable dups : Report.problem list;
    mutable out_of_range : Report.problem list;
    mutable bad_dirs : Report.problem list;
    unreadable : (int, unit) Hashtbl.t; (* inodes whose block cannot be read *)
    uncertain : (int, unit) Hashtbl.t; (* dirs naming one: subdirs unknown *)
    bad_blocks : (int, unit) Hashtbl.t; (* those blocks *)
    mutable bad_inodes : Report.problem list;
    mutable files : int;
    mutable dirs : int;
  }

  (* [F.read_inode], or [None] when the media cannot produce the inode's
     block: the inode is noted unreadable and its block, once, as a
     finding. *)
  let read_inode t s ino =
    match F.read_inode t ino with
    | r -> Some r
    | exception Io_error.E { Io_error.blk; _ } ->
        Hashtbl.replace s.unreadable ino ();
        if not (Hashtbl.mem s.bad_blocks blk) then begin
          Hashtbl.replace s.bad_blocks blk ();
          s.bad_inodes <- Report.Bad_inode_block { blk } :: s.bad_inodes
        end;
        None

  let claim t s ~ino blk =
    if not (Alloc.allocatable (F.block_map t) blk) then
      s.out_of_range <- Report.Block_out_of_range { ino; blk } :: s.out_of_range
    else if Hashtbl.mem s.used blk then
      s.dups <- Report.Block_multiply_used { blk; ino } :: s.dups
    else Hashtbl.replace s.used blk ino

  let note_blocks t s ~ino inode =
    Bmap.iter (F.cache t) inode ~data:(claim t s ~ino) ~meta:(claim t s ~ino)

  (* Hand each block of a linear directory to [f] in logical order until
     it returns [true]; a block the map or the media cannot produce (a
     sticky bad sector, a checksum mismatch) goes to [bad] instead. *)
  let dir_blocks t dinode ~bad f =
    let cache = F.cache t in
    let bsz = Cffs_blockdev.Blockdev.block_size (Cache.device cache) in
    let nblocks = (dinode.Inode.size + bsz - 1) / bsz in
    let rec go lblk =
      if lblk < nblocks then begin
        match Bmap.read cache dinode lblk with
        | Ok None -> go (lblk + 1)
        | Ok (Some p) -> (
            match Cache.read cache p with
            | b -> if not (f p b) then go (lblk + 1)
            | exception Io_error.E _ ->
                bad lblk;
                go (lblk + 1))
        | Error _ | exception Io_error.E _ ->
            bad lblk;
            go (lblk + 1)
      end
    in
    go 0

  let rec walk t s ~dir dinode =
    let bad lblk = s.bad_dirs <- Report.Bad_directory_block { dir; lblk } :: s.bad_dirs in
    if F.indexed t dinode then begin
      (* An index's table blocks and leaves are reached through its root,
         not the inode's block map: claim them as the walk meets them, and
         visit the entries once it is done. *)
      let entries = ref [] in
      F.index_walk t dinode
        ~entry:(fun ~pblock:_ name ino -> entries := (name, ino) :: !entries)
        ~meta:(claim t s ~ino:dir) ~bad;
      List.iter (fun (name, ino) -> visit t s ~dir ~name ino) !entries
    end
    else
      dir_blocks t dinode ~bad (fun pblock b ->
          F.block_entries t ~pblock b (fun name ino -> visit t s ~dir ~name ino);
          false)

  and visit t s ~dir ~name ino =
    match Hashtbl.find_opt s.refs ino with
    | Some n ->
        Hashtbl.replace s.refs ino (n + 1);
        if Hashtbl.mem s.unreadable ino then Hashtbl.replace s.uncertain dir ()
    | None -> (
        let dangle () = s.dangling <- Report.Dangling_entry { dir; name; ino } :: s.dangling in
        match read_inode t s ino with
        | None ->
            (* Named, so in use; whether it is a directory, and so the
               link count [dir] should carry, cannot be known. *)
            Hashtbl.replace s.refs ino 1;
            Hashtbl.replace s.uncertain dir ()
        | Some (Error _) -> dangle ()
        | Some (Ok inode) -> (
            Hashtbl.replace s.refs ino 1;
            Hashtbl.replace s.inodes ino inode;
            note_blocks t s ~ino inode;
            match inode.Inode.kind with
            | Inode.Directory ->
                s.dirs <- s.dirs + 1;
                Hashtbl.replace s.subdirs dir
                  (1 + Option.value ~default:0 (Hashtbl.find_opt s.subdirs dir));
                if name <> "." && name <> ".." then walk t s ~dir:ino inode
            | Inode.Regular -> s.files <- s.files + 1
            | Inode.Free -> dangle ()))

  let run_survey t =
    let s =
      {
        refs = Hashtbl.create 1024;
        inodes = Hashtbl.create 1024;
        subdirs = Hashtbl.create 64;
        used = Hashtbl.create 4096;
        dangling = [];
        dups = [];
        out_of_range = [];
        bad_dirs = [];
        unreadable = Hashtbl.create 16;
        uncertain = Hashtbl.create 16;
        bad_blocks = Hashtbl.create 16;
        bad_inodes = [];
        files = 0;
        dirs = 0;
      }
    in
    (* Seed the root without a reference; the nlink rule accounts for the
       missing parent link. *)
    let root = F.root t in
    (match read_inode t s root with
    | None | Some (Error _) -> ()
    | Some (Ok inode) ->
        Hashtbl.replace s.refs root 0;
        Hashtbl.replace s.inodes root inode;
        note_blocks t s ~ino:root inode;
        s.dirs <- 1;
        walk t s ~dir:root inode);
    List.iter
      (fun ino ->
        match read_inode t s ino with
        | Some (Ok i) -> note_blocks t s ~ino i
        | None | Some (Error _) -> ())
      F.hidden_inodes;
    s

  let expected_nlink s ino inode =
    F.nlink ~ino inode ~refs:(Hashtbl.find s.refs ino)
      ~subdirs:(Option.value ~default:0 (Hashtbl.find_opt s.subdirs ino))

  (* Is [inode]'s link count known to be wrong?  Not for a directory
     naming an unreadable inode: it may have subdirectories the walk could
     not count. *)
  let nlink_wrong s ino inode =
    (not (Hashtbl.mem s.uncertain ino)) && inode.Inode.nlink <> expected_nlink s ino inode

  (* Allocated inodes among the candidates that no entry references,
     highest number first. *)
  let orphans t s =
    let lo, hi = F.orphan_range t in
    let found = ref [] in
    for ino = lo to hi - 1 do
      if not (Hashtbl.mem s.refs ino) then
        match read_inode t s ino with
        | Some (Ok inode) -> found := (ino, inode.Inode.kind) :: !found
        | None | Some (Error _) -> ()
    done;
    !found

  (* An inode that cannot be read keeps the bit group [cg]'s header
     [hdr] gives it. *)
  let unreadable_in_use s m hdr cg n =
    Hashtbl.mem s.unreadable n && Alloc.mem m hdr (n - Alloc.start m cg)

  (* Compare every group's bitmaps with what the walk found, through the
     file system's own header reads; a header with no readable copy is a
     finding of its own.  Block bitmaps are compared only when every
     inode could be read. *)
  let group_problems t s orphans =
    let orphaned = Hashtbl.create 16 in
    List.iter (fun (ino, _) -> Hashtbl.replace orphaned ino ()) orphans;
    let lo, _ = F.orphan_range t in
    let inode_used m hdr cg n =
      n < lo || Hashtbl.mem s.refs n || Hashtbl.mem orphaned n
      || unreadable_in_use s m hdr cg n
    in
    let blocks = F.block_map t in
    let acc = ref [] in
    let tally m hdr cg ~used mismatch =
      let found_free = ref 0 and expected_free = ref 0 in
      for i = 0 to Alloc.per_group m - 1 do
        if not (Alloc.mem m hdr i) then incr found_free;
        if i >= Alloc.first m && not (used (Alloc.start m cg + i)) then incr expected_free
      done;
      if !found_free <> !expected_free then
        acc := mismatch ~expected_free:!expected_free ~found_free:!found_free :: !acc
    in
    for cg = 0 to Alloc.groups blocks - 1 do
      match F.read_header t cg with
      | exception Io_error.E _ -> acc := Report.Bad_group_header { cg } :: !acc
      | hdr ->
          Option.iter
            (fun m ->
              tally m hdr cg ~used:(inode_used m hdr cg) (fun ~expected_free ~found_free ->
                  Report.Inode_bitmap_mismatch { cg; expected_free; found_free }))
            (F.inode_map t);
          if s.bad_inodes = [] then
            tally blocks hdr cg ~used:(Hashtbl.mem s.used) (fun ~expected_free ~found_free ->
                Report.Block_bitmap_mismatch { cg; expected_free; found_free })
    done;
    !acc

  let check t =
    let empty = { Report.problems = []; files = 0; dirs = 0; data_blocks = 0; repaired = 0 } in
    if not (try F.superblock_ok t with Io_error.E _ -> false) then
      { empty with Report.problems = [ Report.Bad_superblock ] }
    else begin
      let s = run_survey t in
      let orphans = orphans t s in
      let groups = group_problems t s orphans in
      let nlinks =
        Hashtbl.fold
          (fun ino inode acc ->
            if nlink_wrong s ino inode then
              Report.Wrong_nlink
                { ino; expected = expected_nlink s ino inode; found = inode.Inode.nlink }
              :: acc
            else acc)
          s.inodes []
      in
      {
        empty with
        Report.problems =
          s.dangling
          @ List.map (fun (ino, kind) -> Report.Orphan_inode { ino; kind }) orphans
          @ s.dups @ s.out_of_range @ s.bad_dirs @ s.bad_inodes @ nlinks @ groups;
        files = s.files;
        dirs = s.dirs;
        data_blocks = Hashtbl.length s.used;
      }
    end

  (* ---------------------------------------------------------------- *)
  (* Repair. *)

  (* Remove a name by rewriting the directory block that holds it. *)
  let remove_name t ~dir ~name =
    match F.read_inode t dir with
    | Error _ -> ()
    | Ok dinode ->
        let cache = F.cache t in
        let rewrite p b =
          F.remove_entry t b name
          && begin
               Cache.write cache ~kind:`Meta p b;
               true
             end
        in
        if F.indexed t dinode then begin
          let target = ref None in
          F.index_walk t dinode
            ~entry:(fun ~pblock n _ -> if !target = None && n = name then target := Some pblock)
            ~meta:ignore ~bad:ignore;
          Option.iter (fun p -> ignore (rewrite p (Cache.read cache p))) !target
        end
        else dir_blocks t dinode ~bad:ignore rewrite

  let attach_lost_found t ino =
    if Result.is_error (F.resolve t "/lost+found") then ignore (F.mkdir t "/lost+found");
    match F.resolve t "/lost+found" with
    | Error _ -> ()
    | Ok dir -> ignore (F.hardlink t ~dir (Printf.sprintf "ino%06d" ino) ~ino)

  (* A doubly-claimed or out-of-range block: punch the pointer out of the
     claimant recorded in the problem (the later one, for duplicates),
     leaving a hole; the bitmap rebuild then settles ownership on the
     survivor. *)
  let punch_block t ~ino ~blk =
    match F.read_inode t ino with
    | Error _ -> ()
    | Ok inode -> if Bmap.punch (F.cache t) inode ~target:blk then F.write_inode t ino inode

  (* Write corrected link counts and rebuild every readable group's
     bitmaps and free counts from a fresh survey. *)
  let rebuild_metadata t =
    let s = run_survey t in
    Hashtbl.iter
      (fun ino inode ->
        if nlink_wrong s ino inode then begin
          inode.Inode.nlink <- expected_nlink s ino inode;
          F.write_inode t ino inode
        end)
      s.inodes;
    let blocks = F.block_map t in
    let lo, _ = F.orphan_range t in
    for cg = 0 to Alloc.groups blocks - 1 do
      match F.read_header t cg with
      | exception Io_error.E _ -> ()
      | hdr ->
          Option.iter
            (fun m ->
              (* [rebuild] clears the bitmap before it asks: an unreadable
                 inode's bit comes from a copy *)
              let old = Bytes.copy hdr in
              Alloc.rebuild m hdr ~group:cg ~used:(fun n ->
                  n < lo || Hashtbl.mem s.refs n || unreadable_in_use s m old cg n))
            (F.inode_map t);
          if s.bad_inodes = [] then Alloc.rebuild blocks hdr ~group:cg ~used:(Hashtbl.mem s.used);
          (* a group's header is its first block *)
          Cache.write (F.cache t) ~kind:`Meta (Alloc.start blocks cg) hdr
    done

  let repair t =
    let before = check t in
    (* An already-clean volume needs no repair writes at all: hand back the
       fresh report as-is, which also makes repair idempotent (a second run
       reports zero repairs). *)
    if Report.is_clean before then before
    else begin
      List.iter
        (function
          | Report.Dangling_entry { dir; name; _ } -> remove_name t ~dir ~name
          | Report.Orphan_inode { ino; kind = Inode.Regular } -> attach_lost_found t ino
          | Report.Orphan_inode { ino; _ } -> F.clear_inode t ino
          | Report.Block_multiply_used { blk; ino } | Report.Block_out_of_range { ino; blk } ->
              punch_block t ~ino ~blk
          | Report.Bad_superblock | Report.Wrong_nlink _ | Report.Block_bitmap_mismatch _
          | Report.Inode_bitmap_mismatch _ | Report.Bad_directory_block _
          | Report.Bad_group_header _ | Report.Bad_inode_block _ -> ())
        before.Report.problems;
      rebuild_metadata t;
      F.sync t;
      let after = check t in
      { after with Report.repaired = max 0 (Report.count before - Report.count after) }
    end
end
