module Blockdev = Cffs_blockdev.Blockdev
module Integrity = Cffs_blockdev.Integrity
module Obs = Cffs_obs.Registry

(* Both block indexes hash monomorphically: every cache access is a
   lookup in one of them. *)
module Lru = Cffs_util.Lru.Make (Cffs_util.Keys.Int)
module Pair_tbl = Cffs_util.Keys.Pair_tbl
module Int_tbl = Cffs_util.Keys.Int_tbl

let m_phys_hits = Obs.counter "cache.phys_hits"
let m_logical_hits = Obs.counter "cache.logical_hits"
let m_misses = Obs.counter "cache.misses"
let m_sync_writes = Obs.counter "cache.sync_writes"
let m_delayed_writes = Obs.counter "cache.delayed_writes"
let m_writebacks = Obs.counter "cache.writebacks"
let m_evictions = Obs.counter "cache.evictions"
let m_evicted_unused = Obs.counter "cache.evicted_unused"
let m_flushes = Obs.counter "cache.flushes"
let m_retries = Obs.counter "blockdev.retries"
let m_pinned = Obs.counter "cache.pinned_buffers"
let m_checkpoints = Obs.counter "journal.checkpoints"
let m_checkpoint_lag = Obs.counter "journal.checkpoint_lag_blocks"
let m_overflow_syncs = Obs.counter "journal.overflow_syncs"

type policy = Write_through | Sync_metadata | Delayed | Soft_updates | Journaled

(* One canonical snake_case spelling per policy: CLI flags, Crashmc column
   labels and telemetry JSON all round-trip through these two functions. *)
let policy_name = function
  | Write_through -> "write_through"
  | Sync_metadata -> "sync_metadata"
  | Delayed -> "delayed"
  | Soft_updates -> "soft_updates"
  | Journaled -> "journaled"

let policy_of_name s =
  let canon =
    String.lowercase_ascii s
    |> String.map (function '-' | ' ' -> '_' | c -> c)
  in
  match canon with
  | "write_through" -> Some Write_through
  | "sync_metadata" | "sync" -> Some Sync_metadata
  | "delayed" -> Some Delayed
  | "soft_updates" | "soft" -> Some Soft_updates
  | "journaled" | "journal" -> Some Journaled
  | _ -> None

let all_policies =
  [ Write_through; Sync_metadata; Delayed; Soft_updates; Journaled ]

type kind = [ `Meta | `Data | `Meta_delayed ]

type stats = {
  mutable phys_hits : int;
  mutable logical_hits : int;
  mutable misses : int;
  mutable sync_writes : int;
  mutable delayed_writes : int;
  mutable writebacks : int;
  mutable evictions : int;
}

type event =
  | Read_hit of { blk : int; logical : bool }
  | Read_miss of { blk : int; nblocks : int }
  | Write of { blk : int; sync : bool }
  | Writeback of { blk : int; nblocks : int }
  | Evict of { blk : int }
  | Flush of { nblocks : int }
  | Order of { first : int; second : int }

(* An entry holds either a private buffer ([data]) or a device view
   ([view]; [data] is then unused).  Every block the cache fetches is
   installed as a view; it becomes private the first time the cache
   hands the block out ([lend]).  Readers that only copy bytes out
   ([blit_entry]) leave it a view, and dirty entries are always
   private. *)
type entry = {
  mutable data : bytes;
  mutable view : Blockdev.view;  (** [Blockdev.no_view] once private *)
  mutable dirty : bool;
  mutable dirty_seq : int;  (** order in which the block became dirty *)
  mutable pinned : bool;  (** writeback failed; never drop, keep retrying *)
  mutable id_ino : int;  (** logical identity: inode, or [no_ino] *)
  mutable id_lblk : int;  (** and logical block *)
  mutable meta : bool;  (** last written as metadata (journaled policies) *)
  mutable logged : bool;
      (** dirty contents are committed to the journal and not re-dirtied
          since: the home block may be written at any time (replay would
          produce the same bytes) *)
}

type clusterer = blk:int -> sequential:bool -> bool

let no_ino = -1

(* A flush's working space, kept between flushes: the dirty blocks, then
   the write units formed from them (see [dirty_units]). *)
type scratch = {
  mutable blks : int array;
  mutable seqs : int array;
  mutable lens : int array;
  mutable count : int;
}

type t = {
  dev : Blockdev.t;
  mutable integ : Integrity.t option;
      (** when attached, all device I/O goes through the integrity layer:
          reads verify checksums, writes remap sticky bad sectors *)
  capacity : int;
  entries : entry Lru.t;  (** physical index, LRU-ordered *)
  logical : Pair_tbl.t;  (** (ino, lblk) -> physical block *)
  stats : stats;
  mutable policy : policy;
  mutable clusterer : clusterer;
  mutable observer : (event -> unit) option;
  mutable seq : int;
  deps : (int, int list) Hashtbl.t;
      (** block -> blocks that must be written no later than it *)
  mutable journal : Journal.t option;
  logged_in_log : (int, unit) Hashtbl.t;
      (** blocks with an image in the live (not yet checkpointed) log;
          freeing one of these demands a revoke record *)
  revoked : (int, unit) Hashtbl.t;
      (** revokes pending for the next commit: blocks freed (or demoted to
          file data) while an image of theirs was live in the log *)
  scratch : scratch;
}

let create ?(policy = Sync_metadata) dev ~capacity_blocks =
  if capacity_blocks <= 0 then invalid_arg "Cache.create: capacity";
  {
    dev;
    integ = None;
    capacity = capacity_blocks;
    entries = Lru.create ~size_hint:capacity_blocks ();
    logical = Pair_tbl.create 1024;
    stats =
      {
        phys_hits = 0;
        logical_hits = 0;
        misses = 0;
        sync_writes = 0;
        delayed_writes = 0;
        writebacks = 0;
        evictions = 0;
      };
    policy;
    clusterer = (fun ~blk:_ ~sequential:_ -> false);
    observer = None;
    seq = 0;
    deps = Hashtbl.create 64;
    journal = None;
    logged_in_log = Hashtbl.create 64;
    revoked = Hashtbl.create 16;
    scratch = { blks = [||]; seqs = [||]; lens = [||]; count = 0 };
  }

let set_clusterer t c = t.clusterer <- c
let set_observer t f = t.observer <- f

let notify t ev = match t.observer with None -> () | Some f -> f ev

(* Events are built only for an observer: a [Read_hit] would otherwise
   be most of what a cache hit allocates. *)
let observed t = match t.observer with None -> false | Some _ -> true

let device t = t.dev
let set_integrity t ig = t.integ <- ig
let integrity t = t.integ
let set_journal t j = t.journal <- Some j
let journal t = t.journal

(* The journal only changes behaviour when both the policy and a log are
   in place; [Journaled] without a log degrades to [Delayed]. *)
let journaled_active t = t.policy = Journaled && t.journal <> None

(* May this dirty block be written to its home location right now?  Under
   an active journal, uncommitted metadata must never reach its home block
   before its transaction commits (the write-ahead rule — otherwise a
   crash prefix exposes a mid-operation state that replay cannot undo);
   everything else may go at any time. *)
let home_writable t e = (not (journaled_active t)) || (not e.meta) || e.logged

(* All device I/O below funnels through these, so attaching an integrity
   layer changes every read into a verified read and every write into a
   remap-on-write.  Reads come back as one view per block, which the
   cache installs as it is; a view is copied only when the cache first
   hands its block out ([lend]), and released when the entry is dropped
   or rewritten first — so a block a group read brought in and nobody
   used costs no copy.  Writes hand over the cache's own buffers; the
   device copies them into the media. *)
let dev_read t blk n =
  match t.integ with
  | Some ig -> Integrity.read_views ig blk n
  | None -> Blockdev.read_views t.dev blk n

let dev_write t blk data =
  match t.integ with
  | Some ig -> Integrity.write ig blk data
  | None -> Blockdev.write t.dev blk data

let dev_write_units t units =
  match t.integ with
  | Some ig -> Integrity.write_units ig units
  | None -> Blockdev.write_batch_units t.dev units

let policy t = t.policy
let set_policy t p = t.policy <- p
let stats t = t.stats
let capacity t = t.capacity
let resident t = Lru.length t.entries

let dirty_count t =
  Lru.fold t.entries ~init:0 ~f:(fun acc _ e -> if e.dirty then acc + 1 else acc)

let pinned_count t =
  Lru.fold t.entries ~init:0 ~f:(fun acc _ e -> if e.pinned then acc + 1 else acc)

(* Bounded retry for transient device errors, with host-side backoff charged
   to the simulated clock.  Anything else (bad sector, power cut, bounds)
   propagates to the caller, which translates it into [EIO]. *)
let retry_limit = 4
let retry_backoff_s = 1e-3

let backoff t attempt =
  Obs.incr m_retries;
  Blockdev.advance t.dev (retry_backoff_s *. float_of_int attempt)

(* [dev_read] and [dev_write] under that retry, as top-level loops: a
   request builds no closure. *)
let rec read_retry t blk n attempt =
  match dev_read t blk n with
  | views -> views
  | exception Cffs_util.Io_error.E { cause = Cffs_util.Io_error.Transient; _ }
    when attempt < retry_limit ->
      backoff t attempt;
      read_retry t blk n (attempt + 1)

let rec write_retry t blk data attempt =
  match dev_write t blk data with
  | () -> ()
  | exception Cffs_util.Io_error.E { cause = Cffs_util.Io_error.Transient; _ }
    when attempt < retry_limit ->
      backoff t attempt;
      write_retry t blk data (attempt + 1)

let holds_view e = e.view != Blockdev.no_view

(* End entry [e]'s view, if it still holds one. *)
let drop_view e =
  if holds_view e then begin
    Blockdev.release e.view;
    e.view <- Blockdev.no_view
  end

(* The entry's buffer, for a caller that may read and change it: a view
   becomes a private copy first. *)
let lend e =
  if holds_view e then begin
    e.data <- Blockdev.own e.view;
    e.view <- Blockdev.no_view
  end;
  e.data

let detach_logical t entry =
  if entry.id_ino <> no_ino then begin
    Pair_tbl.remove t.logical entry.id_ino entry.id_lblk;
    entry.id_ino <- no_ino
  end

(* Is block [target] reachable from [blk] through must-write-first edges? *)
let rec dep_reaches t blk ~target =
  blk = target
  || List.exists
       (fun d -> dep_reaches t d ~target)
       (Option.value ~default:[] (Hashtbl.find_opt t.deps blk))

let is_dirty t blk =
  match Lru.find_exn t.entries blk with e -> e.dirty | exception Not_found -> false

let dirty_blocks t =
  Lru.fold t.entries ~init:[] ~f:(fun acc blk e ->
      if e.dirty then (blk, e.data) :: acc else acc)

(* Heap sort of [keys.(0 .. n-1)] into ascending order, applying the same
   swaps to [a] and [b]; the keys are distinct.  In place: a flush sorts
   its dirty set in the cache's scratch arrays, with no list or closure. *)
let swap (x : int array) i j =
  let v = x.(i) in
  x.(i) <- x.(j);
  x.(j) <- v

let rec sift keys a b i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && keys.(l + 1) > keys.(l) then l + 1 else l in
    if keys.(c) > keys.(i) then begin
      swap keys i c;
      swap a i c;
      swap b i c;
      sift keys a b c n
    end
  end

let sort_by keys a b n =
  for i = (n / 2) - 1 downto 0 do
    sift keys a b i n
  done;
  for last = n - 1 downto 1 do
    swap keys 0 last;
    swap a 0 last;
    swap b 0 last;
    sift keys a b 0 last
  done

(* Room for [n] entries in each scratch array. *)
let reserve t n =
  let s = t.scratch in
  if Array.length s.blks < n then begin
    let cap = max n (2 * Array.length s.blks) in
    let grow a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    s.blks <- grow s.blks;
    s.seqs <- grow s.seqs;
    s.lens <- grow s.lens
  end

(* Which dirty entries a flush writes. *)
let all_dirty _ _ = true
let dirty_meta _ e = e.meta

(* The blocks of the run [blk, blk + len), in block order. *)
let rec run_data t blk len acc =
  if len = 0 then acc
  else run_data t blk (len - 1) ((Lru.find_exn t.entries (blk + len - 1)).data :: acc)

(* Units [0 .. k] of the scratch arrays, in that order, before [acc]:
   [blks] holds their start blocks and [lens] their lengths. *)
let rec unit_list t k acc =
  if k < 0 then acc
  else
    let s = t.scratch in
    unit_list t (k - 1) ((s.blks.(k), run_data t s.blks.(k) s.lens.(k) []) :: acc)

(* Form write units from the dirty set: physically adjacent dirty blocks
   merge only when the clusterer allows it.  [want] narrows the dirty set
   (the journaled flush path excludes uncommitted metadata).  One pass
   collects the dirty blocks into the scratch arrays and sorts them;
   units are formed over that block-sorted view (adjacency) and then
   issued in the order their data became dirty — the queue a first-come
   first-served driver would see; smarter schedulers reorder it. *)
let dirty_units ?(want = all_dirty) t =
  let s = t.scratch in
  s.count <- 0;
  Lru.iter t.entries (fun blk e ->
      if e.dirty && want t e then begin
        reserve t (s.count + 1);
        s.blks.(s.count) <- blk;
        s.count <- s.count + 1
      end);
  let n = s.count in
  sort_by s.blks s.seqs s.lens n;
  (* Rewrite the sorted blocks in place as units: unit [u] starts at
     [blks.(u)], spans [lens.(u)] blocks and became dirty first at
     [seqs.(u)]. *)
  let u = ref (-1) and prev_ino = ref no_ino and prev_lblk = ref 0 in
  for i = 0 to n - 1 do
    let blk = s.blks.(i) in
    let e = Lru.find_exn t.entries blk in
    let joins =
      !u >= 0
      && blk = s.blks.(!u) + s.lens.(!u)
      && t.clusterer ~blk
           ~sequential:
             (!prev_ino <> no_ino && !prev_ino = e.id_ino && e.id_lblk = !prev_lblk + 1)
    in
    if joins then begin
      s.lens.(!u) <- s.lens.(!u) + 1;
      s.seqs.(!u) <- min s.seqs.(!u) e.dirty_seq
    end
    else begin
      incr u;
      s.blks.(!u) <- blk;
      s.lens.(!u) <- 1;
      s.seqs.(!u) <- e.dirty_seq
    end;
    prev_ino := e.id_ino;
    prev_lblk := e.id_lblk
  done;
  sort_by s.seqs s.blks s.lens (!u + 1);
  unit_list t !u []

(* Mark one block clean and retire the dependencies it satisfied. *)
let mark_clean t blk =
  (match Lru.find_exn t.entries blk with
  | e ->
      e.dirty <- false;
      e.pinned <- false;
      e.logged <- false
  | exception Not_found -> ());
  Hashtbl.remove t.deps blk

(* Push one dirty block to the device.  Success marks it clean; failure
   (after transient retries) leaves it dirty and pinned, so the data
   survives for the next flush instead of being lost.  Returns whether the
   block reached the media. *)
let writeback_block t blk =
  match Lru.find_exn t.entries blk with
  | exception Not_found -> false
  | e when not e.dirty -> false
  | e -> (
      match write_retry t blk e.data 1 with
      | () ->
          t.stats.writebacks <- t.stats.writebacks + 1;
          Obs.incr m_writebacks;
          if observed t then notify t (Writeback { blk; nblocks = 1 });
          mark_clean t blk;
          true
      | exception Cffs_util.Io_error.E _ ->
          if not e.pinned then begin
            e.pinned <- true;
            Obs.incr m_pinned
          end;
          false)

(* Persist [blk] without overtaking its declared prerequisites: write the
   prerequisite closure first, in dependency order.  The dep graph is
   acyclic (edges that would close a cycle are never recorded), so this
   terminates.  A prerequisite that cannot be persisted (pinned by a write
   failure) blocks [blk] too — order is never traded for progress. *)
let rec writeback_with_deps t blk =
  let prereqs = Option.value ~default:[] (Hashtbl.find_opt t.deps blk) in
  let ok =
    List.for_all (fun d -> (not (is_dirty t d)) || writeback_with_deps t d) prereqs
  in
  if ok then writeback_block t blk else false

let order t ~first ~second =
  if t.policy = Soft_updates && first <> second && is_dirty t first then begin
    if dep_reaches t first ~target:second then
      (* Completing the edge would make a cycle: the constraint set is
         unsatisfiable, so no edge is recorded.  Persisting [first]'s
         prerequisite closure in dependency order — then [first] itself —
         honours every already-registered constraint and leaves [first]
         clean, so the new dependent is unconstrained from here on.  No
         [Order] event fires: nothing was promised about future writes. *)
      ignore (writeback_with_deps t first)
    else begin
      if observed t then notify t (Order { first; second });
      let existing = Option.value ~default:[] (Hashtbl.find_opt t.deps second) in
      if not (List.mem first existing) then
        Hashtbl.replace t.deps second (first :: existing)
    end
  end

(* Dirty blocks whose declared prerequisites are all clean. *)
let unit_ready t (start, blocks) =
  let n = List.length blocks in
  let rec ok i =
    i >= n
    || (List.for_all
          (fun d -> (start <= d && d < start + n) || not (is_dirty t d))
          (Option.value ~default:[] (Hashtbl.find_opt t.deps (start + i)))
       && ok (i + 1))
  in
  ok 0

(* Write a set of units as one scheduler-ordered batch.  On an injected
   device fault the batch stops at the failed request; fall back to
   block-at-a-time writes so each failure pins only its own block (already
   persisted blocks are rewritten identically, which is harmless).  Returns
   the number of blocks that reached the media. *)
let rec count_blocks n = function
  | [] -> n
  | (_, blocks) :: rest -> count_blocks (n + List.length blocks) rest

let rec mark_run_clean t blk = function
  | [] -> ()
  | _ :: rest ->
      mark_clean t blk;
      mark_run_clean t (blk + 1) rest

let rec mark_units_clean t = function
  | [] -> ()
  | (start, blocks) :: rest ->
      if observed t then notify t (Writeback { blk = start; nblocks = List.length blocks });
      mark_run_clean t start blocks;
      mark_units_clean t rest

let writeback_units t units =
  match dev_write_units t units with
  | () ->
      let n = count_blocks 0 units in
      t.stats.writebacks <- t.stats.writebacks + n;
      Obs.add m_writebacks n;
      mark_units_clean t units;
      n
  | exception Cffs_util.Io_error.E _ ->
      List.fold_left
        (fun acc (start, blocks) ->
          let wrote = ref 0 in
          List.iteri
            (fun i _ -> if writeback_block t (start + i) then incr wrote)
            blocks;
          acc + !wrote)
        0 units

(* ---- Journaled policy machinery -------------------------------------- *)

(* Committed dirty metadata, as block-sorted adjacent write units (no
   clusterer consultation: these are metadata home-writes whose layout the
   journal already decided). *)
let logged_meta_units t =
  let metas =
    Lru.fold t.entries ~init:[] ~f:(fun acc blk e ->
        if e.dirty && e.meta && e.logged then (blk, e.data) :: acc else acc)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let rec build acc current = function
    | [] -> List.rev (match current with None -> acc | Some u -> u :: acc)
    | (blk, data) :: rest -> begin
        match current with
        | Some (start, blocks) when blk = start + List.length blocks ->
            build acc (Some (start, data :: blocks)) rest
        | Some u -> build (u :: acc) (Some (blk, [ data ])) rest
        | None -> build acc (Some (blk, [ data ])) rest
      end
  in
  build [] None metas |> List.map (fun (start, blocks) -> (start, List.rev blocks))

let dirty_meta_count t =
  Lru.fold t.entries ~init:0 ~f:(fun acc _ e ->
      if e.dirty && e.meta then acc + 1 else acc)

(* Empty the log: home-write every committed metadata image, then — only
   if no dirty metadata remains at all (an uncommitted dirty meta may have
   an older committed image in the log that its home block still needs) —
   persist the checksum region and reset the log.  The tag flush precedes
   the reset so a crash between the two replays (harmlessly, idempotently)
   rather than leaving fresh home blocks under stale at-rest tags. *)
let checkpoint_journal t j =
  let units = logged_meta_units t in
  if units <> [] || Journal.head j > 0 then begin
    Obs.incr m_checkpoints;
    Obs.add m_checkpoint_lag (Journal.head j);
    if units <> [] then begin
      let n = writeback_units t units in
      if n > 0 && observed t then notify t (Flush { nblocks = n })
    end;
    if dirty_meta_count t = 0 && Journal.head j > 0 then begin
      (match t.integ with None -> () | Some ig -> Integrity.flush_tags ig);
      match Journal.reset j with
      | () ->
          Hashtbl.reset t.logged_in_log;
          Hashtbl.reset t.revoked
      | exception Cffs_util.Io_error.E _ ->
          (* The header write failed: the log stays live, images and
             pending revokes stay tracked; a later checkpoint retries. *)
          ()
    end
  end

let checkpoint t =
  match t.journal with
  | Some j when t.policy = Journaled -> checkpoint_journal t j
  | _ -> ()

(* Degraded fallback when one transaction cannot fit even an empty log:
   home-write all dirty metadata synchronously (the Sync_metadata-style
   non-atomic window — counted, and unreachable for any workload whose
   sync barriers dirty fewer metadata blocks than the log holds). *)
let overflow_sync t j =
  Obs.incr m_overflow_syncs;
  let units =
    dirty_units ~want:dirty_meta t
  in
  if units <> [] then ignore (writeback_units t units);
  if dirty_meta_count t = 0 && Journal.head j > 0 then begin
    (match t.integ with None -> () | Some ig -> Integrity.flush_tags ig);
    match Journal.reset j with
    | () ->
        Hashtbl.reset t.logged_in_log;
        Hashtbl.reset t.revoked
    | exception Cffs_util.Io_error.E _ -> ()
  end

(* Commit the sync barrier's metadata as one transaction: every dirty
   uncommitted metadata block — a C-FFS cdir/embedded-inode update travels
   with its bitmap and cg-header writes in the same commit record — plus
   the pending revokes.  On success the blocks are marked [logged]; their
   home writes happen at the next checkpoint (or eviction-path flush). *)
let journal_commit t j =
  let metas =
    Lru.fold t.entries ~init:[] ~f:(fun acc blk e ->
        if e.dirty && e.meta && not e.logged then (blk, e) :: acc else acc)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  (* A block re-imaged by this transaction needs no revoke: the new image
     is exactly what replay should apply. *)
  List.iter (fun (blk, _) -> Hashtbl.remove t.revoked blk) metas;
  let revokes = Hashtbl.fold (fun blk () acc -> blk :: acc) t.revoked [] in
  if metas = [] && (revokes = [] || Journal.head j = 0) then begin
    (* Nothing to commit; pending revokes are moot over an empty log. *)
    if Journal.head j = 0 then Hashtbl.reset t.revoked
  end
  else begin
    let need = Journal.blocks_needed ~nimages:(List.length metas) in
    if need > Journal.free_blocks j then checkpoint_journal t j;
    if need > Journal.log_blocks j then overflow_sync t j
    else
      let images = List.map (fun (blk, e) -> (blk, e.data)) metas in
      match Journal.commit j ~images ~revokes with
      | Journal.Committed ->
          List.iter
            (fun (blk, e) ->
              e.logged <- true;
              Hashtbl.replace t.logged_in_log blk ())
            metas;
          Hashtbl.reset t.revoked
      | Journal.No_space | Journal.Io_failed ->
          (* Either the checkpoint could not free the log (pinned metadata)
             or the device refused the append: fall back to direct
             home-writes so the sync barrier still means durability. *)
          overflow_sync t j
  end

(* ----------------------------------------------------------------------- *)

let flush_dirty t =
  if t.policy <> Soft_updates || Hashtbl.length t.deps = 0 then begin
    let n = writeback_units t (dirty_units ~want:home_writable t) in
    if n > 0 && observed t then notify t (Flush { nblocks = n });
    if dirty_count t = 0 then Hashtbl.reset t.deps
  end
  else begin
    (* Dependency waves: each wave is a scheduler-ordered batch of units
       whose prerequisites are already on the device. *)
    let rec wave () =
      let units = dirty_units t in
      if units <> [] then begin
        let ready, _blocked = List.partition (unit_ready t) units in
        if ready <> [] then begin
          if writeback_units t ready > 0 then wave ()
          (* else: every ready block failed writeback and is pinned. *)
        end
        else begin
          (* No whole unit is ready: clustering has tangled the dependency
             graph (the soft-updates aggregation problem — a unit may both
             precede and follow another one).  Fall back to block-at-a-time
             writes in dependency order, so no block ever reaches the
             device before its declared prerequisites. *)
          let progress = ref false in
          List.iter
            (fun (start, blocks) ->
              List.iteri
                (fun i _ ->
                  let blk = start + i in
                  if
                    is_dirty t blk
                    && List.for_all
                         (fun d -> not (is_dirty t d))
                         (Option.value ~default:[]
                            (Hashtbl.find_opt t.deps blk))
                  then if writeback_block t blk then progress := true)
                blocks)
            units;
          if !progress then wave ()
        end
      end
    in
    wave ();
    if dirty_count t = 0 then Hashtbl.reset t.deps
  end

let flush t =
  Obs.incr m_flushes;
  flush_dirty t;
  (* The flush is the sync barrier: re-encode the at-rest checksum region
     so a cold attach sees tags no staler than the last sync. *)
  (match t.integ with None -> () | Some ig -> Integrity.flush_tags ig);
  (* Under an active journal [flush_dirty] home-wrote only data and
     already-committed metadata; the barrier's new metadata commits now, as
     one transaction, strictly after the data (and its tags) are durable —
     so an acknowledged sync never references unwritten data.  The log is
     emptied opportunistically once it is half full. *)
  match t.journal with
  | Some j when t.policy = Journaled ->
      journal_commit t j;
      if 2 * Journal.head j >= Journal.log_blocks j then checkpoint_journal t j
  | _ -> ()

let any _ = true
let clean e = not e.dirty

(* Make room for one more entry.  When the LRU victim is dirty, push the
   whole dirty set out as one scheduler-ordered batch first — the update
   daemon / write clustering behaviour — so evictions never degrade into
   single-block synchronous writes. *)
let evict_if_full t =
  let stuck = ref false in
  let tried_checkpoint = ref false in
  while (not !stuck) && Lru.length t.entries >= t.capacity do
    (match Lru.find_exn t.entries (Lru.oldest t.entries any) with
    | e when e.dirty ->
        (* Not a sync barrier: push the dirty set but leave the at-rest
           checksum region for the next real flush. *)
        Obs.incr m_flushes;
        flush_dirty t
    | _ | (exception Not_found) -> ());
    (* Never drop a block that is still dirty: after a failed writeback the
       victim stays pinned, so evict the oldest clean block instead — and if
       every resident block is pinned, grow past capacity rather than lose
       data. *)
    match Lru.oldest t.entries clean with
    | blk ->
        let e = Lru.find_exn t.entries blk in
        Lru.remove t.entries blk;
        detach_logical t e;
        if holds_view e then begin
          Obs.incr m_evicted_unused;
          drop_view e
        end;
        t.stats.evictions <- t.stats.evictions + 1;
        Obs.incr m_evictions;
        if observed t then notify t (Evict { blk })
    | exception Not_found ->
        (* Every resident block is dirty.  Under an active journal the
           eviction-path flush skips uncommitted metadata (the write-ahead
           rule), so committed metadata may be the only reclaimable kind:
           checkpoint once to home-write it, then retry.  If that frees
           nothing either, grow past capacity rather than lose data. *)
        if journaled_active t && not !tried_checkpoint then begin
          tried_checkpoint := true;
          checkpoint t
        end
        else stuck := true
  done

let insert t blk data view ~dirty ~meta =
  evict_if_full t;
  if dirty then t.seq <- t.seq + 1;
  let e =
    {
      data;
      view;
      dirty;
      dirty_seq = (if dirty then t.seq else 0);
      pinned = false;
      id_ino = no_ino;
      id_lblk = 0;
      meta;
      logged = false;
    }
  in
  Lru.add t.entries blk e;
  e

(* Install the device view [v] of [blk] as a clean entry, unless the
   block is resident already (possibly dirty): then the view just ends. *)
let install_view t blk v =
  if Lru.mem t.entries blk then Blockdev.release v
  else ignore (insert t blk Bytes.empty v ~dirty:false ~meta:false)

let resident_block t blk = Lru.mem t.entries blk

(* Copy [len] bytes of entry [e] from [src_off] into [dst] at [dst_off]:
   a view stays a view. *)
let blit_entry e ~src_off dst ~dst_off ~len =
  if holds_view e then Blockdev.blit_view e.view ~src_off dst ~dst_off ~len
  else Bytes.blit e.data src_off dst dst_off len

(* The entry of [blk] for a reader, fetched as a view on a miss. *)
let read_entry t blk =
  match Lru.use_exn t.entries blk with
  | e ->
      t.stats.phys_hits <- t.stats.phys_hits + 1;
      Obs.incr m_phys_hits;
      if observed t then notify t (Read_hit { blk; logical = false });
      e
  | exception Not_found ->
      t.stats.misses <- t.stats.misses + 1;
      Obs.incr m_misses;
      if observed t then notify t (Read_miss { blk; nblocks = 1 });
      let v = (read_retry t blk 1 1).(0) in
      insert t blk Bytes.empty v ~dirty:false ~meta:false

let read t blk = lend (read_entry t blk)

let read_into t blk ~src_off dst ~dst_off ~len =
  blit_entry (read_entry t blk) ~src_off dst ~dst_off ~len

(* Is any of [blk + i .. blk + n - 1] not resident? *)
let rec any_missing t blk i n =
  i < n && ((not (Lru.mem t.entries (blk + i))) || any_missing t blk (i + 1) n)

let rec install_views t blk views i =
  if i < Array.length views then begin
    install_view t (blk + i) views.(i);
    install_views t blk views (i + 1)
  end

let read_group t blk n =
  let missing = any_missing t blk 0 n in
  if missing then begin
    t.stats.misses <- t.stats.misses + 1;
    Obs.incr m_misses;
    if observed t then notify t (Read_miss { blk; nblocks = n });
    match read_retry t blk n 1 with
    | views -> install_views t blk views 0
    | exception
        Cffs_util.Io_error.E
          { cause = Cffs_util.Io_error.Bad_sector | Cffs_util.Io_error.Checksum_mismatch; _ }
      when n > 1 ->
        (* Degraded group read: a single damaged block must not fail the
           whole group (one group carries many files' data — the paper's
           co-location raises the blast radius, so we shrink it back).
           Fetch block by block and skip only what is actually damaged;
           the skipped block surfaces EIO per file when (and only when)
           one of its owners reads it. *)
        Integrity.note_degraded ();
        for i = 0 to n - 1 do
          if not (Lru.mem t.entries (blk + i)) then
            match read_retry t (blk + i) 1 1 with
            | v -> install_view t (blk + i) v.(0)
            | exception Cffs_util.Io_error.E _ -> ()
        done
  end;
  missing

let m_prefetch_runs = Obs.counter "cache.prefetch_runs"
let m_prefetch_blocks = Obs.counter "cache.prefetch_blocks"
let m_prefetch_failed = Obs.counter "cache.prefetch_failed"

(* Batched asynchronous prefetch: submit every non-resident sub-run of the
   given physically contiguous runs as tagged reads, drain once, and
   install what arrived.  One drain serves many files/streams, so the
   queue's scheduler sees all of them at once — this is how multi-client
   read traffic exploits the tagged queue.  Failures are swallowed (no
   retry): the block stays non-resident and the next synchronous read
   surfaces or recovers the fault through the usual path.  With an
   integrity layer attached prefetch degrades to verified group reads —
   still one request per run, but checked before anything enters the
   cache — and a run whose read fails is swallowed the same way.  Each
   completed block is installed as the device's view of it. *)
let prefetch t runs =
  match t.integ with
  | Some _ ->
      List.iter
        (fun (blk, n) ->
          try ignore (read_group t blk n) with
          | Cffs_util.Io_error.E { cause; _ } when cause <> Cffs_util.Io_error.Out_of_bounds ->
              Obs.incr m_prefetch_failed)
        runs
  | None ->
      let tags = Int_tbl.create 16 in
      List.iter
        (fun (blk, n) ->
          let flush_sub start stop =
            if start < stop then begin
              let tag = Blockdev.submit_read t.dev start (stop - start) in
              Int_tbl.replace tags tag ();
              Obs.incr m_prefetch_runs;
              Obs.add m_prefetch_blocks (stop - start)
            end
          in
          let rec sub i start =
            if i >= n then flush_sub start (blk + n)
            else if Lru.mem t.entries (blk + i) then begin
              flush_sub start (blk + i);
              sub (i + 1) (blk + i + 1)
            end
            else sub (i + 1) start
          in
          sub 0 blk)
        runs;
      if Int_tbl.length tags > 0 then
        List.iter
          (fun (c : Blockdev.view array Blockdev.completion) ->
            let mine = Int_tbl.mem tags c.Blockdev.cq_tag in
            match c.Blockdev.cq_result with
            | Ok views ->
                if mine then
                  Array.iteri (fun i v -> install_view t (c.Blockdev.cq_blk + i) v) views
                else
                  (* another submitter's completion: its views end here *)
                  Array.iter Blockdev.release views
            | Error _ -> if mine then Obs.incr m_prefetch_failed)
          (Blockdev.drain_views t.dev)

(* The entry a logical identity maps to, counted as a logical hit;
   raises [Not_found] on a miss. *)
let logical_entry t ~ino ~lblk =
  let blk = Pair_tbl.find t.logical ino lblk in
  if blk < 0 then raise Not_found;
  match Lru.use_exn t.entries blk with
  | e ->
      t.stats.logical_hits <- t.stats.logical_hits + 1;
      Obs.incr m_logical_hits;
      if observed t then notify t (Read_hit { blk; logical = true });
      e
  | exception Not_found ->
      (* Stale mapping left by an eviction race; drop it. *)
      Pair_tbl.remove t.logical ino lblk;
      raise Not_found

let find_logical_exn t ~ino ~lblk = lend (logical_entry t ~ino ~lblk)

let find_logical t ~ino ~lblk =
  match find_logical_exn t ~ino ~lblk with b -> Some b | exception Not_found -> None

let find_logical_into t ~ino ~lblk ~src_off dst ~dst_off ~len =
  match logical_entry t ~ino ~lblk with
  | e ->
      blit_entry e ~src_off dst ~dst_off ~len;
      true
  | exception Not_found -> false

(* Forget the identity of the entry of [blk], if resident. *)
let clear_ident t blk =
  match Lru.find_exn t.entries blk with
  | e -> e.id_ino <- no_ino
  | exception Not_found -> ()

let set_logical t blk ~ino ~lblk =
  match Lru.find_exn t.entries blk with
  | exception Not_found -> ()
  | e ->
      detach_logical t e;
      let old = Pair_tbl.find t.logical ino lblk in
      (* The identity moved to a new physical block. *)
      if old >= 0 && old <> blk then clear_ident t old;
      e.id_ino <- ino;
      e.id_lblk <- lblk;
      Pair_tbl.replace t.logical ino lblk blk

let drop_logical t ~ino ~lblk =
  let blk = Pair_tbl.find t.logical ino lblk in
  if blk >= 0 then begin
    Pair_tbl.remove t.logical ino lblk;
    clear_ident t blk
  end

let write t ~kind blk data =
  if Bytes.length data <> Blockdev.block_size t.dev then
    invalid_arg "Cache.write: data must be exactly one block";
  let sync =
    match (t.policy, kind) with
    | Write_through, _ -> true
    | Sync_metadata, `Meta -> true
    | Sync_metadata, (`Data | `Meta_delayed) -> false
    | (Delayed | Soft_updates | Journaled), _ -> false
  in
  let is_meta = match kind with `Meta | `Meta_delayed -> true | `Data -> false in
  (* A block that carried a live journal image and is now rewritten as
     file data was freed and reallocated: record a revoke so replay never
     clobbers the new data with the stale metadata image. *)
  if
    (not is_meta) && journaled_active t
    && Hashtbl.mem t.logged_in_log blk
  then Hashtbl.replace t.revoked blk ();
  (match Lru.use_exn t.entries blk with
  | e ->
      drop_view e;
      e.data <- data;
      e.meta <- is_meta;
      e.logged <- false;
      if (not sync) && not e.dirty then begin
        t.seq <- t.seq + 1;
        e.dirty_seq <- t.seq
      end;
      e.dirty <- not sync
  | exception Not_found ->
      ignore (insert t blk data Blockdev.no_view ~dirty:(not sync) ~meta:is_meta));
  if observed t then notify t (Write { blk; sync });
  if sync then begin
    match write_retry t blk data 1 with
    | () ->
        t.stats.sync_writes <- t.stats.sync_writes + 1;
        Obs.incr m_sync_writes
    | exception Cffs_util.Io_error.E _ -> (
        (* The device refused the write: keep the buffer dirty and pinned
           instead of losing the data; the next flush retries it. *)
        match Lru.find t.entries blk with
        | None -> ()
        | Some e ->
            if not e.dirty then begin
              t.seq <- t.seq + 1;
              e.dirty_seq <- t.seq
            end;
            e.dirty <- true;
            if not e.pinned then begin
              e.pinned <- true;
              Obs.incr m_pinned
            end)
  end
  else begin
    t.stats.delayed_writes <- t.stats.delayed_writes + 1;
    Obs.incr m_delayed_writes
  end

let flush_limit t n =
  if t.policy <> Soft_updates then begin
    let dirty =
      if journaled_active t then
        Lru.fold t.entries ~init:[] ~f:(fun acc blk e ->
            if e.dirty && home_writable t e then (blk, e.data) :: acc else acc)
      else dirty_blocks t
    in
    let chosen = List.filteri (fun i _ -> i < n) dirty in
    let written = ref 0 in
    List.iter
      (fun (blk, _) -> if writeback_block t blk then incr written)
      chosen;
    !written
  end
  else begin
    (* Write up to [n] blocks, never a block before its prerequisites. *)
    let written = ref 0 in
    let progress = ref true in
    while !written < n && !progress do
      progress := false;
      let dirty = dirty_blocks t in
      List.iter
        (fun (blk, _) ->
          if !written < n && is_dirty t blk
             && List.for_all
                  (fun d -> not (is_dirty t d))
                  (Option.value ~default:[] (Hashtbl.find_opt t.deps blk))
          then
            if writeback_block t blk then begin
              incr written;
              progress := true
            end)
        dirty
    done;
    !written
  end

let invalidate t blk =
  (* Freeing a block whose image is live in the log: revoke it, so replay
     after a crash cannot resurrect it over whatever reuses the block. *)
  if journaled_active t && Hashtbl.mem t.logged_in_log blk then
    Hashtbl.replace t.revoked blk ();
  (match Lru.find_exn t.entries blk with
  | e ->
      detach_logical t e;
      drop_view e
  | exception Not_found -> ());
  Lru.remove t.entries blk

let drop_all t =
  Hashtbl.reset t.deps;
  Pair_tbl.reset t.logical;
  Lru.iter t.entries (fun _ e -> drop_view e);
  Lru.clear t.entries

let remount t =
  flush t;
  (* An orderly remount leaves no replay work behind: checkpoint so the
     home image is complete and the log empty. *)
  checkpoint t;
  drop_all t;
  Blockdev.flush_device_cache t.dev

let crash t = drop_all t
