(* Property tests for the tagged command queue and the async pipeline:
   exactly-once completion, bounded starvation under the sweep scheduler,
   bit-identical final state across scheduling policies, and the
   overlap-order invariant for writes. *)

module Ioqueue = Cffs_disk.Ioqueue
module Scheduler = Cffs_disk.Scheduler
module Request = Cffs_disk.Request
module Blockdev = Cffs_blockdev.Blockdev
module Drive = Cffs_disk.Drive
module Profile = Cffs_disk.Profile
module Prng = Cffs_util.Prng
module Io_error = Cffs_util.Io_error

let check = Alcotest.check

let qtest ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

let mem () = Blockdev.memory ~block_size:4096 ~nblocks:1024
let timed () = Blockdev.of_drive (Drive.create Profile.seagate_st31200) ~block_size:4096

let block c = Bytes.make 4096 c
let blocki i = Bytes.make 4096 (Char.chr (i land 0xff))

let policies = [ Scheduler.Fcfs; Scheduler.Sstf; Scheduler.Clook ]

(* ------------------------------------------------------------------ *)
(* Exactly-once completion: every submitted tag completes exactly once,
   whatever the policy, depth and coalescing say — including duplicate and
   overlapping block ranges. *)

(* (kind, blk, n) triples decoded from bounded ints so QCheck's built-in
   shrinker works on the raw tuples. *)
let ops_gen = QCheck.(list_of_size Gen.(int_range 1 60) (triple (int_bound 1) (int_bound 200) (int_bound 3)))

let submit_decoded dev ops =
  List.map
    (fun (kind, blk, n) ->
      let n = 1 + n in
      if kind = 0 then Blockdev.submit_read dev blk n
      else Blockdev.submit_write dev blk (Bytes.create (n * 4096)))
    ops

let prop_exactly_once (depth, policy_i, coalesce, ops) =
  let dev = mem () in
  Blockdev.set_queue dev ~depth:(1 + depth)
    ~policy:(List.nth policies (policy_i mod 3))
    ~coalesce ();
  let tags = submit_decoded dev ops in
  let cqes = Blockdev.drain dev in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (c : Blockdev.cqe) ->
      if Hashtbl.mem seen c.Blockdev.cq_tag then
        QCheck.Test.fail_reportf "tag %d completed twice" c.Blockdev.cq_tag;
      Hashtbl.replace seen c.Blockdev.cq_tag ())
    cqes;
  List.length cqes = List.length tags
  && List.for_all (Hashtbl.mem seen) tags
  && Blockdev.pending dev = 0

let qcheck_exactly_once =
  qtest ~count:200 "every tag completes exactly once"
    QCheck.(quad (int_bound 15) (int_bound 2) bool ops_gen)
    prop_exactly_once

(* ------------------------------------------------------------------ *)
(* Bounded starvation: the sweep (FSCAN) discipline guarantees no window
   entry is passed over more than 2*depth times, even under a continuous
   stream of newly arriving requests that the policy would prefer. *)

let test_starvation_bound () =
  let depth = 4 in
  let q : unit Ioqueue.t =
    Ioqueue.create ~depth ~policy:Scheduler.Clook ()
  in
  let now = ref 0.0 in
  let submit blk =
    now := !now +. 1.0;
    ignore (Ioqueue.submit q (Request.read ~lba:(blk * 8) ~sectors:8) () ~now:!now)
  in
  (* A far-away victim, then an adversarial stream of low-lba requests that
     C-LOOK always prefers within a sweep. *)
  submit 900;
  for i = 0 to depth - 1 do submit i done;
  let worst = ref 0 in
  let served = ref 0 in
  let hot = ref 100 in
  while Ioqueue.pending q > 0 && !served < 200 do
    (match Ioqueue.take q ~geom:None ~current_cyl:0 with
    | None -> ()
    | Some group ->
        List.iter
          (fun (it : unit Ioqueue.item) ->
            worst := max !worst it.Ioqueue.passes)
          group;
        incr served);
    (* keep the queue hot so a non-sweeping scheduler would starve blk 900 *)
    if !served < 50 then begin
      decr hot;
      submit (max 1 !hot)
    end
  done;
  check Alcotest.bool "drained" true (Ioqueue.pending q = 0 || !served >= 200);
  check Alcotest.bool
    (Printf.sprintf "worst pass count %d <= 2*depth %d" !worst (2 * depth))
    true
    (!worst <= 2 * depth)

(* ------------------------------------------------------------------ *)
(* Policy equivalence: the same submissions produce bit-identical final
   device state (and identical read payloads) under FIFO and under a deep
   coalescing C-LOOK window, because overlapping requests never reorder
   around a write. *)

let final_state dev =
  List.map (fun blk -> Bytes.to_string (Blockdev.read dev blk 1))
    (List.init 220 (fun i -> i))

let prop_policy_equivalent ops =
  let run ~depth ~policy ~coalesce =
    let dev = mem () in
    Blockdev.set_queue dev ~depth ~policy ~coalesce ();
    (* seed every write payload deterministically from its submission index *)
    let tags =
      List.mapi
        (fun i (kind, blk, n) ->
          let n = 1 + n in
          if kind = 0 then (Blockdev.submit_read dev blk n, true)
          else
            ( Blockdev.submit_write dev blk
                (Bytes.concat Bytes.empty (List.init n (fun _ -> blocki i))),
              false ))
        ops
    in
    let cqes = Blockdev.drain dev in
    let reads =
      List.filter_map
        (fun (tag, is_read) ->
          if not is_read then None
          else
            List.find_map
              (fun (c : Blockdev.cqe) ->
                if c.Blockdev.cq_tag = tag then
                  Some (Bytes.to_string (Result.get_ok c.Blockdev.cq_result))
                else None)
              cqes)
        tags
    in
    (final_state dev, reads)
  in
  let fifo = run ~depth:max_int ~policy:Scheduler.Fcfs ~coalesce:false in
  List.for_all
    (fun policy ->
      run ~depth:8 ~policy ~coalesce:true = fifo
      && run ~depth:2 ~policy ~coalesce:false = fifo)
    policies

let qcheck_policy_equivalent =
  qtest ~count:200 "final state and read data identical across policies"
    ops_gen prop_policy_equivalent

(* ------------------------------------------------------------------ *)
(* Overlap order: for any two overlapping requests where either is a
   write, service order equals submission order.  Observed through the
   write observer on a timed device under the greediest configuration. *)

let prop_overlap_order ops =
  let dev = timed () in
  Blockdev.set_queue dev ~depth:8 ~policy:Scheduler.Clook ~coalesce:true ();
  let log = ref [] in
  Blockdev.set_write_observer dev
    (Some (fun ~blk ~data ~torn:_ -> log := (blk, Bytes.length data / 4096) :: !log));
  let subs =
    List.mapi
      (fun i (kind, blk, n) ->
        let n = 1 + n in
        if kind = 0 then begin
          ignore (Blockdev.submit_read dev blk n);
          (i, Request.Read, blk, n)
        end
        else begin
          ignore
            (Blockdev.submit_write dev blk
               (Bytes.concat Bytes.empty (List.init n (fun _ -> blocki i))));
          (i, Request.Write, blk, n)
        end)
      ops
  in
  ignore (Blockdev.drain dev);
  (* Every pair of overlapping submissions with a write must appear in the
     final state as if serviced in submission order: the later write's
     payload wins on the overlap. *)
  let writes = List.filter (fun (_, k, _, _) -> k = Request.Write) subs in
  List.for_all
    (fun (i, _, blk, n) ->
      (* the last write covering each block wins *)
      List.for_all
        (fun b ->
          let covering =
            List.filter (fun (_, _, wb, wn) -> wb <= b && b < wb + wn) writes
          in
          match List.rev covering with
          | [] -> true
          | (last, _, _, _) :: _ ->
              (* only check via our own write: others checked on their turn *)
              last <> i
              || Bytes.equal (Blockdev.read dev b 1) (blocki i))
        (List.init n (fun j -> blk + j)))
    writes

let qcheck_overlap_order =
  qtest ~count:100 "overlapping writes persist in submission order" ops_gen
    prop_overlap_order

(* ------------------------------------------------------------------ *)
(* Fault isolation: one bad tagged request fails only its own waiter; the
   rest of the batch completes with data. *)

let test_fault_isolation () =
  let dev = mem () in
  Blockdev.set_queue dev ~depth:8 ~policy:Scheduler.Clook ~coalesce:false ();
  Blockdev.write dev 10 (block 'a');
  Blockdev.write dev 50 (block 'b');
  Blockdev.write dev 90 (block 'c');
  Blockdev.set_injector dev
    (Some
       (fun op ~blk ~nblocks:_ ->
         if op = Io_error.Read && blk = 50 then Blockdev.Fail Io_error.Bad_sector
         else Blockdev.Proceed));
  let t1 = Blockdev.submit_read dev 10 1 in
  let t2 = Blockdev.submit_read dev 50 1 in
  let t3 = Blockdev.submit_read dev 90 1 in
  let cqes = Blockdev.drain dev in
  let result tag =
    (List.find (fun (c : Blockdev.cqe) -> c.Blockdev.cq_tag = tag) cqes)
      .Blockdev.cq_result
  in
  (match result t1 with
  | Ok d -> check Alcotest.bytes "t1 data" (block 'a') d
  | Error _ -> Alcotest.fail "t1 failed");
  (match result t2 with
  | Ok _ -> Alcotest.fail "t2 should fail"
  | Error e ->
      check Alcotest.bool "t2 bad sector" true (e.Io_error.cause = Io_error.Bad_sector));
  (match result t3 with
  | Ok d -> check Alcotest.bytes "t3 data" (block 'c') d
  | Error _ -> Alcotest.fail "t3 failed")

(* A fault inside a coalesced group degrades to per-member service: only
   the member covering the fault fails. *)
let test_fault_in_coalesced_group () =
  let dev = mem () in
  Blockdev.set_queue dev ~depth:8 ~policy:Scheduler.Clook ~coalesce:true ();
  Blockdev.write dev 20 (block 'x');
  Blockdev.write dev 21 (block 'y');
  Blockdev.write dev 22 (block 'z');
  Blockdev.set_injector dev
    (Some
       (fun op ~blk ~nblocks ->
         (* fail any read whose range covers block 21 *)
         if op = Io_error.Read && blk <= 21 && 21 < blk + nblocks then
           Blockdev.Fail Io_error.Bad_sector
         else Blockdev.Proceed));
  let t1 = Blockdev.submit_read dev 20 1 in
  let t2 = Blockdev.submit_read dev 21 1 in
  let t3 = Blockdev.submit_read dev 22 1 in
  let cqes = Blockdev.drain dev in
  let ok tag =
    match
      (List.find (fun (c : Blockdev.cqe) -> c.Blockdev.cq_tag = tag) cqes)
        .Blockdev.cq_result
    with
    | Ok _ -> true
    | Error _ -> false
  in
  check Alcotest.bool "t1 ok" true (ok t1);
  check Alcotest.bool "t2 failed" false (ok t2);
  check Alcotest.bool "t3 ok" true (ok t3)

(* Queue teardown: pending requests fail with Power_cut without touching
   the media; their completions surface through drain. *)
let test_reset_queue_teardown () =
  let dev = mem () in
  Blockdev.set_queue dev ~depth:1 ~policy:Scheduler.Fcfs ~coalesce:false ();
  let t1 = Blockdev.submit_write dev 5 (block 'p') in
  let t2 = Blockdev.submit_write dev 6 (block 'q') in
  let n = Blockdev.reset_queue dev in
  check Alcotest.int "two torn down" 2 n;
  let cqes = Blockdev.drain dev in
  check Alcotest.int "two completions" 2 (List.length cqes);
  List.iter
    (fun (c : Blockdev.cqe) ->
      check Alcotest.bool "tagged" true
        (c.Blockdev.cq_tag = t1 || c.Blockdev.cq_tag = t2);
      match c.Blockdev.cq_result with
      | Ok _ -> Alcotest.fail "teardown must fail waiters"
      | Error e ->
          check Alcotest.bool "power cut" true
            (e.Io_error.cause = Io_error.Power_cut))
    cqes;
  (* nothing reached the media *)
  check Alcotest.bytes "block 5 untouched" (block '\000') (Blockdev.read dev 5 1);
  check Alcotest.bytes "block 6 untouched" (block '\000') (Blockdev.read dev 6 1)

(* Pinned failed-write buffers survive a queue teardown: the cache keeps
   them dirty, and a later flush (fault cleared) persists them. *)
let test_pinned_survive_teardown () =
  let module Cache = Cffs_cache.Cache in
  let dev = mem () in
  let cache = Cache.create ~policy:Cache.Delayed dev ~capacity_blocks:64 in
  Cache.write cache ~kind:`Data 7 (block 'd');
  Blockdev.set_injector dev
    (Some (fun op ~blk:_ ~nblocks:_ ->
         if op = Io_error.Write then Blockdev.Fail Io_error.Transient
         else Blockdev.Proceed));
  Cache.flush cache;
  check Alcotest.bool "pinned after failed flush" true (Cache.pinned_count cache > 0);
  (* tear down whatever the pipeline still holds; the pinned buffer is the
     cache's, not the queue's *)
  ignore (Blockdev.reset_queue dev);
  ignore (Blockdev.drain dev);
  check Alcotest.bool "still pinned" true (Cache.pinned_count cache > 0);
  Blockdev.set_injector dev None;
  Cache.flush cache;
  check Alcotest.int "unpinned" 0 (Cache.pinned_count cache);
  check Alcotest.bytes "persisted" (block 'd') (Blockdev.read dev 7 1)

(* ------------------------------------------------------------------ *)
(* Reference model: the indexed queue returns exactly what the list-based
   definition in [Ioqueue_oracle] returns — every field of every item
   (tag, request, payload, seq, passes) of every group and clear list,
   and the pending counts — after every call of a random interleaving of
   submit / take / set_depth / set_policy / set_coalesce / clear /
   recycle, with and without a geometry.  The items handed out are held
   until a recycle call returns them to the queue, and must keep their
   fields until then, however many submissions follow. *)

module Oracle = Ioqueue_oracle
module Geometry = Cffs_disk.Geometry

let st_geom = Geometry.of_profile Profile.seagate_st31200

(* Positions: four 4-sector slots on each of three even cylinders. *)
let lba_of a = Geometry.first_lba_of_cyl st_geom (2 * (a mod 3)) + (4 * ((a / 3) mod 4))

(* Lengths span several length classes, with an occasional long one. *)
let len_of a b =
  if b = 15 then 100 + a else if b >= 12 then b - 11 else 4 * (1 + (b mod 4))

(* (op, a, b): 0-11 submit, 12-15 take near [lba_of a] (one cylinder
   either side or on it), 16 set_depth, 17 set_policy, 18 set_coalesce,
   19 clear, 20 recycle every held item.  A case writes 1, 4 or 6 in 12
   of its submissions: few writes leave deep sets of eligible reads to
   coalesce, many make long blocking chains.  Half the submissions start
   where the previous one started or ended ([a land 3]), so same-lba
   reads of different lengths, chains of overlapping writes and runs of
   adjacent requests are all common. *)
let call_gen = QCheck.(list_of_size Gen.(int_range 1 250) (triple (int_bound 20) (int_bound 127) (int_bound 15)))

(* geometry?, depth (unbounded for 0-4), policy, coalesce?, write share *)
let config_gen = QCheck.(pair (quad bool (int_bound 8) (int_bound 2) bool) (int_bound 2))

let fields (it : int Ioqueue.item) =
  let r = it.Ioqueue.req in
  (it.Ioqueue.tag, r.Request.lba, r.Request.sectors, r.Request.kind, it.Ioqueue.payload,
   it.Ioqueue.seq, it.Ioqueue.passes)

let oracle_fields (it : int Oracle.item) =
  let r = it.Oracle.req in
  (it.Oracle.tag, r.Request.lba, r.Request.sectors, r.Request.kind, it.Oracle.payload,
   it.Oracle.seq, it.Oracle.passes)

let show_fields l =
  String.concat " "
    (List.map
       (fun (tag, lba, sectors, kind, payload, seq, passes) ->
         Printf.sprintf "%d:%s%d+%d/p%d/s%d/%d" tag
           (match kind with Request.Read -> "R" | Request.Write -> "W")
           lba sectors payload seq passes)
       l)

let prop_matches_oracle (((with_geom, depth_i, policy_i, coalesce), writes), calls) =
  let geom = if with_geom then Some st_geom else None in
  let cyl lba = match geom with Some g -> Geometry.cyl_of_lba g lba | None -> lba in
  let depth = if depth_i <= 4 then max_int else depth_i - 4 in
  let policy = List.nth policies policy_i in
  let q : int Ioqueue.t = Ioqueue.create ~depth ~policy ~coalesce () in
  let o : int Oracle.t = Oracle.create ~depth ~policy ~coalesce () in
  let step = ref 0 and prev = ref (0, 0) in
  let held = ref [] in
  let fail fmt = QCheck.Test.fail_reportf ("call %d: " ^^ fmt) !step in
  let same_items what (xs : int Ioqueue.item list) (ys : int Oracle.item list) =
    let mine = List.map fields xs and ref_ = List.map oracle_fields ys in
    if mine <> ref_ then fail "%s: queue [%s] oracle [%s]" what (show_fields mine) (show_fields ref_);
    held := List.map (fun it -> (it, fields it)) xs @ !held
  in
  let check_held () =
    List.iter
      (fun (it, f) ->
        if fields it <> f then
          fail "held item changed: [%s] now [%s]" (show_fields [ f ]) (show_fields [ fields it ]))
      !held
  in
  let take current_cyl =
    match
      (Ioqueue.take q ~geom ~current_cyl, Oracle.take o ~geom ~current_cyl)
    with
    | None, None -> None
    | Some g, Some h ->
        same_items "take" g h;
        Some (List.hd g).Ioqueue.req.Request.lba
    | _ -> fail "take: one queue empty"
  in
  let call (op, a, b) =
    incr step;
    (if op <= 11 then begin
       let sectors = len_of a b and plba, plen = !prev in
       let lba =
         match a land 3 with 0 | 1 -> lba_of (a lsr 2) | 2 -> plba | _ -> plba + plen
       in
       prev := (lba, sectors);
       let req =
         if op >= [| 1; 4; 6 |].(writes) then Request.read ~lba ~sectors
         else Request.write ~lba ~sectors
       in
       let t1 = Ioqueue.submit q req !step ~now:0.0 and t2 = Oracle.submit o req !step in
       if t1 <> t2 then fail "tags %d vs %d" t1 t2
     end
     else if op <= 15 then ignore (take (cyl (lba_of a) + (b mod 3) - 1))
     else if op = 16 then begin
       let d = if b = 0 then max_int else 1 + (b mod 8) in
       Ioqueue.set_depth q d;
       Oracle.set_depth o d
     end
     else if op = 17 then begin
       let p = List.nth policies (b mod 3) in
       Ioqueue.set_policy q p;
       Oracle.set_policy o p
     end
     else if op = 18 then begin
       Ioqueue.set_coalesce q (b land 1 = 1);
       Oracle.set_coalesce o (b land 1 = 1)
     end
     else if op = 19 then same_items "clear" (Ioqueue.clear q) (Oracle.clear o)
     else begin
       List.iter (fun (it, _) -> Ioqueue.recycle q it) !held;
       held := []
     end);
    if Ioqueue.pending q <> Oracle.pending o then
      fail "pending %d vs %d" (Ioqueue.pending q) (Oracle.pending o);
    if Ioqueue.is_empty q <> Oracle.is_empty o then fail "is_empty differs";
    check_held ()
  in
  List.iter call calls;
  (* drain the rest the way Blockdev does: the head rests where the
     previous dispatch started *)
  let rec drain cur =
    incr step;
    match take cur with Some lba -> drain (cyl lba) | None -> ()
  in
  drain 0;
  check_held ();
  true

let qcheck_matches_oracle =
  qtest ~count:5000 "same schedule as the list-based reference"
    QCheck.(pair config_gen call_gen)
    prop_matches_oracle

(* Coalescing walks in submission order with the range growing mid-walk:
   from chosen [0,8), reads F [16,24) seq 1, G [8,16) seq 2 and H [16,20)
   seq 3 give {chosen, G, H} — G then H in the first walk, after which F
   no longer touches the range. *)
let test_absorb_walk_order () =
  let q : unit Ioqueue.t = Ioqueue.create ~coalesce:true () in
  let sub lba sectors = Ioqueue.submit q (Request.read ~lba ~sectors) () ~now:0.0 in
  let c = sub 0 8 in
  let f = sub 16 8 in
  let g = sub 8 8 in
  let h = sub 16 4 in
  let tags () =
    match Ioqueue.take q ~geom:None ~current_cyl:0 with
    | Some group -> List.map (fun (it : unit Ioqueue.item) -> it.Ioqueue.tag) group
    | None -> []
  in
  check Alcotest.(list int) "first group" [ c; g; h ] (tags ());
  check Alcotest.(list int) "then F alone" [ f ] (tags ())

(* A steady stream through a one-deep queue in the record form — acquire,
   enqueue, dispatch, recycle — reuses one record and allocates nothing
   per request. *)
let test_steady_allocation () =
  let q : unit Ioqueue.t = Ioqueue.create ~depth:1 ~policy:Scheduler.Clook () in
  let now = { Cffs_obs.Registry.v = 0.0 } and i = ref 0 in
  Alloc_probe.at_most "acquire + enqueue + dispatch + recycle" 2.0
    (Alloc_probe.words_per_call ~n:1000 (fun () ->
         incr i;
         now.Cffs_obs.Registry.v <- now.Cffs_obs.Registry.v +. 1.0;
         let it = Ioqueue.acquire q ignore in
         Ioqueue.enqueue q it Request.Read ~lba:(!i mod 512 * 8) ~sectors:8 ~now;
         let n = Ioqueue.dispatch q ~geom:None ~current_cyl:0 in
         for k = 0 to n - 1 do
           Ioqueue.recycle q (Ioqueue.dispatched q k)
         done))

(* Complexity guard, on the allocation clock (deterministic, unlike wall
   time): the sync-metadata small-file run on C-FFS without either
   technique, under C-LOOK on a timed ST31200, flushes windows that grow
   with the file count.  Four times the files must cost at most five
   times the minor-heap words; a per-dispatch scan of the window makes
   that ratio ~10. *)
let test_complexity_guard () =
  let module Setup = Cffs_harness.Setup in
  let words nfiles =
    let env =
      Setup.env ~policy:Cffs_cache.Cache.Sync_metadata (Setup.Cffs_fs Cffs.config_ffs_like)
    in
    let w0 = Gc.minor_words () in
    ignore (Cffs_workload.Smallfile.run ~nfiles env);
    Gc.minor_words () -. w0
  in
  let small = words 250 and large = words 1000 in
  let ratio = large /. small in
  check Alcotest.bool
    (Printf.sprintf "minor words 1000/250 files = %.0f/%.0f = %.2f <= 5" large small ratio)
    true (ratio <= 5.0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "ioqueue"
    [
      ( "properties",
        [
          qcheck_exactly_once;
          Alcotest.test_case "bounded starvation" `Quick test_starvation_bound;
          qcheck_policy_equivalent;
          qcheck_overlap_order;
        ] );
      ( "reference",
        [
          qcheck_matches_oracle;
          Alcotest.test_case "absorb walk order" `Quick test_absorb_walk_order;
          Alcotest.test_case "steady allocation" `Quick test_steady_allocation;
          Alcotest.test_case "complexity guard" `Quick test_complexity_guard;
        ] );
      ( "faults",
        [
          Alcotest.test_case "fault isolation" `Quick test_fault_isolation;
          Alcotest.test_case "fault in coalesced group" `Quick
            test_fault_in_coalesced_group;
          Alcotest.test_case "reset_queue teardown" `Quick
            test_reset_queue_teardown;
          Alcotest.test_case "pinned buffers survive teardown" `Quick
            test_pinned_survive_teardown;
        ] );
    ]
