(* The multi-volume layer: composite block device over N spindles. *)

module Blockdev = Cffs_blockdev.Blockdev
module Faultdev = Cffs_blockdev.Faultdev
module Integrity = Cffs_blockdev.Integrity
module Volume = Cffs_volume.Volume
module Io_error = Cffs_util.Io_error
module Prng = Cffs_util.Prng
module Cache = Cffs_cache.Cache
module Csb = Cffs.Csb
module Fsck = Cffs_fsck.Fsck_cffs
module Report = Cffs_fsck.Report
module Scrub = Cffs_fsck.Scrub
module Experiments = Cffs_harness.Experiments

let mk_striped ?(drives = 3) ?(u = 8) ?(nblocks = 200) () =
  Volume.create_memory ~stripe_unit:u ~block_size:512 ~nblocks ~drives
    ~layout:Volume.Striped ()

let fill_block bs byte = Bytes.make bs (Char.chr byte)

let roundtrip () =
  let v = mk_striped () in
  let dev = v.Volume.dev in
  let bs = Blockdev.block_size dev in
  Alcotest.(check bool) "composite" true (Array.length (Blockdev.subdevices dev) = 3);
  (* write every block a distinct byte, read back one by one and in big
     spans crossing extent boundaries *)
  let n = min 100 (Blockdev.nblocks dev) in
  for blk = 0 to n - 1 do
    Blockdev.write dev blk (fill_block bs (blk mod 251))
  done;
  for blk = 0 to n - 1 do
    let b = Blockdev.read dev blk 1 in
    Alcotest.(check char)
      (Printf.sprintf "blk %d" blk)
      (Char.chr (blk mod 251)) (Bytes.get b 0)
  done;
  let span = Blockdev.read dev 0 n in
  for blk = 0 to n - 1 do
    Alcotest.(check char)
      (Printf.sprintf "span blk %d" blk)
      (Char.chr (blk mod 251))
      (Bytes.get span (blk * bs))
  done

let spread () =
  (* group-aligned striping sends chunk g to spindle g mod n: writes to
     distinct chunks land on distinct spindles *)
  let v = mk_striped ~drives:3 ~u:8 ~nblocks:200 () in
  let dev = v.Volume.dev in
  let bs = Blockdev.block_size dev in
  (* chunk g starts at logical 1 + g*8 *)
  List.iter
    (fun g -> Blockdev.write dev (1 + (g * 8)) (fill_block bs 7))
    [ 0; 1; 2 ];
  let writes_of i =
    (Blockdev.stats v.Volume.subs.(i)).Cffs_disk.Request.Stats.writes
  in
  Alcotest.(check bool) "spindle 0 wrote" true (writes_of 0 >= 1);
  Alcotest.(check bool) "spindle 1 wrote" true (writes_of 1 >= 1);
  Alcotest.(check bool) "spindle 2 wrote" true (writes_of 2 >= 1)

let meta_split_spread () =
  let v =
    Volume.create_memory ~stripe_unit:8 ~meta_per_chunk:1 ~block_size:512
      ~nblocks:200 ~drives:3 ~layout:Volume.Meta_split ()
  in
  let dev = v.Volume.dev in
  let bs = Blockdev.block_size dev in
  (* block 0 (sb) and each chunk's first block go to spindle 0 *)
  Blockdev.write dev 0 (fill_block bs 1);
  Blockdev.write dev 1 (fill_block bs 2) (* chunk 0 meta *);
  Blockdev.write dev 2 (fill_block bs 3) (* chunk 0 data *);
  let writes_of i =
    (Blockdev.stats v.Volume.subs.(i)).Cffs_disk.Request.Stats.writes
  in
  Alcotest.(check int) "meta spindle" 2 (writes_of 0);
  Alcotest.(check int) "data spindle" 1 (writes_of 1);
  (* everything reads back through the composite *)
  Alcotest.(check char) "sb" '\001' (Bytes.get (Blockdev.read dev 0 1) 0);
  Alcotest.(check char) "meta" '\002' (Bytes.get (Blockdev.read dev 1 1) 0);
  Alcotest.(check char) "data" '\003' (Bytes.get (Blockdev.read dev 2 1) 0)

let async_fanout () =
  (* tagged submissions spread across queues; one drain completes all *)
  let v = mk_striped ~drives:4 ~u:4 ~nblocks:300 () in
  let dev = v.Volume.dev in
  let bs = Blockdev.block_size dev in
  let tags =
    List.map
      (fun g ->
        let blk = 1 + (g * 4) in
        (Blockdev.submit_write dev blk (fill_block bs (100 + g)), blk, 100 + g))
      [ 0; 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "pending spread" true (Blockdev.pending dev >= 6);
  let cqes = Blockdev.drain dev in
  Alcotest.(check int) "all completed" 6 (List.length cqes);
  List.iter
    (fun (tag, blk, byte) ->
      (match List.find_opt (fun c -> c.Blockdev.cq_tag = tag) cqes with
      | Some c ->
          Alcotest.(check bool) "write ok" true (Result.is_ok c.Blockdev.cq_result)
      | None -> Alcotest.fail "missing completion");
      Alcotest.(check char) "data" (Char.chr byte)
        (Bytes.get (Blockdev.read dev blk 1) 0))
    tags

let cross_extent_write () =
  (* one logical request spanning three chunks fragments to three spindles
     and reassembles *)
  let v = mk_striped ~drives:3 ~u:4 ~nblocks:200 () in
  let dev = v.Volume.dev in
  let bs = Blockdev.block_size dev in
  let start = 3 and n = 10 in
  let data = Bytes.create (n * bs) in
  for i = 0 to n - 1 do
    Bytes.fill data (i * bs) bs (Char.chr (50 + i))
  done;
  Blockdev.write dev start data;
  let back = Blockdev.read dev start n in
  Alcotest.(check bytes) "cross-extent roundtrip" data back

let fault_isolation () =
  (* a sticky bad logical block fails only requests touching it, on any
     spindle; others proceed *)
  let v = mk_striped ~drives:3 ~u:4 ~nblocks:200 () in
  let dev = v.Volume.dev in
  let bs = Blockdev.block_size dev in
  let fd = Faultdev.attach dev in
  let bad = 1 + (1 * 4) (* chunk 1 -> spindle 1 *) in
  for blk = 1 to 20 do
    Blockdev.write dev blk (fill_block bs 9)
  done;
  Faultdev.mark_bad fd bad;
  (match Blockdev.read dev (bad + 1) 1 with
  | _ -> ());
  Alcotest.check_raises "bad block read fails"
    (Io_error.E
       { Io_error.op = Io_error.Read; blk = bad; nblocks = 1;
         cause = Io_error.Bad_sector; range = None })
    (fun () -> ignore (Blockdev.read dev bad 1));
  (* other spindles unaffected *)
  ignore (Blockdev.read dev 1 1);
  ignore (Blockdev.read dev (1 + 8) 1);
  Faultdev.detach fd

let crash_image_flat () =
  (* Faultdev journal entries live in logical space: a materialized crash
     image is a flat memory device with the composite's logical contents *)
  let v = mk_striped ~drives:3 ~u:4 ~nblocks:100 () in
  let dev = v.Volume.dev in
  let bs = Blockdev.block_size dev in
  let fd = Faultdev.attach dev in
  for blk = 1 to 30 do
    Blockdev.write dev blk (fill_block bs (blk mod 7))
  done;
  let img = Faultdev.materialize fd ~upto:max_int in
  Alcotest.(check int) "flat image size" (Blockdev.nblocks dev)
    (Blockdev.nblocks img);
  for blk = 1 to 30 do
    Alcotest.(check char)
      (Printf.sprintf "img blk %d" blk)
      (Char.chr (blk mod 7))
      (Bytes.get (Blockdev.read img blk 1) 0)
  done;
  Faultdev.detach fd

let snapshot_restore () =
  let v = mk_striped ~drives:3 ~u:4 ~nblocks:100 () in
  let dev = v.Volume.dev in
  let bs = Blockdev.block_size dev in
  for blk = 0 to 40 do
    Blockdev.write dev blk (fill_block bs 5)
  done;
  let img = Blockdev.snapshot dev in
  for blk = 0 to 40 do
    Blockdev.write dev blk (fill_block bs 6)
  done;
  Blockdev.restore dev img;
  for blk = 0 to 40 do
    Alcotest.(check char)
      (Printf.sprintf "restored blk %d" blk)
      '\005'
      (Bytes.get (Blockdev.read dev blk 1) 0)
  done;
  (* a composite snapshot also restores onto a flat device *)
  let flat = Blockdev.memory ~block_size:bs ~nblocks:(Blockdev.nblocks dev) in
  Blockdev.restore flat img;
  for blk = 0 to 40 do
    Alcotest.(check char)
      (Printf.sprintf "flat blk %d" blk)
      '\005'
      (Bytes.get (Blockdev.read flat blk 1) 0)
  done

let timed_scaling () =
  (* the composite clock is the max of sub clocks: N spindles serving one
     batched drain finish in roughly 1/N the single-spindle time *)
  let run drives =
    let v =
      Volume.create ~stripe_unit:64 ~drives
        ~layout:(if drives = 1 then Volume.Single else Volume.Striped) ()
    in
    let dev = v.Volume.dev in
    let bs = Blockdev.block_size dev in
    let t0 = Blockdev.now dev in
    (* 64 chunk-aligned single-block reads spread over chunks *)
    let tags = ref [] in
    for g = 0 to 63 do
      ignore (Blockdev.write dev (1 + (g * 64)) (Bytes.make bs 'x'));
      ()
    done;
    Blockdev.flush_device_cache dev;
    let t1 = Blockdev.now dev in
    for g = 0 to 63 do
      tags := Blockdev.submit_read dev (1 + (g * 64)) 1 :: !tags
    done;
    ignore (Blockdev.drain dev);
    ignore t0;
    Blockdev.now dev -. t1
  in
  let t1 = run 1 and t4 = run 4 in
  Alcotest.(check bool)
    (Printf.sprintf "4 spindles faster (1: %.4fs, 4: %.4fs)" t1 t4)
    true
    (t4 < t1 /. 2.0)

(* ------------------------------------------------------------------ *)
(* C-FFS on a composite volume: the fault paths.  Group-aligned striping
   with stripe unit = cylinder-group span, so a chunk IS a group and a
   block's spindle is computable. *)

let fs_u = 512

let fs_spindle ~drives blk = if blk = 0 then 0 else (blk - 1) / fs_u mod drives

let mk_fs ?(drives = 3) ?(policy = Cache.Sync_metadata) ?(integrity = false) ()
    =
  let v =
    Volume.create_memory ~stripe_unit:fs_u ~block_size:4096 ~nblocks:4096
      ~drives ~layout:Volume.Striped ()
  in
  (v, Cffs.format ~cg_size:fs_u ~policy ~integrity v.Volume.dev)

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Cffs_vfs.Errno.to_string e)

let payload i = Bytes.make (3000 + (i * 97 mod 9000)) (Char.chr (33 + (i mod 90)))

let first_data_block fs path =
  match Cffs.file_runs fs path with
  | Ok ((b, _) :: _) -> b
  | _ -> Alcotest.failf "%s: no data runs" path

let scrub_heals_across_spindles () =
  (* Silent corruption injected behind the integrity layer on two
     different spindles — a cylinder-group header and a file data block —
     must both be found and healed by one scrub pass: the header from its
     replica, the data block from the still-resident cache copy. *)
  let v, fs = mk_fs ~integrity:true () in
  let files = List.init 12 (fun i -> Printf.sprintf "/f%02d" i) in
  List.iteri (fun i p -> ok p (Cffs.write_file fs p (payload i))) files;
  Cffs.sync fs;
  let hdr = Csb.cg_start (Cffs.superblock fs) 2 in
  let hdr_spindle = fs_spindle ~drives:3 hdr in
  let dblk =
    match
      List.map (first_data_block fs) files
      |> List.find_opt (fun b -> fs_spindle ~drives:3 b <> hdr_spindle)
    with
    | Some b -> b
    | None -> Alcotest.fail "no data block off the header's spindle"
  in
  let prng = Prng.create 0xbad in
  Blockdev.corrupt_block v.Volume.dev hdr prng;
  Blockdev.corrupt_block v.Volume.dev dblk prng;
  match Scrub.run_to_completion fs with
  | None -> Alcotest.fail "scrub unavailable on an integrity volume"
  | Some s ->
      Alcotest.(check bool) "scrub completed" true (Scrub.complete s);
      Alcotest.(check bool) "damage was found" true (s.Scrub.mismatches >= 1);
      Alcotest.(check bool) "header healed from replica" true
        (s.Scrub.primaries_repaired >= 1);
      Alcotest.(check int) "nothing lost" 0 s.Scrub.lost;
      List.iteri
        (fun i p ->
          let b = ok p (Cffs.read_file fs p) in
          if not (Bytes.equal b (payload i)) then
            Alcotest.failf "%s damaged after scrub" p)
        files;
      Alcotest.(check bool) "fsck clean" true (Report.is_clean (Fsck.check fs))

let remap_on_one_spindle () =
  (* A sticky bad sector on one spindle: the rewrite remaps to a spare
     through the composite's integrity layer and acknowledges; the other
     spindles' files never notice. *)
  let v, fs = mk_fs ~integrity:true () in
  let fd = Faultdev.attach v.Volume.dev in
  ok "/keep" (Cffs.write_file fs "/keep" (payload 0));
  ok "/victim" (Cffs.write_file fs "/victim" (payload 1));
  Cffs.sync fs;
  let p = first_data_block fs "/victim" in
  Faultdev.mark_bad fd p;
  ok "/victim" (Cffs.write_file fs "/victim" (payload 2));
  Cffs.sync fs;
  let ig =
    match Cffs.integrity fs with
    | Some ig -> ig
    | None -> Alcotest.fail "no integrity layer"
  in
  Alcotest.(check bool) "bad sector remapped" true (Integrity.remapped ig p);
  Alcotest.(check bool) "moved to a spare" true (Integrity.phys ig p <> p);
  Alcotest.(check bool) "table records it" true (Integrity.remap_count ig >= 1);
  Alcotest.(check bytes) "victim reads the acknowledged rewrite" (payload 2)
    (ok "/victim" (Cffs.read_file fs "/victim"));
  Alcotest.(check bytes) "other spindle unaffected" (payload 0)
    (ok "/keep" (Cffs.read_file fs "/keep"));
  (match Scrub.run_to_completion fs with
  | None -> Alcotest.fail "scrub unavailable"
  | Some s -> Alcotest.(check int) "nothing lost" 0 s.Scrub.lost);
  Faultdev.detach fd

let crash_with_in_flight_writes () =
  (* Power cuts at sampled prefixes of a create burst fanned out across
     four per-spindle queues: every materialized image must mount, fsck
     must converge, and every file acknowledged before the cut must read
     back byte-identical. *)
  let v, fs = mk_fs ~drives:4 () in
  let fd = Faultdev.attach v.Volume.dev in
  let durable = List.init 10 (fun i -> (Printf.sprintf "/d%02d" i, payload i)) in
  List.iter (fun (p, b) -> ok p (Cffs.write_file fs p b)) durable;
  Cffs.sync fs;
  let s0 = Faultdev.journal_length fd in
  ok "/burst" (Cffs.mkdir fs "/burst");
  for i = 0 to 59 do
    let p = Printf.sprintf "/burst/b%03d" i in
    ok p (Cffs.write_file fs p (payload i))
  done;
  Cffs.sync fs;
  let s1 = Faultdev.journal_length fd in
  Alcotest.(check bool) "burst persisted writes" true (s1 > s0 + 10);
  for k = 0 to 5 do
    let upto = s0 + ((s1 - s0) * k / 5) in
    let img = Faultdev.materialize fd ~upto in
    match Cffs.mount img with
    | None -> Alcotest.failf "point %d: unmountable" upto
    | Some cfs ->
        let (_ : Report.t) = Fsck.repair cfs in
        Alcotest.(check bool)
          (Printf.sprintf "point %d converges" upto)
          true
          (Report.is_clean (Fsck.check cfs));
        List.iter
          (fun (p, b) ->
            match Cffs.read_file cfs p with
            | Ok got when Bytes.equal got b -> ()
            | _ -> Alcotest.failf "point %d: %s lost" upto p)
          durable
  done;
  Faultdev.detach fd

(* ------------------------------------------------------------------ *)
(* Plain vs composite: one pipeline over 1..N spindles.  A plain memory
   device and 2- and 3-spindle striped composites with a 4-block stripe
   unit (so requests cross extents) run the same random operation
   sequence and must agree on every observable result. *)

let diff_blocks = 64

let diff_devices () =
  let striped drives =
    (Volume.create_memory ~stripe_unit:4 ~block_size:512 ~nblocks:diff_blocks
       ~drives ~layout:Volume.Striped ())
      .Volume.dev
  in
  [ Blockdev.memory ~block_size:512 ~nblocks:diff_blocks; striped 2; striped 3 ]

type diff_op =
  | Submit_read of int * int
  | Submit_write of int * int * int
  | Drain
  | Read of int * int
  | Write of int * int * int
  | Batch of (int * int * int) list

(* What one operation showed its caller; failures compare by cause, since
   a split request names the failing fragment's range. *)
type diff_obs =
  | Tag of int
  | Data of string
  | Raised of Io_error.cause
  | Done
  | Completions of (int * int * int * (string, Io_error.cause) result) list

let diff_payload bs n byte =
  Bytes.init (n * bs) (fun i -> Char.chr ((byte + (i / bs)) land 255))

let diff_span (blk, n) = (blk, max 1 (min n (diff_blocks - blk)))

let diff_gen =
  let open QCheck.Gen in
  let span = pair (int_bound (diff_blocks - 1)) (int_range 1 12) in
  let op =
    frequency
      [
        (3, map (fun s -> let b, n = diff_span s in Submit_read (b, n)) span);
        ( 3,
          map2 (fun s v -> let b, n = diff_span s in Submit_write (b, n, v)) span
            (int_bound 255) );
        (2, return Drain);
        (2, map (fun s -> let b, n = diff_span s in Read (b, n)) span);
        ( 2,
          map2 (fun s v -> let b, n = diff_span s in Write (b, n, v)) span
            (int_bound 255) );
        ( 1,
          map
            (fun us -> Batch (List.map (fun (s, v) -> let b, n = diff_span s in (b, n, v)) us))
            (list_size (int_range 1 4) (pair span (int_bound 255))) );
      ]
  in
  list_size (int_range 1 40) op

let diff_print = function
  | Submit_read (b, n) -> Printf.sprintf "submit_read %d %d" b n
  | Submit_write (b, n, v) -> Printf.sprintf "submit_write %d %d %d" b n v
  | Drain -> "drain"
  | Read (b, n) -> Printf.sprintf "read %d %d" b n
  | Write (b, n, v) -> Printf.sprintf "write %d %d %d" b n v
  | Batch us ->
      "batch "
      ^ String.concat ";"
          (List.map (fun (b, n, v) -> Printf.sprintf "%d+%d=%d" b n v) us)

let diff_raised f =
  match f () with v -> v | exception Io_error.E e -> Raised e.Io_error.cause

let diff_step dev op =
  let bs = Blockdev.block_size dev in
  match op with
  | Submit_read (b, n) -> Tag (Blockdev.submit_read dev b n)
  | Submit_write (b, n, v) -> Tag (Blockdev.submit_write dev b (diff_payload bs n v))
  | Drain ->
      Completions
        (Blockdev.drain dev
        |> List.map (fun (c : Blockdev.cqe) ->
               ( c.Blockdev.cq_tag,
                 c.Blockdev.cq_blk,
                 c.Blockdev.cq_nblocks,
                 match c.Blockdev.cq_result with
                 | Ok d -> Ok (Bytes.to_string d)
                 | Error e -> Error e.Io_error.cause ))
        |> List.sort compare)
  | Read (b, n) ->
      diff_raised (fun () -> Data (Bytes.to_string (Blockdev.read dev b n)))
  | Write (b, n, v) ->
      diff_raised (fun () ->
          Blockdev.write dev b (diff_payload bs n v);
          Done)
  | Batch us ->
      diff_raised (fun () ->
          Blockdev.write_batch_units dev
            (List.map
               (fun (b, n, v) ->
                 (b, List.init n (fun i -> diff_payload bs 1 (v + i))))
               us);
          Done)

let diff_agree =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"plain and 2-/3-spindle composites agree on every result"
       (QCheck.make ~print:(QCheck.Print.list diff_print) diff_gen)
       (fun ops ->
         let devs = diff_devices () in
         List.for_all
           (fun op ->
             let obs = List.map (fun d -> diff_step d op) devs in
             let contents =
               match op with
               | Drain ->
                   List.map
                     (fun d -> Bytes.to_string (Blockdev.read d 0 diff_blocks))
                     devs
               | _ -> []
             in
             let same = function [] -> true | x :: rest -> List.for_all (( = ) x) rest in
             same obs && same contents)
           (ops @ [ Drain ])))

let diff_bad_block () =
  (* a sticky bad block fails exactly the sync reads and writes covering
     it, on the plain device and on both composites *)
  let devs = diff_devices () in
  let bad = 21 in
  let fds =
    List.map
      (fun d ->
        let fd = Faultdev.attach d in
        Faultdev.mark_bad fd bad;
        fd)
      devs
  in
  let prng = Prng.create 42 in
  for _ = 1 to 300 do
    let b, n = diff_span (Prng.int prng diff_blocks, 1 + Prng.int prng 12) in
    let op = if Prng.int prng 2 = 0 then Read (b, n) else Write (b, n, Prng.int prng 256) in
    let covers = b <= bad && bad < b + n in
    List.iter
      (fun d ->
        let failed =
          match diff_step d op with Raised Io_error.Bad_sector -> true | _ -> false
        in
        Alcotest.(check bool) (diff_print op) covers failed)
      devs
  done;
  List.iter Faultdev.detach fds

(* ------------------------------------------------------------------ *)
(* Block buffers against a byte model.  Random device submissions, batch
   writes, cache group reads and cache prefetches run on a plain device
   and on 2- to 4-spindle composites, striped and metadata-split, with
   and without coalescing.  Overlapping requests are serviced in
   submission order, so a read must return the model's bytes as of its
   submission; a cached block must hold the bytes the media had when it
   was installed.  Write buffers are scribbled over as soon as the device
   is done with them, so a buffer the device kept instead of copying
   shows up as a wrong read. *)

type model_op =
  | M_submit_read of int * int
  | M_submit_write of int * int * int
  | M_batch of (int * int * int) list
  | M_drain
  | M_read_group of int * int
  | M_prefetch of (int * int) list
  | M_direct_write of int * int * int
      (** a synchronous write straight to the device, behind the cache *)

let model_print = function
  | M_submit_read (b, n) -> diff_print (Submit_read (b, n))
  | M_submit_write (b, n, v) -> diff_print (Submit_write (b, n, v))
  | M_batch us -> diff_print (Batch us)
  | M_drain -> "drain"
  | M_read_group (b, n) -> Printf.sprintf "read_group %d %d" b n
  | M_prefetch runs ->
      "prefetch "
      ^ String.concat ";" (List.map (fun (b, n) -> Printf.sprintf "%d+%d" b n) runs)
  | M_direct_write (b, n, v) -> Printf.sprintf "direct write %d %d %d" b n v

let model_gen =
  let open QCheck.Gen in
  let span = map diff_span (pair (int_bound (diff_blocks - 1)) (int_range 1 12)) in
  let op =
    frequency
      [
        (3, map (fun (b, n) -> M_submit_read (b, n)) span);
        (3, map2 (fun (b, n) v -> M_submit_write (b, n, v)) span (int_bound 255));
        ( 2,
          map
            (fun us -> M_batch (List.map (fun ((b, n), v) -> (b, n, v)) us))
            (list_size (int_range 1 4) (pair span (int_bound 255))) );
        (2, return M_drain);
        (2, map (fun (b, n) -> M_read_group (b, n)) span);
        (2, map (fun runs -> M_prefetch runs) (list_size (int_range 1 8) span));
      ]
  in
  triple bool (int_range 1 16) (list_size (int_range 1 40) op)

let model_devices =
  ("plain", fun () -> Blockdev.memory ~block_size:512 ~nblocks:diff_blocks)
  :: List.concat_map
       (fun layout ->
         List.map
           (fun drives ->
             ( Printf.sprintf "%s x%d" (Volume.layout_name layout) drives,
               fun () ->
                 (Volume.create_memory ~stripe_unit:4 ~block_size:512
                    ~nblocks:diff_blocks ~drives ~layout ())
                   .Volume.dev ))
           [ 2; 3; 4 ])
       [ Volume.Striped; Volume.Meta_split ]

let model_run ~coalesce ~depth (name, mk) ops =
  let dev = mk () in
  Blockdev.set_queue dev ~depth ~policy:Cffs_disk.Scheduler.Clook ~coalesce ();
  let bs = Blockdev.block_size dev in
  let media = Bytes.make (diff_blocks * bs) '\000' in
  let cache = Cache.create dev ~capacity_blocks:(2 * diff_blocks) in
  let cached = Hashtbl.create 64 in
  let expect = Hashtbl.create 16 in
  let held = ref [] in
  let range b n = Bytes.sub_string media (b * bs) (n * bs) in
  let fail step what = QCheck.Test.fail_reportf "%s, after %s: %s" name step what in
  let release () =
    List.iter (fun b -> Bytes.fill b 0 (Bytes.length b) '\xee') !held;
    held := []
  in
  let drain step =
    List.iter
      (fun (c : Blockdev.cqe) ->
        match (c.Blockdev.cq_result, Hashtbl.find_opt expect c.Blockdev.cq_tag) with
        | Ok d, Some (b, n, want) ->
            if (c.Blockdev.cq_blk, c.Blockdev.cq_nblocks) <> (b, n) then
              fail step "completion names the wrong range";
            if Bytes.to_string d <> want then
              fail step (Printf.sprintf "read %d+%d returned stale or foreign bytes" b n)
        | Ok _, None -> ()
        | Error _, _ -> fail step "request failed")
      (Blockdev.drain dev);
    Hashtbl.reset expect;
    release ()
  in
  let install b n =
    for i = b to b + n - 1 do
      if not (Hashtbl.mem cached i) then Hashtbl.replace cached i (range i 1)
    done
  in
  let step op =
    let s = model_print op in
    (match op with
    | M_submit_read (b, n) ->
        Hashtbl.replace expect (Blockdev.submit_read dev b n) (b, n, range b n)
    | M_submit_write (b, n, v) ->
        let data = diff_payload bs n v in
        ignore (Blockdev.submit_write dev b data);
        Bytes.blit data 0 media (b * bs) (n * bs);
        held := data :: !held
    | M_batch us ->
        let units =
          List.map (fun (b, n, v) -> (b, List.init n (fun i -> diff_payload bs 1 (v + i)))) us
        in
        Blockdev.write_batch_units dev units;
        List.iter
          (fun (b, blocks) ->
            List.iteri (fun i d -> Bytes.blit d 0 media ((b + i) * bs) bs) blocks)
          units;
        (* the batch is synchronous: its buffers are the caller's again *)
        List.iter (fun (_, bl) -> List.iter (fun d -> Bytes.fill d 0 bs '\xee') bl) units
    | M_drain -> drain s
    | M_read_group (b, n) ->
        ignore (Cache.read_group cache b n);
        install b n
    | M_prefetch runs ->
        (* prefetch drains the whole queue and keeps only its own
           completions: collect the others first *)
        drain s;
        Cache.prefetch cache runs;
        List.iter (fun (b, n) -> install b n) runs
    | M_direct_write (b, n, v) ->
        (* the cache keeps the bytes it installed; the media move on *)
        let data = diff_payload bs n v in
        Blockdev.write dev b data;
        Bytes.blit data 0 media (b * bs) (n * bs);
        Bytes.fill data 0 (n * bs) '\xee');
    for b = 0 to diff_blocks - 1 do
      match Hashtbl.find_opt cached b with
      | None -> if Cache.resident_block cache b then fail s (Printf.sprintf "block %d resident" b)
      | Some want ->
          if not (Cache.resident_block cache b) then fail s (Printf.sprintf "block %d missing" b);
          if Bytes.to_string (Cache.read cache b) <> want then
            fail s (Printf.sprintf "cached block %d differs" b)
    done
  in
  List.iter step ops;
  drain "the last drain";
  if Bytes.to_string (Blockdev.read dev 0 diff_blocks) <> Bytes.to_string media then
    fail "the last drain" "media differ from the model";
  true

(* [model_gen] with synchronous device writes mixed in, behind the
   cache's back: blocks the cache holds as device views must keep their
   installed bytes. *)
let model_direct_gen =
  let open QCheck.Gen in
  let span = map diff_span (pair (int_bound (diff_blocks - 1)) (int_range 1 12)) in
  let direct = map2 (fun (b, n) v -> M_direct_write (b, n, v)) span (int_bound 255) in
  let rec alternate a b =
    match (a, b) with
    | x :: a, y :: b -> x :: y :: alternate a b
    | rest, [] | [], rest -> rest
  in
  map2
    (fun (co, d, ops) extra -> (co, d, alternate ops extra))
    model_gen
    (list_size (int_range 1 20) direct)

let model_agree =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"device and cache data match a byte model on 1-4 spindles"
       (QCheck.make
          ~print:(fun (co, d, ops) ->
            Printf.sprintf "coalesce=%b depth=%d\n%s" co d
              (String.concat "\n" (List.map model_print ops)))
          model_gen)
       (fun (coalesce, depth, ops) ->
         List.for_all (fun dv -> model_run ~coalesce ~depth dv ops) model_devices))

let model_direct_agree =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"cached blocks keep their bytes under direct device writes"
       (QCheck.make
          ~print:(fun (co, d, ops) ->
            Printf.sprintf "coalesce=%b depth=%d\n%s" co d
              (String.concat "\n" (List.map model_print ops)))
          model_direct_gen)
       (fun (coalesce, depth, ops) ->
         List.for_all (fun dv -> model_run ~coalesce ~depth dv ops) model_devices))

(* ------------------------------------------------------------------ *)
(* The A9 acceptance criterion: 4 striped spindles serve the small-file
   read phase at >= 3x one drive, and every multi-drive point leaves
   per-spindle telemetry showing all spindles did work. *)

let a9_scaling_criterion () =
  let s = Experiments.volume_scaling Experiments.quick in
  Alcotest.(check bool)
    (Printf.sprintf "4 striped spindles >= 3x one drive (got %.2fx)"
       s.Experiments.vol_speedup)
    true
    (s.Experiments.vol_speedup >= 3.0);
  List.iter
    (fun p ->
      if p.Experiments.vp_drives > 1 then begin
        Alcotest.(check int) "per-spindle telemetry" p.Experiments.vp_drives
          (List.length p.Experiments.vp_spindles);
        List.iter
          (fun sp ->
            Alcotest.(check bool)
              (Printf.sprintf "spindle %d did work" sp.Volume.spindle)
              true
              (sp.Volume.s_reads + sp.Volume.s_writes > 0))
          p.Experiments.vp_spindles
      end)
    s.Experiments.vol_points;
  match s.Experiments.vol_meta_split with
  | None -> Alcotest.fail "missing meta-split contrast point"
  | Some p ->
      Alcotest.(check bool) "contrast runs the other layout" true
        (p.Experiments.vp_layout <> Volume.Striped)

let () =
  Alcotest.run "volume"
    [
      ( "composite",
        [
          Alcotest.test_case "roundtrip" `Quick roundtrip;
          Alcotest.test_case "striped spread" `Quick spread;
          Alcotest.test_case "meta-split spread" `Quick meta_split_spread;
          Alcotest.test_case "async fan-out" `Quick async_fanout;
          Alcotest.test_case "cross-extent request" `Quick cross_extent_write;
          Alcotest.test_case "snapshot/restore + flatten" `Quick snapshot_restore;
        ] );
      ( "faults",
        [
          Alcotest.test_case "per-spindle isolation" `Quick fault_isolation;
          Alcotest.test_case "crash image is flat" `Quick crash_image_flat;
          Alcotest.test_case "scrub heals across spindles" `Quick
            scrub_heals_across_spindles;
          Alcotest.test_case "bad sector remaps on one spindle" `Quick
            remap_on_one_spindle;
          Alcotest.test_case "power cut with in-flight writes" `Quick
            crash_with_in_flight_writes;
        ] );
      ( "differential",
        [
          diff_agree;
          Alcotest.test_case "sticky bad block fails covering sync ops" `Quick
            diff_bad_block;
          model_agree;
          model_direct_agree;
        ] );
      ( "timing",
        [ Alcotest.test_case "drain overlaps spindles" `Quick timed_scaling ] );
      ( "a9",
        [
          Alcotest.test_case "4-spindle scaling criterion" `Quick
            a9_scaling_criterion;
        ] );
    ]
