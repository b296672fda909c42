module Io_error = Cffs_util.Io_error
module Codec = Cffs_util.Codec
module Crc32 = Cffs_util.Crc32

let m_ckfail = Cffs_obs.Registry.counter "integrity.checksum_failures"
let m_remaps = Cffs_obs.Registry.counter "integrity.remaps"
let m_degraded = Cffs_obs.Registry.counter "integrity.degraded_reads"

let note_degraded () = Cffs_obs.Registry.incr m_degraded

(* On-disk layout, carved from the tail of the device:

     [ data blocks | checksum region | spare pool | map A | map B ]

   The two map copies sit at the fixed last two blocks, so [attach] can
   find them from geometry alone; everything else is described by the map
   header.  The checksum region is the at-rest encoding of the device's
   per-block tags (4 bytes per block, 0 = no tag recorded); the spare pool
   backs both bad-sector remapping and metadata-replica slots. *)

let magic = 0x43534d31 (* "CSM1" *)

type t = {
  dev : Blockdev.t;
  data_blocks : int;
  csum_start : int;
  csum_blocks : int;
  spare_start : int;
  spare_count : int;
  map_a : int;
  map_b : int;
  remap : (int, int) Hashtbl.t; (* logical data block -> spare block *)
  replicas : (int, int) Hashtbl.t; (* replica slot -> spare block *)
  mutable spare_used : int; (* high-water mark into the spare pool *)
  mutable generation : int;
}

let data_blocks t = t.data_blocks
let device t = t.dev
let remap_count t = Hashtbl.length t.remap
let replica_count t = Hashtbl.length t.replicas
let spare_left t = t.spare_count - t.spare_used
let generation t = t.generation
let remapped t blk = Hashtbl.mem t.remap blk
let phys t blk = match Hashtbl.find_opt t.remap blk with Some p -> p | None -> blk

let layout dev ~spare_blocks =
  let nblocks = Blockdev.nblocks dev in
  let bs = Blockdev.block_size dev in
  let csum_blocks = ((nblocks * 4) + bs - 1) / bs in
  let reserved = csum_blocks + spare_blocks + 2 in
  let data_blocks = nblocks - reserved in
  if data_blocks <= 0 then
    invalid_arg
      (Printf.sprintf "Integrity: a %d-block device is too small for %d reserved blocks"
         nblocks reserved);
  ( data_blocks,
    csum_blocks,
    data_blocks + csum_blocks,
    (* spare_start *)
    nblocks - 2,
    (* map_a *)
    nblocks - 1 (* map_b *) )

(* --- Remap-table (map) block codec ---

   0  u32 magic        16 u32 entry count
   4  u32 generation   20 u32 spare_used
   8  u32 data_blocks  24 u32 reserved
   12 u32 spare_count  28 u32 crc of the block with this field zeroed
   32.. entries, 12 bytes each: u32 kind (1 remap, 2 replica), u32 key,
   u32 physical block. *)

let entry_off = 32
let entry_size = 12
let map_capacity bs = (bs - entry_off) / entry_size

let encode_map t =
  let bs = Blockdev.block_size t.dev in
  let b = Bytes.make bs '\000' in
  Codec.set_u32 b 0 magic;
  Codec.set_u32 b 4 t.generation;
  Codec.set_u32 b 8 t.data_blocks;
  Codec.set_u32 b 12 t.spare_count;
  let n = Hashtbl.length t.remap + Hashtbl.length t.replicas in
  if n > map_capacity bs then failwith "Integrity: remap table full";
  Codec.set_u32 b 16 n;
  Codec.set_u32 b 20 t.spare_used;
  let i = ref 0 in
  let put kind key phys =
    let off = entry_off + (!i * entry_size) in
    Codec.set_u32 b off kind;
    Codec.set_u32 b (off + 4) key;
    Codec.set_u32 b (off + 8) phys;
    incr i
  in
  Hashtbl.iter (fun key phys -> put 1 key phys) t.remap;
  Hashtbl.iter (fun slot phys -> put 2 slot phys) t.replicas;
  Codec.set_u32 b 28 (Crc32.digest b);
  b

let decode_map ~bs b =
  if Codec.get_u32 b 0 <> magic then None
  else begin
    let stored = Codec.get_u32 b 28 in
    Codec.set_u32 b 28 0;
    let ok = Crc32.digest b = stored in
    Codec.set_u32 b 28 stored;
    if not ok then None
    else begin
      let n = Codec.get_u32 b 16 in
      if n > map_capacity bs then None
      else begin
        let remap = Hashtbl.create 16 and replicas = Hashtbl.create 8 in
        let valid = ref true in
        for i = 0 to n - 1 do
          let off = entry_off + (i * entry_size) in
          let key = Codec.get_u32 b (off + 4) in
          let phys = Codec.get_u32 b (off + 8) in
          match Codec.get_u32 b off with
          | 1 -> Hashtbl.replace remap key phys
          | 2 -> Hashtbl.replace replicas key phys
          | _ -> valid := false
        done;
        if not !valid then None
        else
          Some
            ( Codec.get_u32 b 4, (* generation *)
              Codec.get_u32 b 8, (* data_blocks *)
              Codec.get_u32 b 12, (* spare_count *)
              Codec.get_u32 b 20, (* spare_used *)
              remap,
              replicas )
      end
    end
  end

(* Persist both map copies, generation-stamped.  Copy A lands before copy B
   as ordinary (journaled, fault-injectable) writes, so at every crash
   point at least one copy carries a valid CRC: a tear in A leaves B's old
   generation intact, and vice versa. *)
let persist_map t =
  t.generation <- t.generation + 1;
  let b = encode_map t in
  Blockdev.write t.dev t.map_a b;
  Blockdev.write t.dev t.map_b (Bytes.copy b)

(* Raw single-block read for integrity's own metadata (map copies,
   replicas, checksum region, scrub probes): retries transient blips a few
   times, turns any persistent failure into [None]. *)
let raw_read dev blk =
  let rec go attempts =
    match Blockdev.read dev blk 1 with
    | data -> Some data
    | exception Io_error.E { cause = Io_error.Transient; _ }
      when attempts < 3 ->
        go (attempts + 1)
    | exception Io_error.E _ -> None
  in
  go 0

(* --- Checksum region: the at-rest tag encoding --- *)

let flush_tags t =
  let bs = Blockdev.block_size t.dev in
  let per = bs / 4 in
  for cb = 0 to t.csum_blocks - 1 do
    let b = Bytes.make bs '\000' in
    let lo = cb * per in
    let hi = min (Blockdev.nblocks t.dev) (lo + per) - 1 in
    for blk = lo to hi do
      match Blockdev.tag t.dev blk with
      | None -> ()
      | Some v ->
          (* 0 encodes "no tag"; a genuine CRC of 0 (probability 2^-32) is
             nudged to 1, accepting a vanishingly unlikely false alarm. *)
          let v = if v <= 0 then 1 else v land 0xffffffff in
          Codec.set_u32 b ((blk - lo) * 4) v
    done;
    Blockdev.write t.dev (t.csum_start + cb) b
  done

let load_tags t =
  let bs = Blockdev.block_size t.dev in
  let per = bs / 4 in
  for cb = 0 to t.csum_blocks - 1 do
    match raw_read t.dev (t.csum_start + cb) with
    | None -> () (* unreadable region block: those tags stay unverifiable *)
    | Some b ->
        let lo = cb * per in
        let hi = min (Blockdev.nblocks t.dev) (lo + per) - 1 in
        for blk = lo to hi do
          let v = Codec.get_u32 b ((blk - lo) * 4) in
          if v <> 0 then Blockdev.set_tag t.dev blk v
        done
  done

(* --- Verified reads --- *)

(* Does the view of physical block [phys] match its tag?  The CRC is
   taken over the view's bytes in place. *)
let view_ok t ~phys v =
  match Blockdev.tag t.dev phys with
  | None -> true (* never written under tags: unverifiable, trusted *)
  | Some tag ->
      tag = Blockdev.view_crc v
      || begin
           Cffs_obs.Registry.incr m_ckfail;
           false
         end

let check_data_range t blk n =
  if blk < 0 || n <= 0 || blk + n > t.data_blocks then
    Io_error.raise_error ~op:Io_error.Read ~blk ~nblocks:n Io_error.Out_of_bounds

let read_views t blk n =
  check_data_range t blk n;
  let any_remap =
    let rec go i = i < n && (Hashtbl.mem t.remap (blk + i) || go (i + 1)) in
    go 0
  in
  (* A remapped block breaks physical contiguity: fetch block by block,
     translating each through the table, and verify each as it lands. *)
  let views =
    if any_remap then Array.make n Blockdev.no_view else Blockdev.read_views t.dev blk n
  in
  let release_all () = Array.iter Blockdev.release views in
  for i = 0 to n - 1 do
    let p = if any_remap then phys t (blk + i) else blk + i in
    if any_remap then
      views.(i) <-
        (try (Blockdev.read_views t.dev p 1).(0)
         with e ->
           release_all ();
           raise e);
    if not (view_ok t ~phys:p views.(i)) then begin
      release_all ();
      Io_error.raise_error ~op:Io_error.Read ~blk:(blk + i) ~nblocks:1
        Io_error.Checksum_mismatch
    end
  done;
  views

(* --- Writes with transparent remap-on-write --- *)

let alloc_spare t =
  if t.spare_used >= t.spare_count then None
  else begin
    let s = t.spare_start + t.spare_used in
    t.spare_used <- t.spare_used + 1;
    Some s
  end

(* Write one logical block, remapping to a fresh spare when the target is a
   sticky bad sector.  The data reaches the spare before the table is
   persisted: a crash between the two loses only the mapping of a write
   that was never acknowledged. *)
let rec write_block t blk data off =
  let bs = Blockdev.block_size t.dev in
  let p = phys t blk in
  let payload = Bytes.sub data off bs in
  try Blockdev.write t.dev p payload
  with Io_error.E { cause = Io_error.Bad_sector; _ } as e -> (
    match alloc_spare t with
    | None -> raise e
    | Some sp -> (
        try
          Blockdev.write t.dev sp payload;
          Hashtbl.replace t.remap blk sp;
          Cffs_obs.Registry.incr m_remaps;
          persist_map t
        with Io_error.E { cause = Io_error.Bad_sector; _ } ->
          (* the spare itself is bad: burn it and try the next *)
          write_block t blk data off))

let write t blk data =
  let bs = Blockdev.block_size t.dev in
  let len = Bytes.length data in
  if len mod bs <> 0 then invalid_arg "Integrity.write: partial block";
  let n = len / bs in
  if blk < 0 || n <= 0 || blk + n > t.data_blocks then
    Io_error.raise_error ~op:Io_error.Write ~blk ~nblocks:n Io_error.Out_of_bounds;
  let any_remap =
    let rec go i = i < n && (Hashtbl.mem t.remap (blk + i) || go (i + 1)) in
    go 0
  in
  if not any_remap then
    try Blockdev.write t.dev blk data
    with Io_error.E { cause = Io_error.Bad_sector; _ } ->
      (* isolate the failing block(s) and remap just those *)
      for i = 0 to n - 1 do
        write_block t (blk + i) data (i * bs)
      done
  else
    for i = 0 to n - 1 do
      write_block t (blk + i) data (i * bs)
    done

(* Scatter/gather batch with remap translation: remapped blocks split out
   of their unit (they are no longer physically contiguous with it).
   Faults inside the batch propagate; the cache's per-block fallback path
   retries through {!write}, which remaps. *)
let write_units t units =
  let translated = ref [] in
  let emit run =
    match run with
    | [] -> ()
    | (first, _) :: _ -> translated := (first, List.map snd run) :: !translated
  in
  List.iter
    (fun (start, blocks) ->
      let run = ref [] in
      List.iteri
        (fun i data ->
          let lblk = start + i in
          match Hashtbl.find_opt t.remap lblk with
          | None -> run := !run @ [ (lblk, data) ]
          | Some p ->
              emit !run;
              run := [];
              translated := (p, [ data ]) :: !translated)
        blocks;
      emit !run)
    units;
  Blockdev.write_batch_units t.dev (List.rev !translated)

(* --- Metadata replicas --- *)

let replica_phys t ~slot = Hashtbl.find_opt t.replicas slot

let replica_write t ~slot data =
  let p =
    match Hashtbl.find_opt t.replicas slot with
    | Some p -> Some p
    | None -> (
        match alloc_spare t with
        | None -> None (* spare pool exhausted: slot stays unreplicated *)
        | Some p ->
            Hashtbl.replace t.replicas slot p;
            persist_map t;
            Some p)
  in
  match p with
  | None -> false
  | Some p ->
      Blockdev.write t.dev p data;
      true

let replica_read t ~slot =
  match Hashtbl.find_opt t.replicas slot with
  | None -> None
  | Some p -> (
      match raw_read t.dev p with
      | None -> None
      | Some data -> (
          let bs = Blockdev.block_size t.dev in
          match Blockdev.tag t.dev p with
          | Some tag when tag <> Crc32.digest_sub data 0 bs ->
              Cffs_obs.Registry.incr m_ckfail;
              None
          | _ -> Some data))

(* --- Scrub support --- *)

type verdict = Verified | Untagged | Mismatch | Unreadable

let verify_block t blk =
  let p = phys t blk in
  match raw_read t.dev p with
  | None -> Unreadable
  | Some data -> (
      match Blockdev.tag t.dev p with
      | None -> Untagged
      | Some tag ->
          if tag = Crc32.digest_sub data 0 (Blockdev.block_size t.dev) then
            Verified
          else begin
            Cffs_obs.Registry.incr m_ckfail;
            Mismatch
          end)

let rewrite_block t blk data =
  if Bytes.length data <> Blockdev.block_size t.dev then
    invalid_arg "Integrity.rewrite_block";
  write t blk data

(* Validate the two map copies against each other; rewrite both from the
   in-memory state if either is stale or damaged.  Returns whether a
   repair was needed. *)
let repair_map_copies t =
  let bs = Blockdev.block_size t.dev in
  let copy blk =
    match raw_read t.dev blk with Some b -> decode_map ~bs b | None -> None
  in
  let healthy c =
    match c with Some (g, _, _, _, _, _) -> g = t.generation | None -> false
  in
  if healthy (copy t.map_a) && healthy (copy t.map_b) then false
  else begin
    persist_map t;
    true
  end

(* --- Construction --- *)

let mk dev ~spare_blocks =
  let data_blocks, csum_blocks, spare_start, map_a, map_b =
    layout dev ~spare_blocks
  in
  {
    dev;
    data_blocks;
    csum_start = data_blocks;
    csum_blocks;
    spare_start;
    spare_count = spare_blocks;
    map_a;
    map_b;
    remap = Hashtbl.create 16;
    replicas = Hashtbl.create 8;
    spare_used = 0;
    generation = 0;
  }

let format ?(spare_blocks = 64) dev =
  let bs = Blockdev.block_size dev in
  if spare_blocks < 2 || spare_blocks > map_capacity bs then
    invalid_arg
      (Printf.sprintf "Integrity.format: %d spare blocks; the remap table takes 2 to %d"
         spare_blocks (map_capacity bs));
  let t = mk dev ~spare_blocks in
  Blockdev.enable_tags dev;
  persist_map t;
  flush_tags t;
  t

let attach dev =
  let bs = Blockdev.block_size dev in
  let nblocks = Blockdev.nblocks dev in
  if nblocks < 4 then None
  else begin
    let copy blk =
      match raw_read dev blk with Some b -> decode_map ~bs b | None -> None
    in
    let best =
      match (copy (nblocks - 2), copy (nblocks - 1)) with
      | None, None -> None
      | (Some _ as a), None -> a
      | None, (Some _ as b) -> b
      | (Some (ga, _, _, _, _, _) as a), (Some (gb, _, _, _, _, _) as b) ->
          if ga >= gb then a else b
    in
    match best with
    | None -> None
    | Some (generation, data_blocks, spare_count, spare_used, remap, replicas)
      -> (
        match mk dev ~spare_blocks:spare_count with
        | exception Invalid_argument _ -> None
        | t when t.data_blocks <> data_blocks -> None
        | t ->
            t.generation <- generation;
            t.spare_used <- spare_used;
            Hashtbl.iter (Hashtbl.replace t.remap) remap;
            Hashtbl.iter (Hashtbl.replace t.replicas) replicas;
            (* A live device (remount) already carries authoritative
               in-memory tags; only a cold image (load_file, materialized
               crash image) takes them from the at-rest region. *)
            if not (Blockdev.tags_enabled dev) then begin
              Blockdev.enable_tags dev;
              load_tags t
            end;
            Some t)
  end
