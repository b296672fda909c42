(* Slicing-by-8: [tables] holds eight 256-entry tables back to back.
   Table 0 is the byte-at-a-time table; table [k] advances a byte's
   contribution by [k] more zero bytes, so eight input bytes fold into
   the checksum with eight lookups and no shifts between them. *)
let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 <> 0 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let c = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (c lsr 8) lxor t.(c land 0xff)
       done
     done;
     t)

(* Every index is masked into its table, so the lookups need no bounds
   check; the reads of [b] keep theirs. *)
let look (t : int array) k i = Array.unsafe_get t ((k * 256) + (i land 0xff))

let byte t c b i = look t 0 (c lxor Char.code (Bytes.get b i)) lxor (c lsr 8)

let update crc b off len =
  let t = Lazy.force tables in
  let c = ref (crc lxor 0xffffffff) in
  let i = ref off and stop = off + len in
  (* Bytes up to an 8-byte boundary, then 8 at a time, then the tail. *)
  while !i < stop && !i land 7 <> 0 do
    c := byte t !c b !i;
    incr i
  done;
  while !i + 8 <= stop do
    let lo = !c lxor (Int32.to_int (Bytes.get_int32_le b !i) land 0xffffffff) in
    let hi = Int32.to_int (Bytes.get_int32_le b (!i + 4)) land 0xffffffff in
    c :=
      look t 7 lo
      lxor look t 6 (lo lsr 8)
      lxor look t 5 (lo lsr 16)
      lxor look t 4 (lo lsr 24)
      lxor look t 3 hi
      lxor look t 2 (hi lsr 8)
      lxor look t 1 (hi lsr 16)
      lxor look t 0 (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c := byte t !c b !i;
    incr i
  done;
  !c lxor 0xffffffff

let digest_sub b off len = update 0 b off len
let digest b = digest_sub b 0 (Bytes.length b)
