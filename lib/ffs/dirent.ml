module Codec = Cffs_util.Codec

let header_bytes = 8
let align4 n = (n + 3) land lnot 3
let entry_bytes name = align4 (header_bytes + String.length name)

let get_ino b off = Codec.get_u32 b off
let get_reclen b off = Codec.get_u16 b (off + 4)
let get_namelen b off = Codec.get_u16 b (off + 6)
let get_name b off = Codec.get_string b (off + 8) (get_namelen b off)

let set_entry b off ~ino ~reclen ~name =
  Codec.set_u32 b off ino;
  Codec.set_u16 b (off + 4) reclen;
  Codec.set_u16 b (off + 6) (String.length name);
  Codec.set_string b (off + 8) name

let init_block b =
  set_entry b 0 ~ino:0 ~reclen:(Bytes.length b) ~name:""

(* The space entry [off] actually needs; a free entry needs nothing. *)
let used_bytes b off =
  if get_ino b off = 0 then 0 else align4 (header_bytes + get_namelen b off)

(* On-disk [reclen]/[namelen] are untrusted: a torn directory-block write
   splices sectors of two valid chains, so a chain offset can land on
   arbitrary bytes.  Every walk bounds-checks before dereferencing; a
   record that runs past the block (or claims a name longer than its
   extent) ends the walk, and fsck reports what the truncated chain no
   longer reaches. *)
let entry_ok b len off reclen =
  off + reclen <= len && header_bytes + get_namelen b off <= reclen

let iter b f =
  let len = Bytes.length b in
  let rec loop off =
    if off + header_bytes <= len then begin
      let reclen = get_reclen b off in
      if reclen <= 0 || off + reclen > len then () (* corrupt block: stop *)
      else begin
        let ino = get_ino b off in
        if ino <> 0 && entry_ok b len off reclen then
          f ~off ~ino (get_name b off);
        loop (off + reclen)
      end
    end
  in
  loop 0

let fold b ~init ~f =
  let acc = ref init in
  iter b (fun ~off:_ ~ino name -> acc := f !acc ~ino name);
  !acc

(* Whether the record at [off] is a live entry named [name]: [iter]'s
   test, with the name compared in place. *)
let holds b len off reclen name =
  get_ino b off <> 0
  && entry_ok b len off reclen
  && get_namelen b off = String.length name
  && Codec.equal_string b (off + header_bytes) name

(* [find] and [remove] walk the chain as [iter] does, but decode nothing
   on a miss and allocate only their result. *)
let rec locate_from b name len off =
  if off + header_bytes > len then -1
  else begin
    let reclen = get_reclen b off in
    if reclen <= 0 || off + reclen > len then -1
    else if holds b len off reclen name then off
    else locate_from b name len (off + reclen)
  end

let locate b name = locate_from b name (Bytes.length b) 0

let find b name =
  let off = locate b name in
  if off < 0 then None else Some (off, get_ino b off)

(* Whether the record at [off], [reclen] long, can take an entry of
   [needed] bytes: a free record whole, or a live one in the slack
   behind its name.  [insert] and [probe] make this same test. *)
let fits b off reclen needed =
  if get_ino b off = 0 then reclen >= needed else reclen - used_bytes b off >= needed

let insert_at b off name ino =
  let reclen = get_reclen b off in
  if get_ino b off = 0 then
    (* Take over the free entry, keeping its full extent. *)
    set_entry b off ~ino ~reclen ~name
  else begin
    (* Carve the new entry out of this entry's slack. *)
    let used = used_bytes b off in
    Codec.set_u16 b (off + 4) used;
    set_entry b (off + used) ~ino ~reclen:(reclen - used) ~name
  end

let insert b name ino =
  let needed = entry_bytes name in
  let len = Bytes.length b in
  let rec loop off =
    if off + header_bytes > len then false
    else begin
      let reclen = get_reclen b off in
      if reclen <= 0 || off + reclen > len then false
      else if fits b off reclen needed then begin
        insert_at b off name ino;
        true
      end
      else loop (off + reclen)
    end
  in
  loop 0

let absent room = if room >= 0 then `Room room else `Full

(* [find]'s walk, noting the first record that [fits] on the way. *)
let rec probe_from b name needed len room off =
  if off + header_bytes > len then absent room
  else begin
    let reclen = get_reclen b off in
    if reclen <= 0 || off + reclen > len then absent room
    else if holds b len off reclen name then `Hit (off, get_ino b off)
    else
      let room = if room < 0 && fits b off reclen needed then off else room in
      probe_from b name needed len room (off + reclen)
  end

let probe b name = probe_from b name (entry_bytes name) (Bytes.length b) (-1) 0

(* [prev] is the predecessor's offset, or -1 at the head of the block. *)
let rec remove_from b name len prev off =
  if off + header_bytes > len then None
  else begin
    let reclen = get_reclen b off in
    if reclen <= 0 || off + reclen > len then None
    else if holds b len off reclen name then begin
      let ino = get_ino b off in
      if prev >= 0 then
        (* Coalesce into the predecessor. *)
        Codec.set_u16 b (prev + 4) (get_reclen b prev + reclen)
      else Codec.set_u32 b off 0;
      Some ino
    end
    else remove_from b name len off (off + reclen)
  end

let remove b name = remove_from b name (Bytes.length b) (-1) 0

let set_ino b off ino = Codec.set_u32 b off ino

let live_count b = fold b ~init:0 ~f:(fun acc ~ino:_ _ -> acc + 1)
